// On-disk record codec for the durable plan store.
//
// The WAL is a sequence of length-prefixed, CRC-trailed records:
//
//	byte    0      record type (recPut | recDelete)
//	bytes  1-4     key length   (uint32 LE)
//	bytes  5-8     engine length (uint32 LE)
//	bytes  9-12    value length (uint32 LE)
//	bytes 13-...   key ‖ engine ‖ value
//	last 4 bytes   CRC32C (Castagnoli) of everything before it
//
// The CRC covers the header too, so a flipped length byte is detected
// exactly like a flipped payload byte. Replay skips a complete record
// whose CRC mismatches when a valid record follows it (disk rot) and
// treats any other bad record as the start of the torn tail.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Record types.
const (
	recPut    = 1
	recDelete = 2
)

// Plausibility caps: a malformed header must not make the reader allocate
// gigabytes. Canonical keys are 64-hex + engine suffix; planio plans for
// the largest supported switches are well under a megabyte.
const (
	maxKeyLen = 4 << 10
	maxEngLen = 256
	maxValLen = 64 << 20
)

// recHeaderLen is the fixed prefix before the variable fields.
const recHeaderLen = 1 + 4 + 4 + 4

// recTrailerLen is the CRC32C suffix.
const recTrailerLen = 4

// castagnoli is the CRC32C table shared by writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded WAL entry.
type record struct {
	typ    byte
	key    string
	engine string
	value  []byte
}

// size returns the encoded length of r.
func (r *record) size() int {
	return recHeaderLen + len(r.key) + len(r.engine) + len(r.value) + recTrailerLen
}

// encode appends r's wire form to buf and returns the extended slice.
func (r *record) encode(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, r.typ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.engine)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.value)))
	buf = append(buf, r.key...)
	buf = append(buf, r.engine...)
	buf = append(buf, r.value...)
	crc := crc32.Checksum(buf[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// errBadRecord marks a record that failed structural or CRC validation.
var errBadRecord = fmt.Errorf("store: bad record")

// parseHeader validates a record header and returns the record's type
// and field lengths; ok is false when the header cannot start a record.
func parseHeader(h []byte) (typ byte, keyLen, engLen, valLen int, ok bool) {
	typ = h[0]
	keyLen = int(binary.LittleEndian.Uint32(h[1:5]))
	engLen = int(binary.LittleEndian.Uint32(h[5:9]))
	valLen = int(binary.LittleEndian.Uint32(h[9:13]))
	ok = (typ == recPut || typ == recDelete) &&
		keyLen > 0 && keyLen <= maxKeyLen && engLen >= 0 && engLen <= maxEngLen &&
		valLen >= 0 && valLen <= maxValLen
	return typ, keyLen, engLen, valLen, ok
}

// decodeRecord parses the record starting at data[0]. It returns the
// record and its encoded size, or errBadRecord when the bytes cannot be a
// complete, checksummed record (torn tail, corruption, or garbage). A
// record that is complete but fails its CRC still reports its size.
func decodeRecord(data []byte) (record, int, error) {
	if len(data) < recHeaderLen+recTrailerLen {
		return record{}, 0, errBadRecord
	}
	typ, keyLen, engLen, valLen, ok := parseHeader(data)
	if !ok {
		return record{}, 0, errBadRecord
	}
	n := recHeaderLen + keyLen + engLen + valLen + recTrailerLen
	if len(data) < n {
		return record{}, 0, errBadRecord
	}
	body := data[:n-recTrailerLen]
	want := binary.LittleEndian.Uint32(data[n-recTrailerLen : n])
	if crc32.Checksum(body, castagnoli) != want {
		return record{}, n, errBadRecord
	}
	off := recHeaderLen
	rec := record{
		typ:    typ,
		key:    string(data[off : off+keyLen]),
		engine: string(data[off+keyLen : off+keyLen+engLen]),
		value:  append([]byte(nil), data[off+keyLen+engLen:off+keyLen+engLen+valLen]...),
	}
	return rec, n, nil
}

// walReader streams the WAL's records for replay. Each record's CRC is
// computed as its bytes pass; the engine and value are never kept and the
// key lands in a scratch buffer the next record reuses, so replay holds
// one read buffer and one key at a time, whatever the size of the log.
type walReader struct {
	r   *bufio.Reader
	hdr [recHeaderLen + recTrailerLen]byte
	key []byte // the last record's key; overwritten by the next call
}

func newWALReader(r io.Reader) *walReader {
	return &walReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// next reads the record at the reader's position with decodeRecord's
// rules: err is nil for a complete, checksummed record, whose key is then
// w.key; a complete record that fails its CRC reports its size with
// errBadRecord; a short or implausible record, or the end of the log,
// reports size 0 and errBadRecord. Any other error is the file's, and
// replay must not take it for a torn tail.
func (w *walReader) next() (typ byte, n int, err error) {
	h := w.hdr[:recHeaderLen]
	if _, err := io.ReadFull(w.r, h); err != nil {
		return 0, 0, readErr(err)
	}
	typ, keyLen, engLen, valLen, ok := parseHeader(h)
	if !ok {
		return 0, 0, errBadRecord
	}
	crc := crc32.Update(0, castagnoli, h)
	w.key = slices.Grow(w.key[:0], keyLen)[:keyLen]
	if _, err := io.ReadFull(w.r, w.key); err != nil {
		return 0, 0, readErr(err)
	}
	crc = crc32.Update(crc, castagnoli, w.key)
	for rest := engLen + valLen; rest > 0; {
		chunk, err := w.r.Peek(min(rest, w.r.Size()))
		crc = crc32.Update(crc, castagnoli, chunk)
		_, _ = w.r.Discard(len(chunk)) // cannot fail: the bytes are buffered
		rest -= len(chunk)
		if err != nil && rest > 0 {
			return 0, 0, readErr(err)
		}
	}
	trailer := w.hdr[recHeaderLen:]
	if _, err := io.ReadFull(w.r, trailer); err != nil {
		return 0, 0, readErr(err)
	}
	n = recHeaderLen + keyLen + engLen + valLen + recTrailerLen
	if binary.LittleEndian.Uint32(trailer) != crc {
		return typ, n, errBadRecord
	}
	return typ, n, nil
}

// readErr maps the end of the file inside a record to errBadRecord and
// passes any other read error on.
func readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errBadRecord
	}
	return err
}
