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
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// decodeRecord parses the record starting at data[0]. It returns the
// record and its encoded size, or errBadRecord when the bytes cannot be a
// complete, checksummed record (torn tail, corruption, or garbage). A
// record that is complete but fails its CRC still reports its size.
func decodeRecord(data []byte) (record, int, error) {
	if len(data) < recHeaderLen+recTrailerLen {
		return record{}, 0, errBadRecord
	}
	typ := data[0]
	if typ != recPut && typ != recDelete {
		return record{}, 0, errBadRecord
	}
	keyLen := int(binary.LittleEndian.Uint32(data[1:5]))
	engLen := int(binary.LittleEndian.Uint32(data[5:9]))
	valLen := int(binary.LittleEndian.Uint32(data[9:13]))
	if keyLen <= 0 || keyLen > maxKeyLen || engLen < 0 || engLen > maxEngLen ||
		valLen < 0 || valLen > maxValLen {
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
