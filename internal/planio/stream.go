// Plan-stream framing: the persistent peer-fetch channel's wire format.
//
// A plan fetch over HTTP pays the full envelope — request parse, header
// serialization, chunked flush — per plan, which dominates the cost of
// moving a ~300-byte frame between nodes. The plan stream replaces that
// envelope with a length-prefixed exchange on a connection upgraded
// once per peer (HTTP/1.1 Upgrade on PlanStreamPath, so it shares the
// node's one listening port):
//
//	request:  uvarint key length | key bytes
//	response: status byte (planFound / planMissing) | when found:
//	          uvarint data length | plan bytes (any planio format)
//
// The stream carries stored plan bytes verbatim — the same frames the
// store and replication pushes carry — so the receiver's admission
// check (digest cache, DecodeBinary, key re-derivation, contamination
// verification) is the one every imported plan passes. Only the
// envelope is special; the trust model is not.
package planio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// PlanStreamPath is the HTTP path a peer upgrades on; it is the
	// only way a node fetches plan bytes from a peer.
	PlanStreamPath = "/plans.stream"
	// PlanStreamProto names the protocol in the Upgrade header.
	PlanStreamProto = "switchsynth-plan-stream/1"

	// maxStreamKeyLen bounds a fetch request's key; canonical job keys
	// are well under this, so anything larger is a broken or hostile
	// peer and the server closes the stream.
	maxStreamKeyLen = 4096

	planFound   = 0x00
	planMissing = 0x01
)

// ErrStreamKeyTooLong reports a fetch request whose key exceeds
// maxStreamKeyLen.
var ErrStreamKeyTooLong = errors.New("planio: stream fetch key too long")

// WriteFetchRequest writes one plan-fetch request. The caller flushes.
func WriteFetchRequest(w *bufio.Writer, key string) error {
	if len(key) > maxStreamKeyLen {
		return ErrStreamKeyTooLong
	}
	var lb [binary.MaxVarintLen64]byte
	if _, err := w.Write(binary.AppendUvarint(lb[:0], uint64(len(key)))); err != nil {
		return err
	}
	_, err := w.WriteString(key)
	return err
}

// ReadFetchRequest reads one plan-fetch request, bounding the key
// length. io.EOF surfaces unwrapped so a server can tell an idle
// close (clean EOF between requests) from a truncated request.
func ReadFetchRequest(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxStreamKeyLen {
		return "", ErrStreamKeyTooLong
	}
	key := make([]byte, n)
	if _, err := io.ReadFull(r, key); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	return string(key), nil
}

// WriteFetchResponse writes one plan-fetch response. A nil-data found
// response is invalid and reported as missing. The caller flushes.
func WriteFetchResponse(w *bufio.Writer, data []byte, found bool) error {
	if !found || data == nil {
		return w.WriteByte(planMissing)
	}
	if err := w.WriteByte(planFound); err != nil {
		return err
	}
	var lb [binary.MaxVarintLen64]byte
	if _, err := w.Write(binary.AppendUvarint(lb[:0], uint64(len(data)))); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// ReadFetchResponse reads one plan-fetch response, bounding the plan to
// maxLen bytes (a larger length prefix is an error before any payload
// is read, so a lying peer cannot force a large allocation).
func ReadFetchResponse(r *bufio.Reader, maxLen int) (data []byte, found bool, err error) {
	st, err := r.ReadByte()
	if err != nil {
		return nil, false, err
	}
	switch st {
	case planMissing:
		return nil, false, nil
	case planFound:
	default:
		return nil, false, fmt.Errorf("planio: stream response status 0x%02x", st)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, false, err
	}
	if n > uint64(maxLen) {
		return nil, false, fmt.Errorf("planio: stream plan of %d bytes exceeds %d", n, maxLen)
	}
	data = make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, false, err
	}
	return data, true, nil
}
