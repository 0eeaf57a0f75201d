package lsm

import (
	"encoding/binary"
	"fmt"
)

// Entry kinds stored in internal keys. Values matter: within one user key
// and sequence they are never compared, but they are persisted.
const (
	kindPut    byte = 1
	kindMerge  byte = 2
	kindDelete byte = 3
)

// Internal keys give every write a unique, totally ordered identity:
//
//	escape(userKey) . bigEndian(^seq) . kind
//
// The user key is escape-encoded (0x00 becomes 0x00 0xFF, terminated by
// 0x00 0x01) so that no encoded key is a prefix of another and byte order
// of encodings equals byte order of the raw keys even for variable-length
// keys. The complemented sequence makes newer entries sort first within a
// user key, so a SeekGE of k's lookup key lands on the newest entry for k.

// appendEscaped appends the order-preserving escape encoding of k to dst.
func appendEscaped(dst, k []byte) []byte {
	for _, b := range k {
		if b == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, 0x00, 0x01)
}

// decodeEscaped parses an escape-encoded key, returning the raw key and
// the number of encoded bytes consumed.
func decodeEscaped(b []byte) (key []byte, n int, err error) {
	out := make([]byte, 0, len(b))
	i := 0
	for i < len(b) {
		c := b[i]
		if c != 0x00 {
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return nil, 0, fmt.Errorf("lsm: truncated escaped key")
		}
		switch b[i+1] {
		case 0xFF:
			out = append(out, 0x00)
			i += 2
		case 0x01:
			return out, i + 2, nil
		default:
			return nil, 0, fmt.Errorf("lsm: invalid escape 0x00%02x", b[i+1])
		}
	}
	return nil, 0, fmt.Errorf("lsm: unterminated escaped key")
}

const trailerLen = 9

// appendIKey appends the internal key for (userKey, seq, kind) to dst.
func appendIKey(dst, userKey []byte, seq uint64, kind byte) []byte {
	dst = appendEscaped(dst, userKey)
	var t [trailerLen]byte
	binary.BigEndian.PutUint64(t[:8], ^seq)
	t[8] = kind
	return append(dst, t[:]...)
}

// appendLookupKey appends the smallest internal key for userKey to dst,
// i.e. the position of its newest possible entry. A point read builds it
// once into a stack buffer and hands the one slice to every layer it
// probes; its escaped-user-key prefix is what the filters hash.
func appendLookupKey(dst, userKey []byte) []byte {
	return appendIKey(dst, userKey, ^uint64(0), 0)
}

// errShortIKey reports an internal key too short to hold an escaped
// user key (at least its two-byte terminator) and a trailer.
type errShortIKey int

func (e errShortIKey) Error() string {
	return fmt.Sprintf("lsm: internal key too short (%d bytes)", int(e))
}

// ikeyTrailer reads the sequence and kind from an internal key's trailer
// without unescaping (or allocating) the user key.
func ikeyTrailer(ikey []byte) (seq uint64, kind byte, err error) {
	if len(ikey) < trailerLen+2 {
		return 0, 0, errShortIKey(len(ikey))
	}
	t := ikey[len(ikey)-trailerLen:]
	return ^binary.BigEndian.Uint64(t[:8]), t[8], nil
}

// parseIKey splits an internal key into its components, validating the
// escape encoding of the user key.
func parseIKey(ikey []byte) (userKey []byte, seq uint64, kind byte, err error) {
	seq, kind, err = ikeyTrailer(ikey)
	if err != nil {
		return nil, 0, 0, err
	}
	userKey, n, err := decodeEscaped(ikey[:len(ikey)-trailerLen])
	if err != nil {
		return nil, 0, 0, err
	}
	if n != len(ikey)-trailerLen {
		return nil, 0, 0, fmt.Errorf("lsm: trailing bytes in internal key")
	}
	return userKey, seq, kind, nil
}

// ikeyUserPrefix returns the escaped-user-key prefix of an internal key
// (everything but the trailer), used to group entries by user key without
// unescaping.
func ikeyUserPrefix(ikey []byte) []byte {
	if len(ikey) < trailerLen {
		return ikey
	}
	return ikey[:len(ikey)-trailerLen]
}
