package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gadget/internal/kv"
)

// Wire-level constants shared by both protocol versions. See the package
// comment for the frame layouts.
const (
	opGet byte = iota
	opPut
	opMerge
	opDelete
	// opScan requests a consistent bounded range scan. The request key
	// field carries both bounds (lo || hi, 2 x kv.KeyLen bytes); the
	// response value is the serialized entry list:
	// repeated [key 16B | valLen u32 | val].
	opScan

	statusOK        byte = 0
	statusNotFound  byte = 1
	statusError     byte = 2
	statusTransient byte = 3

	protoMagic uint32 = 0x74676467 // "gdgt"
	protoV2    byte   = 2
	protoV3    byte   = 3

	// The hello version byte carries the protocol version in its low
	// seven bits plus a trace-negotiation flag in the top bit: a client
	// setting helloTraceFlag asks the server to append a fixed
	// traceTrailerLen-byte trailer (handle-start, handle-end — both
	// server-monotonic nanoseconds) after every v3 response payload.
	// Untagged v3 and v2 clients are served byte-identically to before,
	// so trace bytes only flow where both ends understand them.
	helloVersionMask byte = 0x7f
	helloTraceFlag   byte = 0x80

	helloLen    = 13
	reqHdrLen   = 17
	rspHdrLen   = 5  // v2: status u8 | valLen u32
	batchHdrLen = 8  // v3: count u32 | payloadLen u32
	rsp3HdrLen  = 13 // v3: seq u64 | status u8 | valLen u32

	// traceTrailerLen is the fixed response-trailer extension on traced
	// v3 connections: handle-start u64 | handle-end u64 (server
	// monotonic ns). Only the difference is meaningful to the client, so
	// client and server clock domains never mix.
	traceTrailerLen = 16
	maxBatchOps     = 65536
	replayWindow    = 4096 // cached responses per session; bounds v3 pipeline depth

	// maxFrame bounds key, value, and response payload length; both ends
	// enforce it symmetrically with ErrFrameTooLarge. Under v3 it also
	// bounds a whole batch payload, so a single request record (header +
	// key + value) must fit in maxFrame.
	maxFrame = 64 << 20

	// maxSessions bounds the server's reconnect-replay session table.
	maxSessions = 4096

	// maxPipelineDepth caps a v3 client's in-flight window. It must stay
	// well under replayWindow so a reconnecting client's full
	// retransmission is always answerable from the server's cache.
	maxPipelineDepth = 1024
)

// Typed protocol errors.
var (
	// ErrFrameTooLarge reports a key, value, batch, or response exceeding
	// maxFrame. On the client it fails the operation before anything is
	// sent; on the server the oversized payload is drained and refused.
	ErrFrameTooLarge = fmt.Errorf("remote: frame exceeds %d-byte protocol limit", maxFrame)
	// ErrProtocol reports a malformed or version-mismatched peer.
	ErrProtocol = errors.New("remote: protocol error")
)

// request is one decoded request record, identical between v2 (one per
// frame) and v3 (many per batch frame).
type request struct {
	seq      uint64
	op       byte
	key, val []byte
}

// size returns the encoded length of the record.
func (q request) size() int { return reqHdrLen + len(q.key) + len(q.val) }

// encodeOp returns the wire form of op: its op code and the key and
// value fields of its request record. A scan carries both bounds in the
// key field.
func encodeOp(op kv.TracedOp) (code byte, key, val []byte, err error) {
	switch op.Op {
	case kv.OpGet, kv.OpFGet:
		return opGet, op.Key, nil, nil
	case kv.OpPut:
		return opPut, op.Key, op.Val, nil
	case kv.OpMerge:
		return opMerge, op.Key, op.Val, nil
	case kv.OpDelete:
		return opDelete, op.Key, nil, nil
	case kv.OpScan:
		return opScan, op.Hi.Encode(op.Lo.Encode(make([]byte, 0, 2*kv.KeyLen))), nil, nil
	default:
		return 0, nil, nil, fmt.Errorf("remote: unsupported op %v", op.Op)
	}
}

// decodeOp is the inverse of encodeOp: the operation a decoded request
// record asks for.
func decodeOp(q request) (kv.TracedOp, error) {
	switch q.op {
	case opGet:
		return kv.TracedOp{Op: kv.OpGet, Key: q.key}, nil
	case opPut:
		return kv.TracedOp{Op: kv.OpPut, Key: q.key, Val: q.val}, nil
	case opMerge:
		return kv.TracedOp{Op: kv.OpMerge, Key: q.key, Val: q.val}, nil
	case opDelete:
		return kv.TracedOp{Op: kv.OpDelete, Key: q.key}, nil
	case opScan:
		if len(q.key) != 2*kv.KeyLen {
			return kv.TracedOp{}, errors.New("remote: scan bounds must be 2 state keys")
		}
		lo, err := kv.DecodeStateKey(q.key[:kv.KeyLen])
		if err != nil {
			return kv.TracedOp{}, err
		}
		hi, err := kv.DecodeStateKey(q.key[kv.KeyLen:])
		return kv.TracedOp{Op: kv.OpScan, Lo: lo, Hi: hi}, err
	default:
		return kv.TracedOp{}, errors.New("unknown op")
	}
}

// appendHello appends a hello frame for the given version.
func appendHello(dst []byte, version byte, sessionID uint64) []byte {
	var h [helloLen]byte
	binary.LittleEndian.PutUint32(h[0:4], protoMagic)
	h[4] = version
	binary.LittleEndian.PutUint64(h[5:13], sessionID)
	return append(dst, h[:]...)
}

// appendTraceTrailer appends the fixed trace trailer (handle-start,
// handle-end in server-monotonic nanoseconds) to dst.
func appendTraceTrailer(dst []byte, start, end int64) []byte {
	var tr [traceTrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(start))
	binary.LittleEndian.PutUint64(tr[8:16], uint64(end))
	return append(dst, tr[:]...)
}

// decodeTraceTrailer parses a trace trailer. A short buffer or a
// trailer whose end precedes its start is a protocol error (zero
// stamps — an untraced or stale server response — are valid).
func decodeTraceTrailer(b []byte) (start, end int64, err error) {
	if len(b) != traceTrailerLen {
		return 0, 0, fmt.Errorf("%w: trace trailer is %d bytes, want %d", ErrProtocol, len(b), traceTrailerLen)
	}
	start = int64(binary.LittleEndian.Uint64(b[0:8]))
	end = int64(binary.LittleEndian.Uint64(b[8:16]))
	if start < 0 || end < start {
		return 0, 0, fmt.Errorf("%w: trace trailer stamps out of order", ErrProtocol)
	}
	return start, end, nil
}

// appendRequest appends one request record (the shared v2/v3 layout).
func appendRequest(dst []byte, q request) []byte {
	var hdr [reqHdrLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], q.seq)
	hdr[8] = q.op
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(q.key)))
	binary.LittleEndian.PutUint32(hdr[13:17], uint32(len(q.val)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, q.key...)
	return append(dst, q.val...)
}

// appendBatch appends a v3 batch frame carrying reqs. The caller must
// have bounded the batch (see batchFits): count ≤ maxBatchOps and total
// payload ≤ maxFrame.
func appendBatch(dst []byte, reqs []request) []byte {
	payload := 0
	for _, q := range reqs {
		payload += q.size()
	}
	var hdr [batchHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(reqs)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(payload))
	dst = append(dst, hdr[:]...)
	for _, q := range reqs {
		dst = appendRequest(dst, q)
	}
	return dst
}

// decodeBatchPayload parses the payload of a v3 batch frame that
// declared count records. It rejects trailing garbage, truncated
// records, and length fields overrunning the payload; request key/value
// slices alias b.
func decodeBatchPayload(b []byte, count int) ([]request, error) {
	reqs := make([]request, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < reqHdrLen {
			return nil, fmt.Errorf("%w: truncated batch record %d", ErrProtocol, i)
		}
		q := request{
			seq: binary.LittleEndian.Uint64(b[0:8]),
			op:  b[8],
		}
		keyLen := binary.LittleEndian.Uint32(b[9:13])
		valLen := binary.LittleEndian.Uint32(b[13:17])
		b = b[reqHdrLen:]
		if uint64(keyLen)+uint64(valLen) > uint64(len(b)) {
			return nil, fmt.Errorf("%w: batch record %d overruns payload", ErrProtocol, i)
		}
		q.key = b[:keyLen:keyLen]
		q.val = b[keyLen : keyLen+valLen : keyLen+valLen]
		b = b[keyLen+valLen:]
		reqs = append(reqs, q)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrProtocol, len(b))
	}
	return reqs, nil
}

// readBatch reads one v3 batch frame: header, bounds checks, payload,
// records. Returned request slices alias the returned payload buffer.
func readBatch(r io.Reader) ([]request, error) {
	var hdr [batchHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(hdr[0:4])
	payloadLen := binary.LittleEndian.Uint32(hdr[4:8])
	if count == 0 || count > maxBatchOps {
		return nil, fmt.Errorf("%w: batch count %d", ErrProtocol, count)
	}
	if payloadLen > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte batch", ErrFrameTooLarge, payloadLen)
	}
	if uint64(payloadLen) < uint64(count)*reqHdrLen {
		return nil, fmt.Errorf("%w: batch payload %d too small for %d records", ErrProtocol, payloadLen, count)
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return decodeBatchPayload(payload, int(count))
}

// encodeEntries serializes a scan result as repeated
// [key 16B | valLen u32 | val], enforcing the frame limit.
func encodeEntries(entries []kv.Entry) ([]byte, error) {
	size := 0
	for _, e := range entries {
		size += kv.KeyLen + 4 + len(e.Value)
	}
	if size > maxFrame {
		return nil, fmt.Errorf("%w: %d-byte scan result", ErrFrameTooLarge, size)
	}
	out := make([]byte, 0, size)
	var vlen [4]byte
	for _, e := range entries {
		out = e.Key.Encode(out)
		binary.LittleEndian.PutUint32(vlen[:], uint32(len(e.Value)))
		out = append(out, vlen[:]...)
		out = append(out, e.Value...)
	}
	return out, nil
}

// decodeEntries parses an opScan response payload.
func decodeEntries(b []byte) ([]kv.Entry, error) {
	var out []kv.Entry
	for len(b) > 0 {
		if len(b) < kv.KeyLen+4 {
			return nil, fmt.Errorf("%w: truncated scan entry", ErrProtocol)
		}
		sk, err := kv.DecodeStateKey(b[:kv.KeyLen])
		if err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(b[kv.KeyLen : kv.KeyLen+4])
		b = b[kv.KeyLen+4:]
		if uint64(n) > uint64(len(b)) {
			return nil, fmt.Errorf("%w: scan entry value overruns frame", ErrProtocol)
		}
		out = append(out, kv.Entry{Key: sk, Value: append([]byte(nil), b[:n]...)})
		b = b[n:]
	}
	return out, nil
}

// remoteError converts a non-OK wire status into a typed error.
func remoteError(status byte, out []byte) error {
	if status == statusTransient {
		// The server's store refused the op before applying it; safe to
		// retry, including merges.
		return kv.TransientError(fmt.Errorf("remote: %s", out))
	}
	return fmt.Errorf("remote: %s", out)
}

// errStatus maps a backend error to a wire status, preserving the
// transient classification so the client's resilience layer can retry.
// Transient backend failures follow the fail-before-apply contract
// (kv.ErrInjectedFault and friends), so replaying them is safe.
func errStatus(err error) byte {
	if kv.Transient(err) {
		return statusTransient
	}
	return statusError
}
