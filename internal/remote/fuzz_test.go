package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"gadget/internal/memstore"
)

// FuzzServerFrame throws raw bytes at a live server connection. The
// server must never panic or hang, and must keep serving well-formed
// clients afterward.
func FuzzServerFrame(f *testing.F) {
	// Seed corpus: valid hello, truncated hello, garbage, valid hello +
	// valid batch, a batch whose record declares an oversized key, and a
	// stale sequence number after a fresh one.
	hello := appendHello(nil, protoV3, 42)
	f.Add(hello)
	f.Add(hello[:7])
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	put := appendBatch(nil, []request{{seq: 1, op: opPut, key: []byte("k"), val: []byte("v")}})
	f.Add(append(append([]byte{}, hello...), put...))
	huge := appendBatch(nil, []request{{seq: 2, op: opGet, key: []byte("k")}})
	binary.LittleEndian.PutUint32(huge[batchHdrLen+9:], 0xFFFFFFFF)
	f.Add(append(append([]byte{}, hello...), huge...))
	stale := appendBatch(nil, []request{{seq: 5, op: opGet, key: []byte("k")}, {seq: 3, op: opGet, key: []byte("k")}})
	f.Add(append(append([]byte{}, hello...), stale...))

	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close(); backing.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Skip("dial failed")
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		conn.Write(data)
		// Half-close so the server sees the input end instead of waiting
		// out the deadline for more; then drain whatever it answers. The
		// only requirement is that it neither panics nor hangs.
		conn.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, conn)
		conn.Close()

		// The server must still serve a healthy client.
		cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
		if err != nil {
			t.Fatalf("server unusable after fuzz input %x: %v", data, err)
		}
		if err := cli.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatalf("server poisoned by fuzz input %x: %v", data, err)
		}
		cli.Close()
	})
}

// FuzzBatchFrame exercises the v3 batch codec two ways: arbitrary bytes
// must decode without panics or over-reads, and any batch that does
// decode must survive a re-encode/re-decode round trip unchanged. It
// also throws the raw bytes at a live v3 server connection, which must
// keep serving well-formed clients afterward.
func FuzzBatchFrame(f *testing.F) {
	// Seed corpus: a valid single-op batch, a valid multi-op batch,
	// truncated payloads, a zero-count header, and length fields that
	// overrun the payload.
	one := appendBatch(nil, []request{{seq: 1, op: opPut, key: []byte("k"), val: []byte("v")}})
	f.Add(one)
	many := appendBatch(nil, []request{
		{seq: 2, op: opGet, key: []byte("a")},
		{seq: 3, op: opMerge, key: []byte("b"), val: []byte("+1")},
		{seq: 4, op: opDelete, key: []byte("c")},
	})
	f.Add(many)
	f.Add(one[:batchHdrLen+3])
	zero := make([]byte, batchHdrLen)
	f.Add(zero)
	overrun := append([]byte(nil), one...)
	binary.LittleEndian.PutUint32(overrun[batchHdrLen+9:], 0xFFFF)
	f.Add(overrun)

	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close(); backing.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		// Codec robustness: decode must never panic, and a decodable
		// batch must round-trip exactly.
		if reqs, err := readBatch(bufio.NewReader(bytes.NewReader(data))); err == nil {
			enc := appendBatch(nil, reqs)
			again, err := readBatch(bufio.NewReader(bytes.NewReader(enc)))
			if err != nil {
				t.Fatalf("re-decode of re-encoded batch failed: %v", err)
			}
			if len(again) != len(reqs) {
				t.Fatalf("round trip changed count: %d != %d", len(again), len(reqs))
			}
			for i := range reqs {
				if again[i].seq != reqs[i].seq || again[i].op != reqs[i].op ||
					!bytes.Equal(again[i].key, reqs[i].key) || !bytes.Equal(again[i].val, reqs[i].val) {
					t.Fatalf("round trip changed record %d: %+v != %+v", i, again[i], reqs[i])
				}
			}
		}

		// Server robustness: a v3 hello followed by the fuzz bytes must
		// neither panic nor poison the server.
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Skip("dial failed")
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		conn.Write(appendHello(nil, protoV3, 99))
		conn.Write(data)
		conn.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, conn)
		conn.Close()

		cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
		if err != nil {
			t.Fatalf("server unusable after fuzz input %x: %v", data, err)
		}
		if err := cli.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatalf("server poisoned by fuzz input %x: %v", data, err)
		}
		cli.Close()
	})
}

// FuzzClientFrame feeds arbitrary bytes to the client as server
// responses. The client must never panic, hang, or over-read.
func FuzzClientFrame(f *testing.F) {
	// Seed corpus: OK response, not-found, error with message, transient,
	// truncated header, oversized payload length, and an answer to a
	// sequence number nobody asked.
	rsp := func(seq uint64, status byte, payload string) []byte {
		var b bytes.Buffer
		w := bufio.NewWriter(&b)
		writeResponse(w, seq, response{status: status, payload: []byte(payload)}, false)
		w.Flush()
		return b.Bytes()
	}
	ok := rsp(1, statusOK, "v")
	f.Add(ok)
	f.Add(rsp(1, statusNotFound, ""))
	f.Add(rsp(1, statusError, "boom"))
	f.Add(rsp(1, statusTransient, "later"))
	f.Add(ok[:5])
	huge := rsp(1, statusOK, "")
	binary.LittleEndian.PutUint32(huge[9:13], 0xFFFFFFFF)
	f.Add(huge)
	f.Add(append(rsp(9, statusOK, "x"), ok...))

	f.Fuzz(func(t *testing.T, data []byte) {
		server, clientSide := net.Pipe()
		dialer := func(addr string) (net.Conn, error) { return clientSide, nil }
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer server.Close()
			server.SetDeadline(time.Now().Add(2 * time.Second))
			// Consume the hello and one batch, then answer with the fuzz
			// bytes and hang up.
			hello := make([]byte, helloLen)
			if _, err := io.ReadFull(server, hello); err != nil {
				return
			}
			if _, err := readBatch(bufio.NewReader(server)); err != nil {
				return
			}
			server.Write(data)
		}()

		cli, err := DialPipeline("fuzz", PipelineOptions{
			Dialer:  dialer,
			Redials: -1, // the pipe can only be dialed once
			Timeout: 500 * time.Millisecond,
		})
		if err == nil {
			// Any outcome is fine as long as it returns.
			cli.Get([]byte("k"))
			cli.Close()
		}
		clientSide.Close()
		<-done
	})
}

// FuzzTraceTrailer throws arbitrary bytes at the trace-trailer decoder
// (it must reject without panicking) and round-trips every in-order
// stamp pair through append/decode.
func FuzzTraceTrailer(f *testing.F) {
	f.Add([]byte{}, int64(0), int64(0))
	f.Add(make([]byte, traceTrailerLen), int64(1), int64(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, int64(5), int64(5))
	f.Fuzz(func(t *testing.T, raw []byte, a, b int64) {
		// Arbitrary input: any outcome but a panic is fine, and success
		// implies the invariants the client relies on.
		if start, end, err := decodeTraceTrailer(raw); err == nil {
			if len(raw) != traceTrailerLen {
				t.Fatalf("decoded a %d-byte trailer", len(raw))
			}
			if start < 0 || end < start {
				t.Fatalf("accepted out-of-order stamps %d..%d", start, end)
			}
		}
		// Round trip: every valid stamp pair survives append/decode. The
		// sign-bit mask (not negation, which overflows on MinInt64) maps
		// arbitrary fuzz inputs onto the valid non-negative stamp domain.
		lo, hi := a&(1<<63-1), b&(1<<63-1)
		if hi < lo {
			lo, hi = hi, lo
		}
		enc := appendTraceTrailer(nil, lo, hi)
		start, end, err := decodeTraceTrailer(enc)
		if err != nil {
			t.Fatalf("round trip %d..%d: %v", lo, hi, err)
		}
		if start != lo || end != hi {
			t.Fatalf("round trip %d..%d = %d..%d", lo, hi, start, end)
		}
	})
}
