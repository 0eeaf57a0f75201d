package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gadget/internal/kv"
	"gadget/internal/memstore"
)

func startPipelinePair(t *testing.T, opts PipelineOptions) (*Server, *PipelinedClient, *memstore.Store) {
	t.Helper()
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); backing.Close() })
	cli, err := DialPipeline(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli, backing
}

func TestPipelineBasicOps(t *testing.T) {
	_, cli, _ := startPipelinePair(t, PipelineOptions{})
	if _, err := cli.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("miss = %v", err)
	}
	if err := cli.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, err := cli.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := cli.Merge([]byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := cli.Get([]byte("a")); string(v) != "12" {
		t.Fatalf("merge = %q", v)
	}
	if err := cli.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatal("delete failed")
	}
}

// Many goroutines sharing one pipelined client: all ops must complete
// correctly, and the writer must have coalesced them (fewer batch frames
// than requests).
func TestPipelineConcurrentWorkers(t *testing.T) {
	_, cli, _ := startPipelinePair(t, PipelineOptions{Depth: 32})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%d-k%d", w, i))
				if err := cli.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if v, err := cli.Get(k); err != nil || string(v) != fmt.Sprintf("v%d", i) {
					t.Errorf("Get = %q, %v", v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := cli.Metrics()
	if m["remote.requests"] != workers*perWorker*2 {
		t.Fatalf("requests = %d, want %d", m["remote.requests"], workers*perWorker*2)
	}
	if m["remote.batches"] == 0 || m["remote.batches"] > m["remote.requests"] {
		t.Fatalf("batches = %d of %d requests", m["remote.batches"], m["remote.requests"])
	}
	if m["remote.inflight"] != 0 {
		t.Fatalf("inflight gauge = %d after quiesce", m["remote.inflight"])
	}
}

// slowConn delays each Write, modelling a high-latency link. While the
// caller holding the writer role sleeps inside Write, concurrent callers
// keep enqueueing — so the next batch must carry several of them.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (s *slowConn) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.Conn.Write(p)
}

// Under a slow link with concurrent callers, the writer must coalesce
// queued requests into shared batch frames rather than shipping one
// frame per request.
func TestPipelineCoalescesBatches(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{
		Depth: 64,
		Dialer: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &slowConn{Conn: conn, delay: 200 * time.Microsecond}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const workers, perWorker = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := cli.Put([]byte(fmt.Sprintf("c%d-%d", w, i)), []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := cli.Metrics()
	if m["remote.batches"]*2 > m["remote.requests"] {
		t.Fatalf("batches = %d of %d requests: writer is not coalescing", m["remote.batches"], m["remote.requests"])
	}
}

// A raw v3 server that answers each batch in reverse order: the client
// must match responses to callers by sequence number, not arrival order.
func TestPipelineOutOfOrderResponses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		hello := make([]byte, helloLen)
		if _, err := io.ReadFull(r, hello); err != nil {
			return
		}
		for {
			reqs, err := readBatch(r)
			if err != nil {
				return
			}
			var out []byte
			for i := len(reqs) - 1; i >= 0; i-- {
				q := reqs[i]
				var hdr [rsp3HdrLen]byte
				binary.LittleEndian.PutUint64(hdr[0:8], q.seq)
				hdr[8] = statusOK
				// Echo the key back as the value so callers can verify
				// they got their own answer.
				binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(q.key)))
				out = append(out, hdr[:]...)
				out = append(out, q.key...)
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()

	cli, err := DialPipeline(ln.Addr().String(), PipelineOptions{Depth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("w%d-i%d", w, i))
				v, err := cli.Get(k)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if !bytes.Equal(v, k) {
					t.Errorf("got %q for key %q: responses crossed wires", v, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Reconnect replay under pipelining must be exactly-once: concurrent
// merges driven through failing connections appear in the backing store
// exactly once each, even when a whole in-flight batch is retransmitted.
func TestPipelineReconnectExactlyOnceMerges(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()

	// Kill connections at assorted points: mid-hello, mid-batch,
	// mid-response. Budgets grow so later connections carry real traffic
	// before dying.
	budgets := make([]int, 30)
	for i := range budgets {
		budgets[i] = 10 + 37*i%400
	}
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{
		Dialer:  flakyDialer(budgets),
		Redials: 40,
		Depth:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const workers, perWorker = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("m%d", w))
			for i := 0; i < perWorker; i++ {
				if err := cli.Merge(key, []byte(fmt.Sprintf("<%d:%d>", w, i))); err != nil {
					t.Errorf("Merge %d/%d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 0; w < workers; w++ {
		got, err := backing.Get([]byte(fmt.Sprintf("m%d", w)))
		if err != nil {
			t.Fatalf("worker %d key: %v", w, err)
		}
		for i := 0; i < perWorker; i++ {
			token := fmt.Sprintf("<%d:%d>", w, i)
			if n := strings.Count(string(got), token); n != 1 {
				t.Fatalf("operand %s applied %d times (duplicate or dropped merge)", token, n)
			}
		}
	}
	if cli.Metrics()["remote.redials"] == 0 {
		t.Fatal("test exercised no reconnects")
	}
}

// ScanRange and Snapshot work over the pipeline.
func TestPipelineScanAndSnapshot(t *testing.T) {
	_, cli, _ := startPipelinePair(t, PipelineOptions{})
	for i := 0; i < 10; i++ {
		k := kv.StateKey{Group: 1, Sub: uint64(i)}
		if err := cli.Put(k.Bytes(), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := cli.ScanRange(kv.StateKey{Group: 1, Sub: 2}, kv.StateKey{Group: 1, Sub: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("scan [2,5] = %d entries, want 4", len(entries))
	}
	for i, e := range entries {
		if e.Key.Sub != uint64(i+2) || string(e.Value) != fmt.Sprintf("v%d", i+2) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	snap, err := cli.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	got, err := kv.CollectIter(snap.Iter(kv.StateKey{}, kv.MaxStateKey))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("snapshot = %d entries, want 10", len(got))
	}
}

// Oversized requests are refused client-side with a typed error, without
// disturbing the pipeline.
func TestPipelineFrameTooLarge(t *testing.T) {
	_, cli, _ := startPipelinePair(t, PipelineOptions{})
	big := make([]byte, maxFrame+1)
	if err := cli.Put([]byte("k"), big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized Put = %v, want ErrFrameTooLarge", err)
	}
	if err := cli.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("pipeline unusable after refused frame: %v", err)
	}
}

func TestPipelineClientAfterClose(t *testing.T) {
	_, cli, _ := startPipelinePair(t, PipelineOptions{})
	if err := cli.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := cli.Put([]byte("k"), nil); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

// A server that swallows requests without answering: the read deadline
// must fail pending ops with a transient, outcome-unknown error instead
// of hanging all callers forever.
func TestPipelineTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
	cli, err := DialPipeline(ln.Addr().String(), PipelineOptions{
		Timeout: 20 * time.Millisecond,
		Redials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	err = cli.Put([]byte("k"), []byte("v"))
	if err == nil {
		t.Fatal("hung server should time out")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout too slow: %v", time.Since(start))
	}
	if !kv.Transient(err) || !kv.OutcomeUnknown(err) {
		t.Fatalf("timeout misclassified: transient=%v unknown=%v (%v)", kv.Transient(err), kv.OutcomeUnknown(err), err)
	}
}

// Depth must bound the in-flight window: with Depth=1 the pipeline
// degrades to serial request/response but still works.
func TestPipelineDepthOne(t *testing.T) {
	_, cli, _ := startPipelinePair(t, PipelineOptions{Depth: 1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("d1-w%d-%d", w, i))
				if err := cli.Put(k, []byte("v")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Backend errors and panics propagate per-request over the batch path
// without poisoning the connection.
func TestPipelineServerPanicRecovery(t *testing.T) {
	backing := &panicStore{memstore.New()}
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Merge([]byte("k"), []byte("x")); err == nil {
		t.Fatal("panicking op should error")
	}
	if err := cli.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("connection poisoned by panic: %v", err)
	}
	if v, err := cli.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

// reversingProxy relays connections to target and answers every batch
// with its responses in reverse order, so a caller holding the reader
// role completes other callers' requests before — or instead of — its
// own. The accept loop ends at test cleanup; each relay ends when either
// side hangs up.
func reversingProxy(t *testing.T, target string) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			go relayReversed(client, target)
		}
	}()
	return ln.Addr().String()
}

func relayReversed(client net.Conn, target string) {
	defer client.Close()
	server, err := net.Dial("tcp", target)
	if err != nil {
		return
	}
	defer server.Close()
	cr := bufio.NewReader(client)
	hello := make([]byte, helloLen)
	if _, err := io.ReadFull(cr, hello); err != nil {
		return
	}
	if _, err := server.Write(hello); err != nil {
		return
	}
	// One entry per forwarded batch; at most Depth ≤ maxPipelineDepth
	// batches are unanswered at once, so the sender never blocks.
	counts := make(chan int, maxPipelineDepth)
	go func() {
		defer close(counts)
		for {
			reqs, err := readBatch(cr)
			if err != nil {
				return
			}
			counts <- len(reqs)
			if _, err := server.Write(appendBatch(nil, reqs)); err != nil {
				return
			}
		}
	}()
	r, w := bufio.NewReader(server), bufio.NewWriter(client)
	for n := range counts {
		seqs := make([]uint64, n)
		rsps := make([]response, n)
		for i := range rsps {
			if seqs[i], rsps[i], err = readResponse(r, false); err != nil {
				return
			}
		}
		for i := n - 1; i >= 0; i-- {
			writeResponse(w, seqs[i], rsps[i], false)
		}
		if w.Flush() != nil {
			return
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to want:
// server handlers and proxy relays exit asynchronously once the client
// hangs up, and the client itself must have started none. (The count
// may end lower: an earlier test's handler can still have been exiting
// when want was taken.)
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before dialing:\n%s", got, want, buf[:runtime.Stack(buf, true)])
	}
}

// The writer and reader roles pass between concurrent callers while
// responses arrive out of order and connections die mid-frame: every op
// completes exactly once, every merge operand is applied exactly once,
// nothing stays in flight, and no goroutine outlives Close. Run it under
// -race -count=10 (see ci.sh).
func TestPipelineRoleHandoff(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()
	addr := reversingProxy(t, srv.Addr())

	budgets := make([]int, 24)
	for i := range budgets {
		budgets[i] = 40 + 97*i%600
	}
	before := runtime.NumGoroutine()
	cli, err := DialPipeline(addr, PipelineOptions{Dialer: flakyDialer(budgets), Redials: 40, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 60
	var completed [workers][perWorker]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("h%d", w%3)) // callers share keys
			for i := 0; i < perWorker; i++ {
				err := cli.Merge(key, []byte(fmt.Sprintf("<%d:%d>", w, i)))
				completed[w][i].Add(1)
				if err != nil {
					t.Errorf("Merge %d/%d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		cli.Close()
		return
	}
	for w := range completed {
		for i := range completed[w] {
			if n := completed[w][i].Load(); n != 1 {
				t.Fatalf("op %d/%d returned %d times", w, i, n)
			}
		}
	}
	var all strings.Builder
	for k := 0; k < 3; k++ {
		v, err := backing.Get([]byte(fmt.Sprintf("h%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		all.Write(v)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if n := strings.Count(all.String(), fmt.Sprintf("<%d:%d>", w, i)); n != 1 {
				t.Fatalf("operand <%d:%d> applied %d times", w, i, n)
			}
		}
	}
	m := cli.Metrics()
	if m["remote.inflight"] != 0 {
		t.Fatalf("remote.inflight = %d at quiesce", m["remote.inflight"])
	}
	if m["remote.redials"] == 0 {
		t.Fatal("test exercised no reconnects")
	}
	cli.Close()
	waitGoroutines(t, before)
}

// blockedReadConn reports the first Read it is asked to do.
type blockedReadConn struct {
	net.Conn
	once    sync.Once
	reading chan struct{}
}

func (b *blockedReadConn) Read(p []byte) (int, error) {
	b.once.Do(func() { close(b.reading) })
	return b.Conn.Read(p)
}

// Close must return a caller that holds the reader role and is blocked
// reading a connection whose server never answers, with kv.ErrClosed.
func TestPipelineCloseWakesReader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, conn) // swallow everything, answer nothing
				conn.Close()
			}()
		}
	}()
	before := runtime.NumGoroutine()
	conn := &blockedReadConn{reading: make(chan struct{})}
	cli, err := DialPipeline(ln.Addr().String(), PipelineOptions{
		Dialer: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			conn.Conn = c
			return conn, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- cli.Put([]byte("k"), []byte("v")) }()
	<-conn.reading
	cli.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, kv.ErrClosed) {
			t.Fatalf("blocked reader returned %v, want kv.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the reader blocked")
	}
	waitGoroutines(t, before)
}

// BenchmarkPipelinedRoundTrip is one 256-byte Get per iteration against
// a loopback memstore server. parallel shares a default-depth client
// between GOMAXPROCS callers, the shape the pipeline is built for.
// serial is one synchronous caller at Depth 1, which writes its own
// request and reads its own response: the lone-caller round trip, the
// floor every remote op pays.
func BenchmarkPipelinedRoundTrip(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts PipelineOptions
	}{
		{"parallel", PipelineOptions{}},
		{"serial", PipelineOptions{Depth: 1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			backing := memstore.New()
			srv, err := Serve(backing, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer func() { srv.Close(); backing.Close() }()
			cli, err := DialPipeline(srv.Addr(), mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			key := []byte("bench-key")
			val := make([]byte, 256)
			cli.Put(key, val)
			b.ResetTimer()
			b.ReportAllocs()
			if mode.name == "serial" {
				for i := 0; i < b.N; i++ {
					cli.Get(key)
				}
				return
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					cli.Get(key)
				}
			})
		})
	}
}
