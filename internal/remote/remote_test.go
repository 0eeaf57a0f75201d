package remote

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gadget/internal/core"
	"gadget/internal/eventgen"
	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/replay"
)

// startPair serves a fresh memstore and dials it with Depth 1: one
// synchronous caller that writes its own request and reads its own
// response.
func startPair(t *testing.T) (*Server, *PipelinedClient, *memstore.Store) {
	t.Helper()
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); backing.Close() })
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli, backing
}

func TestBasicOps(t *testing.T) {
	_, cli, _ := startPair(t)
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

func TestEmptyKeysAndValues(t *testing.T) {
	_, cli, _ := startPair(t)
	if err := cli.Put(nil, nil); err != nil {
		t.Fatal(err)
	}
	if v, err := cli.Get(nil); err != nil || len(v) != 0 {
		t.Fatalf("empty key Get = %q, %v", v, err)
	}
}

func TestLargeValues(t *testing.T) {
	_, cli, _ := startPair(t)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := cli.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	v, err := cli.Get([]byte("big"))
	if err != nil || len(v) != len(big) {
		t.Fatalf("big Get len=%d err=%v", len(v), err)
	}
	for i := range v {
		if v[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

func TestManyClients(t *testing.T) {
	srv, _, _ := startPair(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("g%d-k%d", g, i))
				if err := cli.Put(k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, err := cli.Get(k); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Closing a client that never issued an operation fails every later
// operation, of every kind, with kv.ErrClosed.
func TestClientAfterClose(t *testing.T) {
	_, cli, _ := startPair(t)
	cli.Close()
	if err := cli.Put([]byte("k"), nil); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if _, err := cli.Get([]byte("k")); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("Get after close = %v", err)
	}
	if _, err := cli.ScanRange(kv.StateKey{}, kv.MaxStateKey); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("ScanRange after close = %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	srv, cli, _ := startPair(t)
	srv.Close()
	if err := cli.Put([]byte("k"), nil); err == nil {
		t.Fatal("put after server close should fail")
	}
}

func TestBackendErrorsPropagate(t *testing.T) {
	backing := memstore.New()
	backing.Close() // every op will error
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put([]byte("k"), nil); err == nil {
		t.Fatal("backend error should propagate")
	}
}

// The paper's external-state scenario: a full streaming workload driven
// through the remote store, concurrently from two operator instances.
func TestExternalStateWorkload(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()

	mkTrace := func(seed int64) []kv.Access {
		g, err := eventgen.NewSynthetic(eventgen.Config{Events: 2000, Keys: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		src := eventgen.WithWatermarks(g, 100, 0)
		op, err := core.New(core.Config{Operator: core.TumblingIncr, WindowLengthMs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		return core.Generate(src, op)
	}
	var wg sync.WaitGroup
	results := make([]replay.Result, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := DialPipeline(srv.Addr(), PipelineOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			res, err := replay.Run(cli, mkTrace(int64(i)), replay.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Ops == 0 || res.Errors != 0 {
			t.Fatalf("instance %d: %+v", i, res)
		}
	}
}

// flakyConn wraps a net.Conn and fails after a byte budget is spent
// across reads and writes, closing the underlying connection mid-frame.
type flakyConn struct {
	net.Conn
	mu     sync.Mutex
	budget int // bytes until injected failure; <0 = healthy
}

var errFlaky = errors.New("flaky conn: injected failure")

func (f *flakyConn) spend(n int) (allowed int, failed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.budget < 0 {
		return n, false
	}
	if n <= f.budget {
		f.budget -= n
		return n, false
	}
	allowed = f.budget
	f.budget = 0
	return allowed, true
}

func (f *flakyConn) Write(p []byte) (int, error) {
	allowed, failed := f.spend(len(p))
	if !failed {
		return f.Conn.Write(p)
	}
	// Mid-frame disconnect: part of the frame reaches the peer, then the
	// connection dies.
	if allowed > 0 {
		f.Conn.Write(p[:allowed])
	}
	f.Conn.Close()
	return allowed, errFlaky
}

func (f *flakyConn) Read(p []byte) (int, error) {
	f.mu.Lock()
	budget := f.budget
	f.mu.Unlock()
	if budget < 0 {
		return f.Conn.Read(p)
	}
	if budget == 0 {
		f.Conn.Close()
		return 0, errFlaky
	}
	// Serve at most the remaining budget so the failure lands mid-frame.
	if len(p) > budget {
		p = p[:budget]
	}
	n, err := f.Conn.Read(p)
	f.spend(n)
	return n, err
}

// flakyDialer returns a Dialer whose first len(budgets) connections fail
// after the given byte budgets; later connections are healthy.
func flakyDialer(budgets []int) func(addr string) (net.Conn, error) {
	var mu sync.Mutex
	i := 0
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		budget := -1
		if i < len(budgets) {
			budget = budgets[i]
			i++
		}
		return &flakyConn{Conn: conn, budget: budget}, nil
	}
}

// A single I/O error must not poison the connection: a lone caller —
// writer, reader and redialer at once — redials and the operation
// stream continues.
func TestClientSurvivesMidFrameDisconnect(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()

	// Budgets (bytes read plus written) kill connections during the
	// 13-byte hello, in the first Put's batch header (8 bytes) and in its
	// 17-byte record header, in its key, and in the response header.
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{
		Dialer:  flakyDialer([]int{5, 20, 30, 40, 50, 150}),
		Redials: 6,
		Depth:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if err := cli.Put(k, []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if v, err := cli.Get(k); err != nil || string(v) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("Get %d = %q, %v", i, v, err)
		}
	}
	if cli.Metrics()["remote.redials"] == 0 {
		t.Fatal("test exercised no reconnects")
	}
}

// Reconnect replay must be exactly-once: merges a lone caller drives
// through failing connections appear in the backing store exactly once
// each.
func TestReconnectReplayExactlyOnceMerges(t *testing.T) {
	backing := memstore.New()
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()

	// Fail the first 40 connections after a small budget, so many ops are
	// interrupted after the request was (fully or partially) sent.
	budgets := make([]int, 40)
	for i := range budgets {
		budgets[i] = 30 + 13*i%90
	}
	cli, err := DialPipeline(srv.Addr(), PipelineOptions{Dialer: flakyDialer(budgets), Redials: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	oracle := map[string]string{}
	key := func(i int) []byte { return []byte(fmt.Sprintf("m%d", i%7)) }
	for i := 0; i < 300; i++ {
		operand := fmt.Sprintf("<%d>", i)
		if err := cli.Merge(key(i), []byte(operand)); err != nil {
			t.Fatalf("Merge %d: %v", i, err)
		}
		k := string(key(i))
		oracle[k] += operand
	}
	for k, want := range oracle {
		got, err := backing.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("key %s: got %q, %v; want %q (duplicate or dropped merge)", k, got, err, want)
		}
	}
}

// Transient backend errors must cross the wire as retry-safe transient
// errors, and fatal ones as fatal.
func TestTransientStatusPropagation(t *testing.T) {
	backing := kv.NewChaosStore(memstore.New(), kv.ChaosPlan{Seed: 3, ErrorRate: 1.0})
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
	err = cli.Put([]byte("k"), []byte("v"))
	if err == nil {
		t.Fatal("chaos fault should surface")
	}
	if !kv.Transient(err) {
		t.Fatalf("injected fault crossed the wire as fatal: %v", err)
	}
	if kv.OutcomeUnknown(err) {
		t.Fatalf("statusTransient is fail-before-apply, not outcome-unknown: %v", err)
	}
}

// panicStore panics on Merge — the server must fail the request, not the
// connection.
type panicStore struct{ *memstore.Store }

func (p *panicStore) Merge(key, operand []byte) error { panic("merge exploded") }

// rawConn dials srv and sends a hello with the given version byte.
func rawConn(t *testing.T, srv *Server, version byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(appendHello(nil, version, 7)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// An engine panic inside a batch fails that request alone: the rest of
// the same batch is applied and answered, in order, on the same
// connection.
func TestServerPanicRecovery(t *testing.T) {
	backing := &panicStore{memstore.New()}
	srv, err := Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); backing.Close() }()
	conn := rawConn(t, srv, protoV3)
	batch := appendBatch(nil, []request{
		{seq: 1, op: opMerge, key: []byte("k"), val: []byte("x")},
		{seq: 2, op: opPut, key: []byte("k"), val: []byte("v")},
		{seq: 3, op: opGet, key: []byte("k")},
	})
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	want := []struct {
		status  byte
		payload string
	}{{statusError, "store panic: merge exploded"}, {statusOK, ""}, {statusOK, "v"}}
	for i, w := range want {
		seq, rsp, err := readResponse(r, false)
		if err != nil {
			t.Fatalf("response %d: %v (connection poisoned by panic)", i, err)
		}
		if seq != uint64(i+1) || rsp.status != w.status || !strings.Contains(string(rsp.payload), w.payload) {
			t.Fatalf("response %d = seq %d status %d %q, want seq %d status %d %q",
				i, seq, rsp.status, rsp.payload, i+1, w.status, w.payload)
		}
	}
}

// A batch frame declaring a payload over maxFrame is refused before any
// of it is read: the server counts it, drops the connection without
// answering, applies nothing, and keeps serving other clients.
func TestFrameTooLarge(t *testing.T) {
	srv, cli, backing := startPair(t)
	conn := rawConn(t, srv, protoV3)
	if _, err := conn.Write(appendBatchHeader(nil, 1, maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 16)); n != 0 || err == nil {
		t.Fatalf("server answered an oversized batch: %d bytes, %v", n, err)
	}
	if got := srv.Metrics()["remote_server.oversized"]; got != 1 {
		t.Fatalf("remote_server.oversized = %d, want 1", got)
	}
	if backing.Len() != 0 {
		t.Fatal("oversized batch applied something")
	}
	if err := cli.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("server unusable after refused frame: %v", err)
	}
}

// A garbage client, and a well-formed hello naming the retired protocol
// version 2, must be dropped without an answer and without applying
// anything, and without disturbing the server.
func TestServerRejectsBadHello(t *testing.T) {
	srv, cli, backing := startPair(t)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("GET / HTTP/1.1\r\n\r\n garbage garbage"))
	buf := make([]byte, 16)
	raw.SetReadDeadline(time.Now().Add(time.Second))
	if n, _ := raw.Read(buf); n != 0 {
		t.Fatalf("server answered a bad hello with %d bytes", n)
	}
	raw.Close()

	v2 := rawConn(t, srv, 2)
	// A version-2 request record (one request per frame, no batch header).
	v2.Write(appendRequest(nil, request{seq: 1, op: opPut, key: []byte("v2"), val: []byte("x")}))
	if n, err := v2.Read(buf); n != 0 || err == nil {
		t.Fatalf("server answered a version-2 hello: %d bytes, %v", n, err)
	}
	if _, err := backing.Get([]byte("v2")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("version-2 request was applied: %v", err)
	}
	// Real clients are unaffected.
	if err := cli.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// The write deadline turns a server that stops reading into a
// transient, outcome-unknown error instead of a writer blocked forever:
// the value is larger than loopback socket buffers absorb, so the
// caller holding the writer role is the one that sees each connection
// break, and redials until the budget is spent.
func TestClientTimeout(t *testing.T) {
	// A listener that accepts and then never reads (after the hello).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var held []net.Conn
	var mu sync.Mutex
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	cli, err := DialPipeline(ln.Addr().String(), PipelineOptions{Timeout: 20 * time.Millisecond, Redials: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	err = cli.Put([]byte("k"), make([]byte, 8<<20))
	if err == nil {
		t.Fatal("a server that never reads should time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("timeout too slow: %v", time.Since(start))
	}
	if !kv.Transient(err) || !kv.OutcomeUnknown(err) {
		t.Fatalf("timeout misclassified: transient=%v unknown=%v (%v)", kv.Transient(err), kv.OutcomeUnknown(err), err)
	}
	if got := cli.Metrics()["remote.failures"]; got != 1 {
		t.Fatalf("remote.failures = %d, want 1", got)
	}
}
