package stores

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/obs"
	"gadget/internal/remote"
	"gadget/internal/shard"
	"gadget/internal/tracing"
)

// slowStore adds a fixed service time to every point operation, so a
// traced run has a dominant, known server-side latency component.
type slowStore struct {
	kv.Store
	d time.Duration
}

func (s *slowStore) Get(key []byte) ([]byte, error) {
	time.Sleep(s.d)
	return s.Store.Get(key)
}

func (s *slowStore) Put(key, value []byte) error {
	time.Sleep(s.d)
	return s.Store.Put(key, value)
}

func (s *slowStore) Merge(key, operand []byte) error {
	time.Sleep(s.d)
	return s.Store.Merge(key, operand)
}

func (s *slowStore) Delete(key []byte) error {
	time.Sleep(s.d)
	return s.Store.Delete(key)
}

// TestTracedStageSumCoversServiceLatency is the tracing acceptance
// check: for traced ops through the sharded remote path, the sum of the
// recorded per-stage durations must cover at least 90% of the measured
// end-to-end service latency. End-to-end time and stage stamps both
// come from the tracer's injectable clock (the default monotonic one
// here), so the comparison never mixes clock domains. The backing
// stores sleep ~500us per op, so untracked client-side overhead (encode,
// scheduler noise) stays well under the 10% allowance.
func TestTracedStageSumCoversServiceLatency(t *testing.T) {
	const shards = 2
	backs := make([]kv.Store, shards)
	for i := range backs {
		backs[i] = &slowStore{Store: memstore.New(), d: 500 * time.Microsecond}
		defer backs[i].Close()
	}
	srv, err := shard.Serve(backs, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := shard.Dial(srv.Addrs(), remote.PipelineOptions{Depth: 8, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	tr := tracing.New(tracing.Options{SampleN: 1, SlowK: 64})
	const ops = 40
	var sumStages, sumE2E int64
	for i := 0; i < ops; i++ {
		key := []byte(fmt.Sprintf("acc-%d", i))
		op := kv.TracedOp{Op: kv.OpPut, Key: key, Val: []byte("v")}
		if i%3 == 0 {
			op = kv.TracedOp{Op: kv.OpGet, Key: key}
		}
		tc := tr.Start(uint8(op.Op))
		if tc == nil {
			t.Fatal("SampleN=1 tracer must sample every op")
		}
		t0 := tc.Now()
		_, err := kv.DoTraced(cli, tc, op)
		e2e := tc.Now() - t0
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("op %d: %v", i, err)
		}
		if ss := tc.StageSum(); i > 0 { // skip op 0: first-dial handshake noise
			sumStages += ss
			sumE2E += e2e
		}
		for _, s := range []tracing.Stage{tracing.StageWire, tracing.StageServer} {
			if tc.Dur(s) <= 0 {
				t.Errorf("op %d: stage %s not recorded", i, s)
			}
		}
		tr.Finish(tc)
	}
	if t.Failed() {
		return
	}
	if sumE2E <= 0 {
		t.Fatalf("no end-to-end latency measured")
	}
	if frac := float64(sumStages) / float64(sumE2E); frac < 0.9 {
		t.Fatalf("stage durations cover %.1f%% of end-to-end latency, want >= 90%% (stages %v, e2e %v)",
			100*frac, time.Duration(sumStages), time.Duration(sumE2E))
	}
}

// TestTracedBareAddr opens the remote engine the plainest way — one
// bare addr, no remote section — with tracing on: the store must still
// negotiate trace trailers, so every sampled op records wire and server
// stages.
func TestTracedBareAddr(t *testing.T) {
	backing := memstore.New()
	defer backing.Close()
	srv, err := remote.Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s, err := Open(Config{Engine: "remote", Addr: srv.Addr(), Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr := tracing.New(tracing.Options{SampleN: 4, SlowK: 8})
	sampled := 0
	for i := 0; i < 64; i++ {
		op := kv.TracedOp{Op: kv.OpPut, Key: []byte(fmt.Sprintf("bare-%d", i)), Val: []byte("v")}
		tc := tr.Start(uint8(op.Op))
		if _, err := kv.DoTraced(s, tc, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if tc != nil {
			sampled++
			for _, st := range []tracing.Stage{tracing.StageWire, tracing.StageServer} {
				if tc.Dur(st) <= 0 {
					t.Errorf("op %d: stage %s not recorded", i, st)
				}
			}
		}
		tr.Finish(tc)
	}
	if sampled == 0 {
		t.Fatal("no op was sampled")
	}
}

// TestTracedReconnectExactlyOnce replays the connection-killing-dialer
// scenario with tracing enabled on every op: requests answered from the
// server's replay window after a reconnect must complete their trace
// exactly once. After quiescing, started == finished on the tracer
// (no leaked pooled contexts, no duplicate completion) and every merge
// operand is applied exactly once.
func TestTracedReconnectExactlyOnce(t *testing.T) {
	const shards = 2
	backs := make([]kv.Store, shards)
	for i := range backs {
		backs[i] = memstore.New()
		defer backs[i].Close()
	}
	srv, err := shard.Serve(backs, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var dialMu sync.Mutex
	dials := 0
	cli, err := shard.Dial(srv.Addrs(), remote.PipelineOptions{
		Depth:   8,
		Redials: 60,
		Traced:  true,
		Dialer: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dialMu.Lock()
			dials++
			budget := -1
			if dials%2 == 1 { // every other connection dies mid-stream
				budget = 200 + 53*dials%900
			}
			dialMu.Unlock()
			return &shardFlakyConn{Conn: conn, budget: budget}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	tr := tracing.New(tracing.Options{SampleN: 1, SlowK: 8})
	const workers, perWorker = 4, 80
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("txo-%d", w))
			for i := 0; i < perWorker; i++ {
				tc := tr.Start(uint8(kv.OpMerge))
				op := kv.TracedOp{Op: kv.OpMerge, Key: key, Val: []byte(fmt.Sprintf("<%d:%d>", w, i))}
				_, err := kv.DoTraced(cli, tc, op)
				tr.Finish(tc)
				if err != nil {
					t.Errorf("merge %d/%d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	started, finished := tr.Stats()
	if started != workers*perWorker {
		t.Fatalf("started %d traces, want %d", started, workers*perWorker)
	}
	if started != finished {
		t.Fatalf("trace leak or duplicate completion under reconnect replay: started=%d finished=%d", started, finished)
	}
	for w := 0; w < workers; w++ {
		key := []byte(fmt.Sprintf("txo-%d", w))
		var got []byte
		var err error
		for _, b := range backs {
			if v, gerr := b.Get(key); gerr == nil {
				got, err = v, nil
				break
			} else {
				err = gerr
			}
		}
		if err != nil {
			t.Fatalf("key txo-%d: %v", w, err)
		}
		for i := 0; i < perWorker; i++ {
			token := fmt.Sprintf("<%d:%d>", w, i)
			if n := strings.Count(string(got), token); n != 1 {
				t.Fatalf("operand %s applied %d times (duplicate or dropped merge under traced reconnect)", token, n)
			}
		}
	}
}

// TestShardServerExposesPerShardMetrics registers a sharded server with
// the obs registry exactly as gadget-server does and asserts the
// exposition carries every shard's metrics under its shard<i>. prefix.
func TestShardServerExposesPerShardMetrics(t *testing.T) {
	backs := []kv.Store{memstore.New(), memstore.New()}
	for _, b := range backs {
		defer b.Close()
	}
	srv, err := shard.Serve(backs, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := shard.Dial(srv.Addrs(), remote.PipelineOptions{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 32; i++ {
		if err := cli.Put([]byte(fmt.Sprintf("pm-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	obs.RegisterStoreCollector(reg, srv)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for i := range backs {
		prefix := fmt.Sprintf(`metric="shard%d.`, i)
		if !strings.Contains(out, prefix) {
			t.Fatalf("exposition has no %s samples:\n%s", prefix, out)
		}
	}
}
