package gadget

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"gadget/internal/eventgen"
	"gadget/internal/remote"
)

func smallCfg(op OperatorType) Config {
	return Config{
		Source: SourceConfig{Events: 2000, Keys: 50, Seed: 1, RatePerSec: 2000, WatermarkEvery: 100},
		Operator: OperatorConfig{
			Operator: op, WindowLengthMs: 1000, WindowSlideMs: 200, SessionGapMs: 500,
			IntervalLowerMs: 300, IntervalUpperMs: 600,
		},
		Store: StoreConfig{Engine: "memstore"},
	}
}

func TestWorkloadGenerate(t *testing.T) {
	w, err := NewWorkload(smallCfg(TumblingIncr))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 4000 {
		t.Fatalf("trace len = %d", len(trace))
	}
	// Deterministic: generating twice yields the same stream.
	trace2, _ := w.Generate()
	if len(trace) != len(trace2) {
		t.Fatal("non-deterministic generation")
	}
	for i := range trace {
		if trace[i] != trace2[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestRunOnlineAllEngines(t *testing.T) {
	backing, err := OpenStore(StoreConfig{Engine: "memstore"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := remote.Serve(backing, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); backing.Close() })
	for _, engine := range Engines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			cfg := smallCfg(SlidingHol)
			cfg.Store = StoreConfig{Engine: engine, Dir: t.TempDir(), Addr: srv.Addr()}
			w, err := NewWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			store, err := OpenStore(cfg.Store)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			res, err := w.RunOnline(store, ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 || res.Errors != 0 {
				t.Fatalf("result = %+v", res)
			}
		})
	}
}

func TestOpenStoreUnknown(t *testing.T) {
	if _, err := OpenStore(StoreConfig{Engine: "nope"}); err == nil {
		t.Fatal("unknown engine should fail")
	}
}

func TestTraceRoundTripAndReplay(t *testing.T) {
	w, _ := NewWorkload(smallCfg(Aggregation))
	trace, _ := w.Generate()
	path := filepath.Join(t.TempDir(), "agg.trace")
	if err := WriteTrace(path, trace); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTrace(path)
	if err != nil || len(loaded) != len(trace) {
		t.Fatalf("loaded %d, %v", len(loaded), err)
	}
	store, _ := OpenStore(StoreConfig{Engine: "memstore"})
	defer store.Close()
	res, err := Replay(store, loaded, ReplayOptions{})
	if err != nil || res.Ops != uint64(len(trace)) {
		t.Fatalf("replay = %+v, %v", res, err)
	}
}

// Offline generate-then-replay and online runs apply identical accesses.
func TestOnlineOfflineEquivalence(t *testing.T) {
	cfg := smallCfg(SessionIncr)
	w, _ := NewWorkload(cfg)
	trace, _ := w.Generate()

	offline, _ := OpenStore(StoreConfig{Engine: "memstore"})
	defer offline.Close()
	if _, err := Replay(offline, trace, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	online, _ := OpenStore(StoreConfig{Engine: "memstore"})
	defer online.Close()
	res, err := w.RunOnline(online, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != uint64(len(trace)) {
		t.Fatalf("online ops %d != offline %d", res.Ops, len(trace))
	}
}

func TestCollectReferenceTrace(t *testing.T) {
	w, _ := NewWorkload(smallCfg(TumblingIncr))
	ref, err := w.CollectReferenceTrace()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := w.Generate()
	if len(ref) != len(sim) {
		t.Fatalf("reference %d vs gadget %d", len(ref), len(sim))
	}
}

func TestAnalyze(t *testing.T) {
	w, _ := NewWorkload(smallCfg(TumblingIncr))
	trace, _ := w.Generate()
	a := Analyze(trace)
	if a.GetShare <= 0.4 || a.GetShare >= 0.6 {
		t.Fatalf("get share = %v", a.GetShare)
	}
	if a.DeleteShare <= 0 || a.DistinctKeys == 0 || a.MaxWorkingSet == 0 {
		t.Fatalf("analysis = %+v", a)
	}
	if a.TTL.Count == 0 {
		t.Fatal("no TTL samples")
	}
}

func TestDataset(t *testing.T) {
	ds, err := Dataset("taxi", 0.001, 1)
	if err != nil || ds.Name != "taxi" {
		t.Fatalf("dataset = %+v, %v", ds, err)
	}
	if _, err := Dataset("nope", 1, 1); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

func TestReplayConcurrentSharedStore(t *testing.T) {
	w1, _ := NewWorkload(smallCfg(SlidingIncr))
	w2, _ := NewWorkload(smallCfg(SlidingHol))
	t1, _ := w1.Generate()
	t2, _ := w2.Generate()
	store, _ := OpenStore(StoreConfig{Engine: "rocksdb", Dir: t.TempDir()})
	defer store.Close()
	results, err := ReplayConcurrent(store, [][]Access{t1, t2}, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Ops == 0 || results[1].Ops == 0 {
		t.Fatalf("results = %+v", results)
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{"operator": {"type": "aggregation"}}`))
	if err != nil || cfg.Operator.Operator != Aggregation {
		t.Fatalf("cfg = %+v, %v", cfg, err)
	}
}

func TestRunPartitioned(t *testing.T) {
	cfg := smallCfg(TumblingIncr)
	w, err := NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per-instance stores: key-disjoint partitions never conflict.
	stores := make([]Store, 3)
	for i := range stores {
		s, err := OpenStore(StoreConfig{Engine: "memstore"})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		stores[i] = s
	}
	results, err := w.RunPartitioned(stores, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i, res := range results {
		if res.Errors != 0 {
			t.Fatalf("instance %d errors = %d", i, res.Errors)
		}
		total += res.Ops
	}
	// The partitioned instances together apply exactly the accesses a
	// single instance would (tumbling windows are key-local).
	single, _ := w.Generate()
	if total != uint64(len(single)) {
		t.Fatalf("partitioned ops %d != single-instance %d", total, len(single))
	}
	// Shared-store co-location also works (the §6.4 scenario).
	shared, _ := OpenStore(StoreConfig{Engine: "rocksdb", Dir: t.TempDir()})
	defer shared.Close()
	if _, err := w.RunPartitioned([]Store{shared, shared}, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
}

// failingStore errors on every operation, counting the attempts.
type failingStore struct {
	mu    sync.Mutex
	calls int
}

func (f *failingStore) bump() error {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return errors.New("injected store failure")
}

func (f *failingStore) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *failingStore) Get(key []byte) ([]byte, error)  { return nil, f.bump() }
func (f *failingStore) Put(key, value []byte) error     { return f.bump() }
func (f *failingStore) Merge(key, operand []byte) error { return f.bump() }
func (f *failingStore) Delete(key []byte) error         { return f.bump() }
func (f *failingStore) Close() error                    { return nil }

// A persistently failing store must abort the run early: once the
// evaluator gives up, event generation stops instead of grinding
// through the rest of the workload.
func TestRunOnlineStopsOnFailingStore(t *testing.T) {
	w, err := NewWorkload(smallCfg(TumblingIncr))
	if err != nil {
		t.Fatal(err)
	}
	full, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	st := &failingStore{}
	if _, err := w.RunOnline(st, ReplayOptions{}); err == nil {
		t.Fatal("RunOnline with a failing store should report an error")
	}
	// The evaluator tolerates ~100 errors before giving up; after that no
	// further accesses should be issued.
	if st.count() >= len(full)/2 {
		t.Fatalf("run was not cut short: %d of %d accesses issued", st.count(), len(full))
	}
}

func TestRunPartitionedStopsOnFailingStore(t *testing.T) {
	w, err := NewWorkload(smallCfg(TumblingIncr))
	if err != nil {
		t.Fatal(err)
	}
	full, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	st := &failingStore{}
	if _, err := w.RunPartitioned([]Store{st, st}, ReplayOptions{}); err == nil {
		t.Fatal("RunPartitioned with a failing store should report an error")
	}
	if st.count() >= len(full)/2 {
		t.Fatalf("run was not cut short: %d of %d accesses issued", st.count(), len(full))
	}
}

// countingSource counts the items pulled from the source it wraps.
type countingSource struct {
	EventSource
	pulled int
}

func (s *countingSource) Next() (eventgen.Item, bool) {
	s.pulled++
	return s.EventSource.Next()
}

// A custom operator's run gives up on a failing store like a built-in
// one: generation stops once the evaluator's fatal-error limit (100)
// trips, instead of draining the whole source.
func TestRunCustomOnlineStopsOnFailingStore(t *testing.T) {
	cfg := smallCfg(TumblingIncr)
	cfg.Source.Events = 20000
	src, err := NewEventSource(cfg.Source, false)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(cfg.Operator)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingSource{EventSource: src}
	if _, err := RunCustomOnline(counted, op, &failingStore{}, ReplayOptions{}); err == nil {
		t.Fatal("RunCustomOnline with a failing store should report an error")
	}
	if counted.pulled > 1000 {
		t.Fatalf("run was not cut short: %d source items pulled for a 100-error limit", counted.pulled)
	}
}
