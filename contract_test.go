package gadget

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gadget/internal/replay"
)

// gate counts the operations its stores complete. With a positive limit
// it holds every operation past the first limit until release closes.
type gate struct {
	limit   int64
	started atomic.Int64
	done    atomic.Int64
	release chan struct{}
}

func (g *gate) enter() {
	if g.started.Add(1) > g.limit && g.limit > 0 {
		<-g.release
	}
}

// gatedStore routes every operation of a memstore through a gate.
type gatedStore struct {
	Store
	g *gate
}

func (s gatedStore) Get(key []byte) ([]byte, error) {
	s.g.enter()
	defer s.g.done.Add(1)
	return s.Store.Get(key)
}

func (s gatedStore) Put(key, value []byte) error {
	s.g.enter()
	defer s.g.done.Add(1)
	return s.Store.Put(key, value)
}

func (s gatedStore) Merge(key, operand []byte) error {
	s.g.enter()
	defer s.g.done.Add(1)
	return s.Store.Merge(key, operand)
}

func (s gatedStore) Delete(key []byte) error {
	s.g.enter()
	defer s.g.done.Add(1)
	return s.Store.Delete(key)
}

// observed records every collector a run hands its Observer, with the
// number of operations the collector had applied at that moment.
type observed struct {
	mu    sync.Mutex
	calls map[*replay.Collector]int
	early bool // a collector was handed over after its first op
}

func (o *observed) observe(c *replay.Collector) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls[c]++
	o.early = o.early || c.Snapshot().Ops != 0
}

// check asserts the Observer contract: every collector of the run, and
// only those, handed over exactly once, before its first op. A run has
// one collector per result plus one per recovery, and the observed
// collectors must account for every op in results.
func (o *observed) check(t *testing.T, results []Result) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	var ops, want uint64
	cols := uint64(len(results))
	for _, r := range results {
		want += r.Ops
		cols += r.Recoveries
	}
	if uint64(len(o.calls)) != cols {
		t.Errorf("Observer saw %d collectors, want %d", len(o.calls), cols)
	}
	for c, n := range o.calls {
		if n != 1 {
			t.Errorf("Observer called %d times for one collector, want 1", n)
		}
		ops += c.Snapshot().Ops
	}
	if ops != want {
		t.Errorf("observed collectors applied %d ops, results report %d", ops, want)
	}
	if o.early {
		t.Error("Observer was handed a collector after its first op")
	}
}

// entryPoint drives the contract workload through one public entry
// point. newStore opens a fresh gated memstore per call; the last one
// opened holds the final state.
type entryPoint struct {
	name    string
	workers int // results the run returns
	run     func(newStore func() Store, opts ReplayOptions) ([]Result, error)
}

func entryPoints(t *testing.T) []entryPoint {
	cfg := smallCfg(TumblingIncr)
	w, err := NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Key-disjoint halves keep every key's accesses in trace order, so
	// the concurrent replay ends in the sequential replay's state.
	halves := make([][]Access, 2)
	for _, a := range trace {
		halves[a.Key.Group%2] = append(halves[a.Key.Group%2], a)
	}
	one := func(r Result, err error) ([]Result, error) { return []Result{r}, err }
	return []entryPoint{
		{"Replay", 1, func(newStore func() Store, opts ReplayOptions) ([]Result, error) {
			return one(Replay(newStore(), trace, opts))
		}},
		{"ReplayConcurrent", 2, func(newStore func() Store, opts ReplayOptions) ([]Result, error) {
			return ReplayConcurrent(newStore(), halves, opts)
		}},
		{"ReplayOpenLoop", 1, func(newStore func() Store, opts ReplayOptions) ([]Result, error) {
			return one(ReplayOpenLoop(newStore(), trace, OpenLoopOptions{
				Rate: 1e6, SampleEvery: opts.SampleEvery, StallTimeout: opts.StallTimeout, Observer: opts.Observer,
			}))
		}},
		{"RunOnline", 1, func(newStore func() Store, opts ReplayOptions) ([]Result, error) {
			return one(w.RunOnline(newStore(), opts))
		}},
		{"RunPartitioned", 2, func(newStore func() Store, opts ReplayOptions) ([]Result, error) {
			st := newStore()
			return w.RunPartitioned([]Store{st, st}, opts)
		}},
		{"RunCustomOnline", 1, func(newStore func() Store, opts ReplayOptions) ([]Result, error) {
			src, err := NewEventSource(cfg.Source, false)
			if err != nil {
				return nil, err
			}
			op, err := NewOperator(cfg.Operator)
			if err != nil {
				return nil, err
			}
			return one(RunCustomOnline(src, op, newStore(), opts))
		}},
		{"RunWithRecovery", 1, func(newStore func() Store, opts ReplayOptions) ([]Result, error) {
			// Crash after 20 ops and recover by full replay into a fresh store.
			return one(RunWithRecovery(func(int) (Attempt, error) {
				return Attempt{Store: newStore()}, nil
			}, trace, RecoveryOptions{Options: opts, CrashAtOps: []uint64{20}}))
		}},
	}
}

// stateDigest hashes a store's final state.
func stateDigest(t *testing.T, s Store) uint64 {
	t.Helper()
	entries, err := ScanAll(s)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, e := range entries {
		h.Write(e.Key.Encode(nil))
		h.Write(e.Value)
	}
	return h.Sum64()
}

// TestEntryPointContract holds every public run entry point to one
// contract: the final state and op count of a sequential Replay of the
// same trace, the Observer handed each collector once before its first
// op, and — on a store that blocks — ErrStalled with Degraded partial
// results that count exactly the ops that completed.
func TestEntryPointContract(t *testing.T) {
	w, err := NewWorkload(smallCfg(TumblingIncr))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := OpenStore(StoreConfig{Engine: "memstore"})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refRes, err := Replay(ref, trace, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refDigest := stateDigest(t, ref)

	for _, ep := range entryPoints(t) {
		t.Run(ep.name, func(t *testing.T) {
			// mk opens gated memstores sharing g; last is the newest.
			var last Store
			mk := func(g *gate) func() Store {
				return func() Store {
					s, err := OpenStore(StoreConfig{Engine: "memstore"})
					if err != nil {
						panic(err)
					}
					t.Cleanup(func() { s.Close() })
					last = s
					return gatedStore{Store: s, g: g}
				}
			}

			for _, stall := range []time.Duration{0, time.Second} {
				obs := &observed{calls: map[*replay.Collector]int{}}
				results, err := ep.run(mk(&gate{}), ReplayOptions{StallTimeout: stall, Observer: obs.observe})
				if err != nil {
					t.Fatalf("stall timeout %v: %v", stall, err)
				}
				var ops uint64
				for _, r := range results {
					if r.Degraded {
						t.Fatalf("stall timeout %v: healthy run tagged Degraded", stall)
					}
					ops += r.Ops - r.ReplayedOps
				}
				if ops != refRes.Ops {
					t.Errorf("stall timeout %v: %d ops, Replay applied %d", stall, ops, refRes.Ops)
				}
				if got := stateDigest(t, last); got != refDigest {
					t.Errorf("stall timeout %v: final state differs from Replay's", stall)
				}
				if len(results) != ep.workers {
					t.Fatalf("stall timeout %v: %d results, want %d", stall, len(results), ep.workers)
				}
				obs.check(t, results)
			}

			g := &gate{limit: 50, release: make(chan struct{})}
			defer close(g.release)
			obs := &observed{calls: map[*replay.Collector]int{}}
			type outcome struct {
				results []Result
				err     error
			}
			done := make(chan outcome, 1)
			go func() {
				results, err := ep.run(mk(g), ReplayOptions{StallTimeout: 30 * time.Millisecond, Observer: obs.observe})
				done <- outcome{results, err}
			}()
			var out outcome
			select {
			case out = <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("blocked run still running after 2s: the watchdog did not fire")
			}
			if !errors.Is(out.err, ErrStalled) {
				t.Fatalf("err = %v, want ErrStalled", out.err)
			}
			if len(out.results) != ep.workers {
				t.Fatalf("%d partial results, want %d", len(out.results), ep.workers)
			}
			var ops uint64
			for i, r := range out.results {
				if !r.Degraded {
					t.Errorf("partial result %d not tagged Degraded", i)
				}
				if r.IntendedLatency != nil && r.Offered < r.Ops {
					t.Errorf("partial result %d: offered %d < ops %d", i, r.Offered, r.Ops)
				}
				ops += r.Ops
			}
			if completed := uint64(g.done.Load()); ops != completed || completed != uint64(g.limit) {
				t.Errorf("partial results count %d ops; the store completed %d of the %d it let through", ops, completed, g.limit)
			}
			obs.check(t, out.results)
		})
	}
}
