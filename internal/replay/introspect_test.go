package replay

import (
	"strings"
	"testing"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/stats"
)

func TestResultStringEngineSummary(t *testing.T) {
	r := Result{
		Ops:     100,
		Latency: stats.NewHistogram(),
		Engine: map[string]int64{
			"lsm.compactions":  3,
			"lsm.cache_hits":   921,
			"lsm.cache_misses": 79,
			"lsm.stall_nanos":  15_000_000,
		},
	}
	s := r.String()
	for _, want := range []string{"compactions=3", "cache_hit=92.1%", "stall=15ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}

	r.Engine = nil
	if s := r.String(); strings.Contains(s, "[") {
		t.Errorf("String() without engine delta should have no summary block, got %q", s)
	}

	// A store exposing none of the summarized keys gets no block either.
	r.Engine = map[string]int64{"memstore.puts": 100}
	if s := r.String(); strings.Contains(s, "[") {
		t.Errorf("String() with non-LSM delta should have no summary block, got %q", s)
	}
}

func TestRunFillsEngineDelta(t *testing.T) {
	store := memstore.New()
	defer store.Close()
	var observed *Collector
	trace := make([]kv.Access, 50)
	for i := range trace {
		trace[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: 1, Sub: uint64(i)}, Size: 8}
	}
	res, err := Run(store, trace, Options{Observer: func(c *Collector) { observed = c }})
	if err != nil {
		t.Fatal(err)
	}
	if observed == nil {
		t.Fatal("Observer was not invoked")
	}
	if res.Engine["memstore.puts"] != 50 {
		t.Errorf("Engine delta = %v, want memstore.puts=50", res.Engine)
	}
	// A second run against the same store must report only its own delta.
	res2, err := Run(store, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Engine["memstore.puts"] != 50 {
		t.Errorf("second run engine delta = %v, want memstore.puts=50 (not cumulative)", res2.Engine)
	}
}

func TestMergeResults(t *testing.T) {
	h1, h2 := stats.NewHistogram(), stats.NewHistogram()
	h1.Record(100)
	h2.Record(200)
	a := Result{Ops: 10, Misses: 1, Errors: 2, TransientErrors: 2, Retries: 5, Duration: 100, Latency: h1}
	b := Result{Ops: 20, Misses: 3, Retries: 5, Degraded: true, Duration: 200, Latency: h2,
		Engine: map[string]int64{"memstore.puts": 30}}
	m := MergeResults([]Result{a, b})
	if m.Ops != 30 || m.Misses != 4 || m.Errors != 2 {
		t.Errorf("summed counters wrong: %+v", m)
	}
	if m.Retries != 5 {
		t.Errorf("Retries = %d, want max 5 (store-wide deltas must not double-count)", m.Retries)
	}
	if !m.Degraded {
		t.Error("Degraded must propagate")
	}
	if m.Duration != 200 {
		t.Errorf("Duration = %v, want the longest worker's 200", m.Duration)
	}
	if m.Latency.Count() != 2 {
		t.Errorf("merged latency count = %d, want 2", m.Latency.Count())
	}
	if m.Engine["memstore.puts"] != 30 {
		t.Errorf("Engine = %v, want carried through", m.Engine)
	}
}
