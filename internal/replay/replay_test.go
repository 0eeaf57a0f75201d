package replay

import (
	"sort"
	"testing"
	"time"

	"gadget/internal/kv"
	"gadget/internal/memstore"
)

func mkTrace() []kv.Access {
	k := kv.StateKey{Group: 1, Sub: 2}
	return []kv.Access{
		{Op: kv.OpGet, Key: k}, // miss
		{Op: kv.OpPut, Key: k, Size: 10},
		{Op: kv.OpGet, Key: k}, // hit
		{Op: kv.OpMerge, Key: k, Size: 5},
		{Op: kv.OpFGet, Key: k},
		{Op: kv.OpDelete, Key: k},
		{Op: kv.OpGet, Key: k}, // miss again
	}
}

func TestRunBasics(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	res, err := Run(st, mkTrace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 7 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Misses != 2 {
		t.Fatalf("misses = %d", res.Misses)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
	if res.Latency.Count() != 7 {
		t.Fatalf("latency samples = %d", res.Latency.Count())
	}
	if res.PerOp[kv.OpGet].Count() != 3 {
		t.Fatalf("get samples = %d", res.PerOp[kv.OpGet].Count())
	}
	// Each op is recorded once, per op; Latency is their merge.
	var n uint64
	var sum float64
	for _, h := range res.PerOp {
		n += h.Count()
		sum += h.Sum()
	}
	if n != res.Latency.Count() || sum != res.Latency.Sum() {
		t.Fatalf("per-op histograms hold %d samples summing to %v, Latency %d summing to %v", n, sum, res.Latency.Count(), res.Latency.Sum())
	}
	if res.String() == "" || res.MeanMicros() < 0 || res.P99Micros() < 0 || res.P999Micros() < 0 {
		t.Fatal("result accessors broken")
	}
}

func TestApplySemantics(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	var buf [kv.KeyLen]byte
	k := kv.StateKey{Group: 9, Sub: 9}
	Apply(st, nil, kv.Access{Op: kv.OpPut, Key: k, Size: 16}, buf[:])
	Apply(st, nil, kv.Access{Op: kv.OpMerge, Key: k, Size: 8}, buf[:])
	v, err := st.Get(k.Bytes())
	if err != nil || len(v) != 24 {
		t.Fatalf("value len = %d, %v", len(v), err)
	}
	// Values are deterministic pseudo-bytes.
	if v[0] != valuePool[0] {
		t.Fatal("value bytes not from the pool")
	}
	if _, err := Apply(st, nil, kv.Access{Op: kv.Op(200), Key: k}, buf[:]); err == nil {
		t.Fatal("unknown op should error")
	}
}

func TestValueOf(t *testing.T) {
	if valueOf(0) != nil {
		t.Fatal("size 0 should be nil")
	}
	if len(valueOf(100)) != 100 {
		t.Fatal("size mismatch")
	}
	if len(valueOf(1<<30)) != len(valuePool) {
		t.Fatal("oversized value should clamp to pool")
	}
}

func TestSampling(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	trace := make([]kv.Access, 1000)
	for i := range trace {
		trace[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: uint64(i)}, Size: 8}
	}
	res, err := Run(st, trace, Options{SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() != 100 {
		t.Fatalf("sampled latencies = %d, want 100", res.Latency.Count())
	}
	if res.Ops != 1000 {
		t.Fatalf("ops = %d", res.Ops)
	}
}

// timedStore records when each Put was called.
type timedStore struct {
	*memstore.Store
	calls []time.Time
}

func (s *timedStore) Put(key, value []byte) error {
	s.calls = append(s.calls, time.Now())
	return s.Store.Put(key, value)
}

// TestServiceRate checks that a paced run takes the time its rate
// implies and that the store sees the pacing gap between ops. At 20k
// ops/s the 50µs gap is far below what a sleep resolves: released in
// timer-quantum bursts the run still ends on time, but the median gap
// the store sees collapses to nothing.
func TestServiceRate(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		ops  int
	}{{1000, 50}, {20_000, 2000}} {
		st := &timedStore{Store: memstore.New()}
		trace := make([]kv.Access, tc.ops)
		for i := range trace {
			trace[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: uint64(i)}, Size: 8}
		}
		res, err := Run(st, trace, Options{ServiceRate: tc.rate})
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := time.Duration(float64(tc.ops) / tc.rate * float64(time.Second))
		if res.Duration < want*9/10 || res.Duration > want*11/10 {
			t.Fatalf("%d ops at %v/s took %v, want %v within 10%%", tc.ops, tc.rate, res.Duration, want)
		}
		gaps := make([]time.Duration, 0, tc.ops-1)
		for i := 1; i < len(st.calls); i++ {
			gaps = append(gaps, st.calls[i].Sub(st.calls[i-1]))
		}
		sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
		gap := want / time.Duration(tc.ops)
		if med := gaps[len(gaps)/2]; med < gap/2 || med > 2*gap {
			t.Fatalf("%v ops/s: median gap between ops %v, want about %v", tc.rate, med, gap)
		}
	}
}

func TestRunConcurrent(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	mk := func(group uint64) []kv.Access {
		out := make([]kv.Access, 2000)
		for i := range out {
			out[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: group, Sub: uint64(i)}, Size: 8}
		}
		return out
	}
	results, err := RunConcurrent(st, [][]kv.Access{mk(1), mk(2)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Ops != 2000 || results[1].Ops != 2000 {
		t.Fatalf("results = %+v", results)
	}
}

func TestErrorsSurfaceAfterThreshold(t *testing.T) {
	st := memstore.New()
	st.Close() // closed store: every op errors
	trace := make([]kv.Access, 200)
	for i := range trace {
		trace[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: uint64(i)}}
	}
	if _, err := Run(st, trace, Options{}); err == nil {
		t.Fatal("expected error from closed store")
	}
}

func TestEmptyTrace(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	res, err := Run(st, nil, Options{})
	if err != nil || res.Ops != 0 {
		t.Fatalf("res = %+v, %v", res, err)
	}
}

func TestOptionsValidation(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	bad := []Options{
		{ServiceRate: -1},
		{SampleEvery: -5},
		{StallTimeout: -time.Second},
		// Stall timeout inside the pacing gap would always fire.
		{ServiceRate: 10, StallTimeout: 50 * time.Millisecond},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("options %d should be invalid: %+v", i, o)
		}
		if _, err := Run(st, mkTrace(), o); err == nil {
			t.Errorf("Run accepted invalid options %d", i)
		}
	}
	good := []Options{
		{},
		{ServiceRate: 1e6, SampleEvery: 10},
		{ServiceRate: 1e4, StallTimeout: time.Second},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("options %d should be valid: %v", i, err)
		}
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	trace := make([]kv.Access, 500)
	for i := range trace {
		trace[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: uint64(i)}, Size: 8}
	}
	res, err := Run(st, trace, Options{StallTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Ops != 500 {
		t.Fatalf("healthy run degraded: %+v", res)
	}
}

func TestErrorClassification(t *testing.T) {
	// A chaos-wrapped store with retries disabled surfaces transient
	// errors, which must be classified as such and not abort the run.
	st := kv.NewChaosStore(memstore.New(), kv.ChaosPlan{Seed: 7, ErrorRate: 0.3})
	defer st.Close()
	trace := make([]kv.Access, 1000)
	for i := range trace {
		trace[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: uint64(i)}, Size: 8}
	}
	res, err := Run(st, trace, Options{})
	if err != nil {
		t.Fatalf("transient errors must not abort: %v", err)
	}
	if res.TransientErrors == 0 || res.FatalErrors != 0 {
		t.Fatalf("classification: %+v", res)
	}
	if res.Errors != res.TransientErrors {
		t.Fatalf("Errors %d != TransientErrors %d", res.Errors, res.TransientErrors)
	}
}

// A store that fails every op transiently (a dead remote server) must
// abort the run promptly once the unbroken streak hits the limit,
// instead of grinding through the whole trace.
func TestConsecutiveTransientErrorsAbort(t *testing.T) {
	st := kv.NewChaosStore(memstore.New(), kv.ChaosPlan{Seed: 3, ErrorRate: 1.0})
	defer st.Close()
	trace := make([]kv.Access, 10*transientStreakLimit)
	for i := range trace {
		trace[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: uint64(i)}, Size: 8}
	}
	res, err := Run(st, trace, Options{})
	if err == nil {
		t.Fatal("persistently failing store must abort the run")
	}
	if !res.Degraded {
		t.Fatalf("aborted run not tagged degraded: %+v", res)
	}
	if res.Ops > transientStreakLimit+1 {
		t.Fatalf("run ground through %d ops past the streak limit", res.Ops)
	}
}

// The resilience counts in a Result are the "resilient.*" movement of
// its Engine delta, however deep the ResilientStore sits: a wrapper over
// it (here a fault-free ChaosStore) must not hide them.
func TestResilienceCountersThroughAnyStack(t *testing.T) {
	faulty := kv.NewChaosStore(memstore.New(), kv.ChaosPlan{
		Seed: 5, ErrorRate: 0.2, LatencyRate: 0.02, Latency: 2 * time.Millisecond,
	})
	rs, err := kv.NewResilientStore(faulty, kv.ResilienceOptions{
		OpTimeout: time.Millisecond, MaxRetries: 2,
		BackoffBase: 5 * time.Microsecond, BackoffMax: 20 * time.Microsecond,
		BreakerThreshold: 3, BreakerCooldown: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := kv.NewChaosStore(rs, kv.ChaosPlan{Seed: 6})
	defer store.Close()
	trace := make([]kv.Access, 1000)
	for i := range trace {
		trace[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: uint64(i % 50)}, Size: 8}
	}
	res, err := Run(store, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key string
		got uint64
	}{
		{"resilient.retries", res.Retries},
		{"resilient.timeouts", res.Timeouts},
		{"resilient.breaker_trips", res.BreakerTrips},
		{"resilient.degraded_ops", res.DegradedOps},
	} {
		if want := res.Engine[c.key]; want <= 0 || c.got != uint64(want) {
			t.Errorf("Result reports %d, Engine[%q] = %d: want equal and positive", c.got, c.key, want)
		}
	}
}

func TestResultReportsResilienceCounters(t *testing.T) {
	chaos := kv.NewChaosStore(memstore.New(), kv.ChaosPlan{Seed: 11, ErrorRate: 0.1})
	rs, err := kv.NewResilientStore(chaos, kv.ResilienceOptions{
		MaxRetries: 8, BackoffBase: 5 * time.Microsecond, BackoffMax: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	trace := make([]kv.Access, 2000)
	for i := range trace {
		trace[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: uint64(i % 50)}, Size: 8}
	}
	res, err := Run(rs, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Fatalf("retries not reported: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("retries should have absorbed all faults: %+v", res)
	}
	// A second run reports only its own delta.
	res2, err := Run(rs, trace[:100], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Retries >= res.Retries+100 {
		t.Fatalf("second run delta implausible: %d after %d", res2.Retries, res.Retries)
	}
}
