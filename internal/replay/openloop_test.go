package replay

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gadget/internal/dist"
	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/stats"
	"gadget/internal/tracing"
)

// simClock is a fake Clock: Sleep advances time instead of waiting, so
// schedule and accounting tests run instantly and deterministically.
type simClock struct {
	mu  sync.Mutex
	now time.Time
}

func newSimClock() *simClock { return &simClock{now: time.Unix(1000, 0)} }

func (s *simClock) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

func (s *simClock) Sleep(d time.Duration) {
	if d > 0 {
		s.Advance(d)
	}
}

func (s *simClock) Advance(d time.Duration) {
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
}

func putTrace(n int) []kv.Access {
	out := make([]kv.Access, n)
	for i := range out {
		out[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: uint64(i % 64), Sub: uint64(i)}, Size: 8}
	}
	return out
}

func TestOpenLoopBasic(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	trace := putTrace(500)
	res, err := RunOpenLoop(st, trace, OpenLoopOptions{Rate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 500 || res.Offered != 500 {
		t.Fatalf("ops=%d offered=%d, want 500/500", res.Ops, res.Offered)
	}
	if res.Degraded {
		t.Fatal("healthy open-loop run tagged Degraded")
	}
	if res.OfferedRate <= 0 || res.AchievedRate <= 0 {
		t.Fatalf("rates not computed: %+v", res)
	}
	if res.AchievedRate != res.Throughput {
		t.Fatalf("achieved %v != throughput %v", res.AchievedRate, res.Throughput)
	}
	if res.IntendedLatency == nil || res.IntendedLatency.Count() != 500 {
		t.Fatalf("intended latency not recorded for every op: %+v", res.IntendedLatency)
	}
	if s := res.String(); !strings.Contains(s, "offered=") || !strings.Contains(s, "ip99=") {
		t.Fatalf("String() missing open-loop fields: %s", s)
	}
}

func TestOpenLoopPoissonArrivals(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	res, err := RunOpenLoop(st, putTrace(300), OpenLoopOptions{
		Arrivals: dist.NewPoissonRate(1e6, rand.New(rand.NewSource(9))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 300 || res.Offered != 300 {
		t.Fatalf("ops=%d offered=%d", res.Ops, res.Offered)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	bad := []OpenLoopOptions{
		{}, // neither rate nor schedule
		{Rate: -1},
		{Rate: 1000, MaxInFlight: -1},
		{Rate: 1000, SampleEvery: -1},
		{Rate: 1000, StallTimeout: -time.Second},
		// Stall timeout inside the arrival gap would always fire.
		{Rate: 10, StallTimeout: 50 * time.Millisecond},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("options %d should be invalid: %+v", i, o)
		}
		if _, err := RunOpenLoop(st, putTrace(3), o); err == nil {
			t.Errorf("RunOpenLoop accepted invalid options %d", i)
		}
	}
	good := []OpenLoopOptions{
		{Rate: 1000},
		{Arrivals: dist.NewConstantRate(5)},
		{Rate: 1e6, MaxInFlight: 8, SampleEvery: 10, StallTimeout: time.Second},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("options %d should be valid: %v", i, err)
		}
	}
}

// simStallStore advances a simClock by stall on every stallEvery-th Put
// — a store whose service time is simulated rather than slept — and
// records the simulated time each Put was called at.
type simStallStore struct {
	*memstore.Store
	clk        *simClock
	stallEvery int
	stall      time.Duration
	calls      []time.Time
}

func (s *simStallStore) Put(key, value []byte) error {
	s.calls = append(s.calls, s.clk.Now())
	if len(s.calls)%s.stallEvery == 0 {
		s.clk.Advance(s.stall)
	}
	return s.Store.Put(key, value)
}

// TestOpenLoopIntendedTimesNeverSlip drives the dispatch loop on a
// simulated clock, where nothing takes time except the schedule's gaps
// and one 10ms stall inside the store's 20th Put. Every op must be
// served at max(its intended time, the moment the store came free) with
// intended times t_0 + the gaps of a twin schedule, bit for bit: the
// backlog behind the stall is served late, charged from its intended
// times, and once it drains the ops are back on the original schedule.
func TestOpenLoopIntendedTimesNeverSlip(t *testing.T) {
	const n, stallEvery, stall = 39, 20, 10 * time.Millisecond
	schedules := map[string]func() dist.Schedule{
		"constant": func() dist.Schedule { return dist.NewConstantRate(1000) },
		"poisson":  func() dist.Schedule { return dist.NewPoissonRate(1000, rand.New(rand.NewSource(9))) },
		"bursts": func() dist.Schedule {
			b, err := dist.NewBursts([]dist.BurstPhase{
				{RatePerSec: 2000, Duration: 5 * time.Millisecond},
				{RatePerSec: 500, Duration: 8 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	for name, mk := range schedules {
		t.Run(name, func(t *testing.T) {
			clk := newSimClock()
			st := &simStallStore{Store: memstore.New(), clk: clk, stallEvery: stallEvery, stall: stall}
			defer st.Close()
			res, err := RunOpenLoop(st, putTrace(n), OpenLoopOptions{Arrivals: mk(), MaxInFlight: 64, Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			if len(st.calls) != n || res.Ops != n || res.Offered != n || res.Overload != 0 {
				t.Fatalf("calls=%d ops=%d offered=%d overload=%d, want %d/%d/%d/0", len(st.calls), res.Ops, res.Offered, res.Overload, n, n, n)
			}
			twin := mk()
			want := stats.NewHistogram()
			var maxLag time.Duration
			// The first arrival is due at the schedule epoch and served at
			// once, so its call time is t_0.
			intended, free := st.calls[0], st.calls[0]
			for k := 0; k < n; k++ {
				served := intended
				if free.After(served) {
					served = free
				}
				if !st.calls[k].Equal(served) {
					t.Fatalf("op %d served at +%v, want +%v (intended +%v): intended times slipped",
						k, st.calls[k].Sub(st.calls[0]), served.Sub(st.calls[0]), intended.Sub(st.calls[0]))
				}
				if k == n-1 && !served.Equal(intended) {
					t.Fatalf("last op still late by %v: pick a schedule whose backlog drains", served.Sub(intended))
				}
				maxLag = max(maxLag, served.Sub(intended))
				free = served
				if (k+1)%stallEvery == 0 {
					free = free.Add(stall)
				}
				want.Record(free.Sub(intended).Nanoseconds())
				intended = intended.Add(time.Duration(twin.NextGapNs()))
			}
			if maxLag < stall/2 {
				t.Fatalf("max lag %v: the stall delayed nothing, the case is vacuous", maxLag)
			}
			if res.MaxLag != maxLag {
				t.Fatalf("MaxLag = %v, want %v", res.MaxLag, maxLag)
			}
			for _, q := range []float64{0.5, 0.9, 0.99, 1} {
				if got, w := res.IntendedLatency.Quantile(q), want.Quantile(q); got != w {
					t.Fatalf("intended latency q%v = %v, want %v", q, time.Duration(got), time.Duration(w))
				}
			}
		})
	}
}

// TestOpenLoopOverloadHandComputed pins the overload contract on a
// simulated clock: 1ms arrivals, a ring of 4, and a store that stalls
// 10ms inside op 19 (called at +19ms, back at +29ms). Arrivals 20..29
// fall due during the stall. 20..23 fill the ring at +29ms, lagging
// 9..6ms; each of 24..29 finds the ring full when its turn comes, is
// counted once and admitted when the next op frees a slot, lagging
// 5..0ms. All of it happens at +29ms, so ops 19..28 are charged
// 10..1ms from their intended times and everything else 0.
func TestOpenLoopOverloadHandComputed(t *testing.T) {
	clk := newSimClock()
	st := &simStallStore{Store: memstore.New(), clk: clk, stallEvery: 20, stall: 10 * time.Millisecond}
	defer st.Close()
	res, err := RunOpenLoop(st, putTrace(39), OpenLoopOptions{Rate: 1000, MaxInFlight: 4, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 39 || res.Offered != 39 || st.Len() != 39 {
		t.Fatalf("ops=%d offered=%d stored=%d, want 39/39/39: an overloaded arrival was dropped", res.Ops, res.Offered, st.Len())
	}
	if res.Overload != 6 {
		t.Fatalf("Overload = %d, want 6", res.Overload)
	}
	if res.MaxLag != 9*time.Millisecond {
		t.Fatalf("MaxLag = %v, want 9ms", res.MaxLag)
	}
	if got := res.IntendedP99(); got != 10*time.Millisecond {
		t.Fatalf("intended p99 = %v, want 10ms", got)
	}
	if got := res.IntendedLatency.Quantile(0.5); got != 0 {
		t.Fatalf("intended p50 = %v, want 0", time.Duration(got))
	}
	if got, want := res.IntendedLatency.Sum(), float64(55*time.Millisecond); got != want {
		t.Fatalf("intended latency sum = %v, want %v", time.Duration(got), time.Duration(want))
	}
	// The whole run sits on the simulated timeline: the last arrival is
	// due, and served, at +38ms.
	if res.Duration != 38*time.Millisecond {
		t.Fatalf("Duration = %v, want 38ms", res.Duration)
	}
	if want := 39 / 0.038; res.OfferedRate != want || res.AchievedRate != want {
		t.Fatalf("offered/achieved rate = %v/%v, want %v", res.OfferedRate, res.AchievedRate, want)
	}
	if res.Degraded {
		t.Fatal("overload alone must not degrade the run")
	}
}

// TestDoAtCoordinatedOmissionSimClock drives the open-loop accounting on
// a simulated clock: a store that stalls 50ms every 100 ops under a 1ms
// arrival schedule must show the stall in the intended-arrival
// percentiles (each stall delays the ~50 following arrivals) while the
// real-time service percentiles stay tiny — the coordinated-omission
// distinction, fully deterministic.
func TestDoAtCoordinatedOmissionSimClock(t *testing.T) {
	clk := newSimClock()
	st := &simStallStore{Store: memstore.New(), clk: clk, stallEvery: 100, stall: 50 * time.Millisecond}
	defer st.Close()
	c := newCollector(st, Options{}, clk)
	t0 := clk.Now()
	const gap = time.Millisecond
	for i := 0; i < 1000; i++ {
		intended := t0.Add(time.Duration(i) * gap)
		// The pacer never dispatches early: wait out the schedule when the
		// store is ahead of it.
		if d := intended.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		if _, err := c.DoAt(kv.Access{Op: kv.OpPut, Key: kv.StateKey{Sub: uint64(i)}, Size: 8}, intended); err != nil {
			t.Fatal(err)
		}
	}
	res := c.Finish()
	if res.Ops != 1000 {
		t.Fatalf("ops = %d", res.Ops)
	}
	// Every stall delays the following ~50 arrivals (50ms backlog / 1ms
	// gaps), so half the ops carry queueing delay and the p99 sits just
	// under the full stall.
	if got := res.IntendedP99(); got < 25*time.Millisecond {
		t.Fatalf("intended p99 = %v does not reflect the 50ms stalls", got)
	}
	// Service time is charged from the store call, not from the intended
	// arrival: only the 10 stalled ops themselves carry the stall, 1% of
	// the samples, so the service p99 stays below it.
	if got := time.Duration(res.Latency.Quantile(0.99)); got > 5*time.Millisecond {
		t.Fatalf("service p99 = %v; queueing delay leaked into service time", got)
	}
}

// TestOpenLoopCoordinatedOmissionChaos is the end-to-end acceptance
// check: against a store that stalls 30ms every 125 ops, the open-loop
// driver's intended-arrival p99 must exceed the stall duration (arrivals
// keep accumulating behind each stall), while a closed-loop replay of
// the same trace — whose 8 stalled ops are only 0.8% of samples — hides
// the stall below its service-time p99.
func TestOpenLoopCoordinatedOmissionChaos(t *testing.T) {
	const stall = 30 * time.Millisecond
	trace := putTrace(1000)
	plan := kv.ChaosPlan{StallEvery: 125, Stall: stall}

	open := kv.NewChaosStore(memstore.New(), plan)
	defer open.Close()
	openRes, err := RunOpenLoop(open, trace, OpenLoopOptions{Rate: 50_000, MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}

	closed := kv.NewChaosStore(memstore.New(), plan)
	defer closed.Close()
	closedRes, err := Run(closed, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if got := openRes.IntendedP99(); got < stall {
		t.Fatalf("open-loop intended p99 = %v, want >= %v (stall hidden)", got, stall)
	}
	// The same stalls are invisible at p99 when latency is measured
	// per-completed-call: only 8/1000 samples contain a stall.
	if got := time.Duration(closedRes.Latency.Quantile(0.99)); got >= stall {
		t.Fatalf("closed-loop service p99 = %v unexpectedly contains the stall", got)
	}
	if got := time.Duration(openRes.Latency.Quantile(0.99)); got >= stall {
		t.Fatalf("open-loop service p99 = %v; stalls are 0.8%% of ops and must sit above p99", got)
	}
	if closedRes.IntendedP99() != 0 || closedRes.Offered != 0 {
		t.Fatalf("closed-loop result grew open-loop measurements: %+v", closedRes)
	}
	// The 64-deep queue cannot absorb a 30ms backlog at 50k/s arrivals.
	if openRes.Overload == 0 {
		t.Fatalf("expected overload under stalls: %+v", openRes)
	}
	if openRes.MaxLag == 0 {
		t.Fatal("expected dispatch lag under stalls")
	}
}

// TestOpenLoopStateMatchesClosedLoop is the differential check: the two
// drivers replay one seeded trace into separate stores and must land on
// the identical final state — only the timing metadata differs.
func TestOpenLoopStateMatchesClosedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trace := make([]kv.Access, 2000)
	for i := range trace {
		a := kv.Access{Key: kv.StateKey{Group: uint64(rng.Intn(32)), Sub: uint64(rng.Intn(8))}}
		switch rng.Intn(5) {
		case 0:
			a.Op = kv.OpGet
		case 1:
			a.Op, a.Size = kv.OpPut, uint32(1+rng.Intn(64))
		case 2:
			a.Op, a.Size = kv.OpMerge, uint32(1+rng.Intn(32))
		case 3:
			a.Op = kv.OpDelete
		case 4:
			a.Op, a.Size = kv.OpPut, uint32(1+rng.Intn(16))
		}
		trace[i] = a
	}

	closedStore, openStore := memstore.New(), memstore.New()
	defer closedStore.Close()
	defer openStore.Close()
	closedRes, err := Run(closedStore, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	openRes, err := RunOpenLoop(openStore, trace, OpenLoopOptions{Rate: 1e8, MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}

	if closedStore.Len() != openStore.Len() {
		t.Fatalf("store sizes diverged: closed=%d open=%d", closedStore.Len(), openStore.Len())
	}
	seen := map[kv.StateKey]bool{}
	for _, a := range trace {
		if seen[a.Key] {
			continue
		}
		seen[a.Key] = true
		kb := a.Key.Bytes()
		cv, cerr := closedStore.Get(kb)
		ov, oerr := openStore.Get(kb)
		if (cerr == nil) != (oerr == nil) {
			t.Fatalf("key %v presence diverged: closed=%v open=%v", a.Key, cerr, oerr)
		}
		if !bytes.Equal(cv, ov) {
			t.Fatalf("key %v value diverged: %d vs %d bytes", a.Key, len(cv), len(ov))
		}
	}
	// Same work applied...
	if closedRes.Ops != openRes.Ops || closedRes.Misses != openRes.Misses {
		t.Fatalf("op accounting diverged: closed=%+v open=%+v", closedRes, openRes)
	}
	// ...but only the open-loop run carries arrival-schedule metadata.
	if openRes.Offered != uint64(len(trace)) || openRes.IntendedLatency == nil {
		t.Fatalf("open-loop metadata missing: %+v", openRes)
	}
	if closedRes.Offered != 0 || closedRes.IntendedLatency != nil {
		t.Fatalf("closed-loop grew open-loop metadata: %+v", closedRes)
	}
}

func TestOpenLoopOverloadCountedNotDropped(t *testing.T) {
	// A store with a 200us injected delay per op under 1M/s arrivals and a
	// single-slot queue: nearly every dispatch finds the queue full. The
	// events must be counted as overload yet still applied.
	st := kv.NewChaosStore(memstore.New(), kv.ChaosPlan{LatencyRate: 1, Latency: 200 * time.Microsecond})
	defer st.Close()
	trace := putTrace(300)
	res, err := RunOpenLoop(st, trace, OpenLoopOptions{Rate: 1e6, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 300 || res.Offered != 300 {
		t.Fatalf("overloaded events were dropped: ops=%d offered=%d", res.Ops, res.Offered)
	}
	if res.Overload == 0 {
		t.Fatal("overload not counted")
	}
	if res.MaxLag == 0 {
		t.Fatal("dispatch lag not measured")
	}
	if res.Degraded {
		t.Fatal("overload alone must not degrade the run")
	}
}

func TestOpenLoopObserverSeesArmedCollector(t *testing.T) {
	st := memstore.New()
	defer st.Close()
	var snap Result
	_, err := RunOpenLoop(st, putTrace(100), OpenLoopOptions{
		Rate: 1e7,
		Observer: func(c *Collector) {
			// The observer runs before the first op; open-loop accounting
			// must already be armed so samplers can snapshot it.
			snap = c.Snapshot()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.IntendedLatency == nil {
		t.Fatal("observer saw a collector without open-loop accounting")
	}
}

func TestMergeResultsOpenLoop(t *testing.T) {
	mk := func(ops, offered, overload uint64, lag time.Duration, dur time.Duration, intendedNs ...int64) Result {
		r := Result{Ops: ops, Offered: offered, Overload: overload, MaxLag: lag, Duration: dur, Latency: stats.NewHistogram()}
		if len(intendedNs) > 0 {
			r.IntendedLatency = stats.NewHistogram()
			for _, ns := range intendedNs {
				r.IntendedLatency.Record(ns)
			}
		}
		if dur > 0 {
			r.Throughput = float64(ops) / dur.Seconds()
		}
		return r
	}
	a := mk(100, 100, 5, 3*time.Millisecond, time.Second, 1000, 2000)
	b := mk(200, 200, 1, 7*time.Millisecond, 2*time.Second, 3000)
	out := MergeResults([]Result{a, b})
	if out.Offered != 300 || out.Overload != 6 {
		t.Fatalf("offered/overload = %d/%d, want 300/6", out.Offered, out.Overload)
	}
	if out.MaxLag != 7*time.Millisecond {
		t.Fatalf("max lag = %v, want max(3ms,7ms)", out.MaxLag)
	}
	if out.Duration != 2*time.Second {
		t.Fatalf("duration = %v", out.Duration)
	}
	if out.IntendedLatency == nil || out.IntendedLatency.Count() != 3 {
		t.Fatalf("intended histograms not merged: %+v", out.IntendedLatency)
	}
	if want := 300.0 / 2; out.OfferedRate != want {
		t.Fatalf("offered rate = %v, want %v", out.OfferedRate, want)
	}
	if out.AchievedRate != out.Throughput {
		t.Fatalf("achieved %v != throughput %v", out.AchievedRate, out.Throughput)
	}

	// Merging with a closed-loop partition must not fabricate open-loop
	// data in the closed direction, and must keep the open data intact.
	closedOnly := MergeResults([]Result{mk(50, 0, 0, 0, time.Second)})
	if closedOnly.Offered != 0 || closedOnly.IntendedLatency != nil || closedOnly.OfferedRate != 0 {
		t.Fatalf("closed-loop merge fabricated open-loop fields: %+v", closedOnly)
	}
	mixed := MergeResults([]Result{a, mk(50, 0, 0, 0, time.Millisecond)})
	if mixed.Offered != 100 || mixed.IntendedLatency == nil {
		t.Fatalf("mixed merge lost open-loop fields: %+v", mixed)
	}
}

func TestResultStringOpenLoopFields(t *testing.T) {
	r := Result{Ops: 10, Latency: stats.NewHistogram(), Duration: time.Second, Throughput: 10}
	if s := r.String(); strings.Contains(s, "offered=") {
		t.Fatalf("closed-loop String() grew open-loop fields: %s", s)
	}
	r.Offered, r.Overload = 20, 3
	r.OfferedRate, r.AchievedRate = 20, 10
	r.MaxLag = 1500 * time.Microsecond
	r.IntendedLatency = stats.NewHistogram()
	r.IntendedLatency.Record(int64(2 * time.Millisecond))
	s := r.String()
	for _, want := range []string{"offered=20/s", "achieved=10/s", "lag=1.5ms", "overload=3", "ip99="} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if testing.Verbose() {
		fmt.Println(s)
	}
}

// nopStore applies nothing, leaving a run's time to the driver.
type nopStore struct{ *memstore.Store }

func (nopStore) Put(_, _ []byte) error { return nil }

// TestOpenLoopDispatchOnTime runs 0.3s of 100k ev/s constant arrivals
// against a store that costs nothing, on the wall clock: the 10µs gaps
// are a hundredth of what a sleep resolves, and the driver must still
// hand the median arrival over within a fraction of a timer quantum and
// complete what was offered. The dispatch delay is read where traced
// runs report it, the sched stage of the 1-in-64 sampled ops.
func TestOpenLoopDispatchOnTime(t *testing.T) {
	const rate, n = 100_000, 30_000
	st := nopStore{memstore.New()}
	defer st.Close()
	tr := tracing.New(tracing.Options{SampleN: 64})
	res, err := RunOpenLoop(st, putTrace(n), OpenLoopOptions{Rate: rate, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != n || res.Offered != n {
		t.Fatalf("ops=%d offered=%d, want %d/%d", res.Ops, res.Offered, n, n)
	}
	sched := tr.StageHist(tracing.StageSched)
	if sched.Count() < n/64*9/10 {
		t.Fatalf("only %d of %d traced ops carry a sched stage", sched.Count(), n/64)
	}
	if lag := time.Duration(sched.Quantile(0.5)); lag >= 100*time.Microsecond {
		t.Fatalf("median dispatch lag %v, want < 100µs", lag)
	}
	if math.Abs(res.AchievedRate/rate-1) > 0.01 {
		t.Fatalf("achieved %.0f ev/s of %d offered, want within 1%%", res.AchievedRate, rate)
	}
}

// TestOpenLoopAbortMidRun aborts a run from outside, through the
// collector its Observer was handed, while a slow store keeps the ring
// full: the run must end Degraded with ErrAborted, short of the trace,
// and leave no goroutine behind.
func TestOpenLoopAbortMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	st := kv.NewChaosStore(memstore.New(), kv.ChaosPlan{LatencyRate: 1, Latency: 200 * time.Microsecond})
	defer st.Close()
	aborter := make(chan struct{})
	res, err := RunOpenLoop(st, putTrace(5000), OpenLoopOptions{
		Rate: 1e6, MaxInFlight: 8,
		Observer: func(c *Collector) {
			go func() {
				defer close(aborter)
				for c.overload.Load() < 50 {
					time.Sleep(time.Millisecond)
				}
				c.Abort()
			}()
		},
	})
	<-aborter
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if !res.Degraded {
		t.Fatal("aborted run not tagged Degraded")
	}
	if res.Ops == 0 || res.Ops >= 5000 {
		t.Fatalf("ops = %d, want a partial run", res.Ops)
	}
	if res.Overload < 50 {
		t.Fatalf("overload = %d: the ring was not full at the abort", res.Overload)
	}
	// The aborter has closed its channel but may not have exited yet.
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the run, %d after", before, after)
	}
}
