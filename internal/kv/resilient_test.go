package kv

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gadget/internal/tracing"
)

// scriptStore is a Store stub whose behaviour is driven per-call by fail,
// over an in-memory map. It records how many calls reached it.
type scriptStore struct {
	mu    sync.Mutex
	m     map[string][]byte
	calls int
	// fail, when non-nil, is consulted before each op with the 1-based
	// call number; a non-nil result fails the op without applying it.
	fail func(call int) error
	// delay pauses each op before applying (after fail check).
	delay time.Duration
}

func newScriptStore() *scriptStore { return &scriptStore{m: map[string][]byte{}} }

func (s *scriptStore) admit() error {
	s.mu.Lock()
	s.calls++
	n := s.calls
	f := s.fail
	d := s.delay
	s.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	if f != nil {
		return f(n)
	}
	return nil
}

func (s *scriptStore) Get(key []byte) ([]byte, error) {
	if err := s.admit(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[string(key)]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

func (s *scriptStore) Put(key, value []byte) error {
	if err := s.admit(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[string(key)] = append([]byte(nil), value...)
	return nil
}

func (s *scriptStore) Merge(key, operand []byte) error {
	if err := s.admit(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[string(key)] = append(s.m[string(key)], operand...)
	return nil
}

func (s *scriptStore) Delete(key []byte) error {
	if err := s.admit(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, string(key))
	return nil
}

func (s *scriptStore) Close() error { return nil }

func (s *scriptStore) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func fastOpts() ResilienceOptions {
	return ResilienceOptions{
		MaxRetries:      4,
		BackoffBase:     10 * time.Microsecond,
		BackoffMax:      100 * time.Microsecond,
		BreakerCooldown: time.Millisecond,
	}
}

// opPath is one of the three ways an operation reaches a ResilientStore:
// the Store methods, DoTraced with a nil Ctx, DoTraced with a sampled
// Ctx. They share one body, so results and counters must not tell them
// apart; the sampled one also accumulates what its Ctxs were stamped
// with.
type opPath struct {
	name    string
	sampled bool
	t       *testing.T // the subtest running this path
	do      func(p *opPath, r *ResilientStore, op TracedOp) (TracedResult, error)

	retryNs, engineNs int64
	attempts          uint64
}

func (p *opPath) Get(r *ResilientStore, key string) ([]byte, error) {
	res, err := p.do(p, r, TracedOp{Op: OpGet, Key: []byte(key)})
	return res.Val, err
}

func (p *opPath) Put(r *ResilientStore, key string, val []byte) error {
	_, err := p.do(p, r, TracedOp{Op: OpPut, Key: []byte(key), Val: val})
	return err
}

func (p *opPath) Merge(r *ResilientStore, key, operand string) error {
	_, err := p.do(p, r, TracedOp{Op: OpMerge, Key: []byte(key), Val: []byte(operand)})
	return err
}

// forEachPath runs body once per opPath, each time against stores of its
// own, and requires the ResilienceCounters body returns to be the same
// on all three. On the sampled path every retry must have been counted
// on a Ctx and its backoff stamped as StageRetry.
func forEachPath(t *testing.T, body func(t *testing.T, p *opPath) ResilienceCounters) {
	tracer := tracing.New(tracing.Options{SampleN: 1})
	paths := []*opPath{
		{name: "store-methods", do: func(_ *opPath, r *ResilientStore, op TracedOp) (TracedResult, error) {
			switch op.Op {
			case OpGet:
				v, err := r.Get(op.Key)
				return TracedResult{Val: v}, err
			case OpPut:
				return TracedResult{}, r.Put(op.Key, op.Val)
			default:
				return TracedResult{}, r.Merge(op.Key, op.Val)
			}
		}},
		{name: "DoTraced-nil", do: func(_ *opPath, r *ResilientStore, op TracedOp) (TracedResult, error) {
			return r.DoTraced(nil, op)
		}},
		{name: "DoTraced-sampled", sampled: true, do: func(p *opPath, r *ResilientStore, op TracedOp) (TracedResult, error) {
			tc := tracer.Start(uint8(op.Op))
			if tc == nil {
				p.t.Fatal("SampleN 1 did not sample")
			}
			res, err := r.DoTraced(tc, op)
			p.retryNs += tc.Dur(tracing.StageRetry)
			p.engineNs += tc.Dur(tracing.StageEngine)
			p.attempts += uint64(tc.Attempts)
			tracer.Finish(tc)
			return res, err
		}},
	}
	var first ResilienceCounters
	for i, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			p.t = t
			c := body(t, p)
			if i == 0 {
				first = c
			} else if c != first {
				t.Fatalf("counters %+v differ from the Store-method path's %+v", c, first)
			}
			if !p.sampled {
				return
			}
			if p.attempts != c.Retries {
				t.Fatalf("Ctx attempts = %d, want the %d retries counted", p.attempts, c.Retries)
			}
			if (p.retryNs > 0) != (c.Retries > 0) {
				t.Fatalf("StageRetry = %dns with %d retries", p.retryNs, c.Retries)
			}
		})
	}
	if started, finished := tracer.Stats(); started != finished {
		t.Fatalf("trace leak: started=%d finished=%d", started, finished)
	}
}

func newResilient(t *testing.T, st Store, opts ResilienceOptions) *ResilientStore {
	t.Helper()
	r, err := NewResilientStore(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRetryRecoversTransientFailures(t *testing.T) {
	forEachPath(t, func(t *testing.T, p *opPath) ResilienceCounters {
		st := newScriptStore()
		st.fail = func(call int) error {
			if call <= 2 {
				return ErrInjectedFault
			}
			return nil
		}
		r := newResilient(t, st, fastOpts())
		if err := p.Put(r, "k", []byte("v")); err != nil {
			t.Fatalf("Put should recover: %v", err)
		}
		if v, err := p.Get(r, "k"); err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		c := r.ResilienceCounters()
		if c.Retries != 2 {
			t.Fatalf("Retries = %d, want 2", c.Retries)
		}
		if c.Degraded != 0 {
			t.Fatalf("Degraded = %d, want 0", c.Degraded)
		}
		return c
	})
}

func TestNoRetryOnFatalError(t *testing.T) {
	forEachPath(t, func(t *testing.T, p *opPath) ResilienceCounters {
		st := newScriptStore()
		boom := errors.New("disk on fire")
		st.fail = func(int) error { return boom }
		r := newResilient(t, st, fastOpts())
		if err := p.Put(r, "k", []byte("v")); !errors.Is(err, boom) {
			t.Fatalf("Put = %v, want %v", err, boom)
		}
		if n := st.callCount(); n != 1 {
			t.Fatalf("fatal error retried: %d calls", n)
		}
		c := r.ResilienceCounters()
		if c.Degraded != 1 || c.Retries != 0 {
			t.Fatalf("counters = %+v", c)
		}
		return c
	})
}

func TestRetryBudgetExhaustion(t *testing.T) {
	forEachPath(t, func(t *testing.T, p *opPath) ResilienceCounters {
		st := newScriptStore()
		st.fail = func(int) error { return ErrInjectedFault }
		opts := fastOpts()
		opts.BreakerThreshold = -1
		r := newResilient(t, st, opts)
		if err := p.Put(r, "k", nil); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("Put = %v", err)
		}
		if n := st.callCount(); n != 5 { // 1 + MaxRetries
			t.Fatalf("calls = %d, want 5", n)
		}
		c := r.ResilienceCounters()
		if c.Retries != 4 || c.Degraded != 1 {
			t.Fatalf("counters = %+v", c)
		}
		return c
	})
}

func TestMergeNotRetriedAfterUnknownOutcome(t *testing.T) {
	forEachPath(t, func(t *testing.T, p *opPath) ResilienceCounters {
		st := newScriptStore()
		st.fail = func(call int) error {
			if call == 1 {
				// Transient but the op may have applied (e.g. ack lost).
				return UnknownOutcomeError(TransientError(errors.New("conn reset")))
			}
			return nil
		}
		r := newResilient(t, st, fastOpts())
		if err := p.Merge(r, "k", "x"); err == nil {
			t.Fatal("merge after unknown-outcome failure must surface the error")
		}
		if n := st.callCount(); n != 1 {
			t.Fatalf("merge retried despite unknown outcome: %d calls", n)
		}
		// The same failure on an idempotent op is retried.
		st.mu.Lock()
		st.calls = 0
		st.mu.Unlock()
		if err := p.Put(r, "k", []byte("v")); err != nil {
			t.Fatalf("idempotent Put should retry: %v", err)
		}
		if n := st.callCount(); n != 2 {
			t.Fatalf("Put calls = %d, want 2", n)
		}
		return r.ResilienceCounters()
	})
}

func TestMergeRetriedAfterFailBeforeApply(t *testing.T) {
	forEachPath(t, func(t *testing.T, p *opPath) ResilienceCounters {
		st := newScriptStore()
		st.fail = func(call int) error {
			if call == 1 {
				return ErrInjectedFault // chaos contract: not applied
			}
			return nil
		}
		r := newResilient(t, st, fastOpts())
		if err := p.Merge(r, "k", "ab"); err != nil {
			t.Fatalf("Merge = %v", err)
		}
		if v, _ := p.Get(r, "k"); string(v) != "ab" {
			t.Fatalf("retried merge duplicated or dropped: %q", v)
		}
		return r.ResilienceCounters()
	})
}

// TestDeadlineExceeded abandons an attempt that is still running. On the
// sampled path the Ctx has gone back to its pool by the time the
// abandoned attempt completes, so that attempt must never have been
// handed it (the race detector sees it if it was) and the time it was
// waited for is charged to StageEngine from the caller's side.
func TestDeadlineExceeded(t *testing.T) {
	forEachPath(t, func(t *testing.T, p *opPath) ResilienceCounters {
		st := newScriptStore()
		st.delay = 50 * time.Millisecond
		opts := fastOpts()
		opts.OpTimeout = 2 * time.Millisecond
		opts.MaxRetries = -1
		r := newResilient(t, st, opts)
		val := []byte("v")
		err := p.Put(r, "k", val)
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("Put = %v, want deadline", err)
		}
		// The caller owns its buffers again once Put returns; the
		// abandoned attempt must not read the reuse.
		val[0] = 'x'
		if !Transient(err) || !OutcomeUnknown(err) {
			t.Fatalf("deadline error misclassified: transient=%v unknown=%v", Transient(err), OutcomeUnknown(err))
		}
		c := r.ResilienceCounters()
		if c.Timeouts != 1 {
			t.Fatalf("Timeouts = %d, want 1", c.Timeouts)
		}
		if p.sampled && p.engineNs < int64(opts.OpTimeout) {
			t.Fatalf("StageEngine = %dns, want at least the %v the attempt was waited for", p.engineNs, opts.OpTimeout)
		}
		// Let the abandoned attempt run to its end: it applies the Put
		// as it was issued.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			st.mu.Lock()
			got, applied := st.m["k"]
			st.mu.Unlock()
			if applied {
				if string(got) != "v" {
					t.Fatalf("abandoned attempt applied %q, want the issued %q", got, "v")
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("abandoned attempt never completed")
			}
		}
		return c
	})
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	forEachPath(t, func(t *testing.T, p *opPath) ResilienceCounters {
		st := newScriptStore()
		var failing = true
		st.fail = func(int) error {
			st.mu.Lock()
			defer st.mu.Unlock()
			if failing {
				return ErrInjectedFault
			}
			return nil
		}
		opts := fastOpts()
		opts.MaxRetries = -1 // isolate the breaker from retry effects
		opts.BreakerThreshold = 3
		opts.BreakerCooldown = 2 * time.Millisecond
		r := newResilient(t, st, opts)
		// Trip the breaker.
		for i := 0; i < 3; i++ {
			if err := p.Put(r, "k", nil); !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("op %d = %v", i, err)
			}
		}
		if c := r.ResilienceCounters(); c.BreakerTrips != 1 {
			t.Fatalf("BreakerTrips = %d, want 1", c.BreakerTrips)
		}
		// While open (within cooldown) ops fail fast without reaching the store.
		before := st.callCount()
		if err := p.Put(r, "k", nil); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open breaker = %v, want ErrBreakerOpen", err)
		}
		if st.callCount() != before {
			t.Fatal("fast-fail reached the store")
		}
		if c := r.ResilienceCounters(); c.FastFails == 0 {
			t.Fatal("FastFails not counted")
		}
		// A failing half-open probe re-opens.
		time.Sleep(3 * time.Millisecond)
		if err := p.Put(r, "k", nil); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("probe = %v", err)
		}
		if c := r.ResilienceCounters(); c.BreakerTrips != 2 {
			t.Fatalf("BreakerTrips after failed probe = %d, want 2", c.BreakerTrips)
		}
		// Recovery: store heals, cooldown elapses, probe closes the breaker.
		st.mu.Lock()
		failing = false
		st.mu.Unlock()
		time.Sleep(3 * time.Millisecond)
		if err := p.Put(r, "k", []byte("v")); err != nil {
			t.Fatalf("probe after recovery = %v", err)
		}
		if err := p.Put(r, "k2", []byte("v")); err != nil {
			t.Fatalf("post-recovery op = %v", err)
		}
		return r.ResilienceCounters()
	})
}

func TestChaosDeterminism(t *testing.T) {
	run := func() (ChaosCounters, []bool) {
		st := newScriptStore()
		c := NewChaosStore(st, ChaosPlan{Seed: 42, ErrorRate: 0.3})
		outcomes := make([]bool, 200)
		for i := range outcomes {
			outcomes[i] = c.Put([]byte{byte(i)}, nil) == nil
		}
		return c.Counters(), outcomes
	}
	c1, o1 := run()
	c2, o2 := run()
	if c1 != c2 {
		t.Fatalf("counters diverge: %+v vs %+v", c1, c2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("schedule diverges at op %d", i)
		}
	}
	if c1.InjectedErrors == 0 || c1.InjectedErrors == c1.Ops {
		t.Fatalf("implausible injection count: %+v", c1)
	}
}

func TestChaosOutageWindow(t *testing.T) {
	st := newScriptStore()
	c := NewChaosStore(st, ChaosPlan{OutageAfterOps: 5, OutageOps: 3})
	var errs int
	for i := 0; i < 12; i++ {
		if err := c.Put([]byte{byte(i)}, nil); err != nil {
			if !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("op %d: %v", i, err)
			}
			errs++
		}
	}
	if errs != 3 {
		t.Fatalf("outage failed %d ops, want 3", errs)
	}
}

func TestChaosPlanValidate(t *testing.T) {
	bad := []ChaosPlan{
		{ErrorRate: -0.1},
		{ErrorRate: 1.1},
		{LatencyRate: 2},
		{Latency: -time.Second},
		{StallEvery: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("plan %d should be invalid", i)
		}
	}
	if err := (ChaosPlan{ErrorRate: 0.5, LatencyRate: 0.1, Latency: time.Millisecond}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResilienceOptionsValidate(t *testing.T) {
	bad := []ResilienceOptions{
		{OpTimeout: -1},
		{MaxRetries: -2},
		{BackoffBase: -1},
		{BreakerThreshold: -5},
		{BreakerCooldown: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("options %d should be invalid", i)
		}
	}
}

func TestRetrySafeTable(t *testing.T) {
	fatal := errors.New("fatal")
	unknownTransient := UnknownOutcomeError(TransientError(errors.New("lost")))
	cases := []struct {
		op   Op
		err  error
		want bool
	}{
		{OpGet, ErrInjectedFault, true},
		{OpPut, ErrInjectedFault, true},
		{OpMerge, ErrInjectedFault, true},
		{OpGet, unknownTransient, true},
		{OpPut, unknownTransient, true},
		{OpDelete, unknownTransient, true},
		{OpMerge, unknownTransient, false},
		{OpMerge, ErrDeadlineExceeded, false},
		{OpGet, ErrDeadlineExceeded, true},
		{OpPut, fatal, false},
		{OpMerge, fatal, false},
		{OpGet, ErrBreakerOpen, true},
	}
	for i, c := range cases {
		if got := RetrySafe(c.op, c.err); got != c.want {
			t.Errorf("case %d: RetrySafe(%v, %v) = %v, want %v", i, c.op, c.err, got, c.want)
		}
	}
}

func TestNotFoundIsNotAFailure(t *testing.T) {
	forEachPath(t, func(t *testing.T, p *opPath) ResilienceCounters {
		st := newScriptStore()
		r := newResilient(t, st, fastOpts())
		if _, err := p.Get(r, "absent"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get = %v", err)
		}
		if n := st.callCount(); n != 1 {
			t.Fatalf("miss retried: %d calls", n)
		}
		c := r.ResilienceCounters()
		if c.Retries != 0 || c.Degraded != 0 {
			t.Fatalf("miss counted as failure: %+v", c)
		}
		return c
	})
}
