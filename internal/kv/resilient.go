package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gadget/internal/tracing"
)

// ResilienceOptions configures a ResilientStore. The zero value enables
// retries with the default budget and backoff but no per-op deadline and
// the default breaker; fields set to -1 disable the corresponding
// mechanism where noted.
type ResilienceOptions struct {
	// OpTimeout is the per-operation deadline (0 = none). An attempt that
	// exceeds it fails with ErrDeadlineExceeded; the in-flight call is
	// abandoned (it may still complete against the underlying store, so
	// the outcome is unknown and merges are not retried past it).
	OpTimeout time.Duration
	// MaxRetries bounds retry attempts after the first try
	// (0 = default 3, -1 = no retries).
	MaxRetries int
	// BackoffBase is the first retry delay; each further retry doubles it
	// (0 = default 100µs).
	BackoffBase time.Duration
	// BackoffMax caps the retry delay (0 = default 20ms).
	BackoffMax time.Duration
	// JitterSeed seeds the ±50% backoff jitter, keeping schedules
	// reproducible across runs.
	JitterSeed int64
	// BreakerThreshold is the number of consecutive failed operations
	// that opens the circuit breaker (0 = default 16, -1 = breaker
	// disabled). While open, operations fail fast with ErrBreakerOpen
	// until BreakerCooldown elapses; then a single half-open probe is
	// admitted, and its outcome closes or re-opens the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before probing
	// (0 = default 50ms).
	BreakerCooldown time.Duration
}

// Defaults applied by NewResilientStore for zero-valued options.
const (
	defaultMaxRetries       = 3
	defaultBackoffBase      = 100 * time.Microsecond
	defaultBackoffMax       = 20 * time.Millisecond
	defaultBreakerThreshold = 16
	defaultBreakerCooldown  = 50 * time.Millisecond
)

// Validate rejects nonsensical option values (anything below the -1
// disable sentinels or negative durations).
func (o ResilienceOptions) Validate() error {
	if o.OpTimeout < 0 {
		return fmt.Errorf("kv: resilience op_timeout must be non-negative, got %v", o.OpTimeout)
	}
	if o.MaxRetries < -1 {
		return fmt.Errorf("kv: resilience max_retries must be >= -1, got %d", o.MaxRetries)
	}
	if o.BackoffBase < 0 || o.BackoffMax < 0 {
		return fmt.Errorf("kv: resilience backoff durations must be non-negative")
	}
	if o.BreakerThreshold < -1 {
		return fmt.Errorf("kv: resilience breaker_threshold must be >= -1, got %d", o.BreakerThreshold)
	}
	if o.BreakerCooldown < 0 {
		return fmt.Errorf("kv: resilience breaker_cooldown must be non-negative, got %v", o.BreakerCooldown)
	}
	return nil
}

func (o ResilienceOptions) withDefaults() ResilienceOptions {
	if o.MaxRetries == 0 {
		o.MaxRetries = defaultMaxRetries
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = defaultBackoffBase
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = defaultBackoffMax
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = defaultBreakerThreshold
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = defaultBreakerCooldown
	}
	return o
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// ResilientStore wraps a Store with per-operation deadlines, bounded
// retry with exponential backoff and jitter, and a circuit breaker with
// half-open probing. Retries obey RetrySafe: only transient errors are
// retried, and Merge is never retried past an outcome-unknown failure.
// It is safe for concurrent use.
type ResilientStore struct {
	Base
	opts ResilienceOptions

	retries      atomic.Uint64
	timeouts     atomic.Uint64
	breakerTrips atomic.Uint64
	fastFails    atomic.Uint64
	degraded     atomic.Uint64

	jmu sync.Mutex
	rng *rand.Rand

	// Breaker state: written only under bmu, read lock-free on the fast
	// path (state and consecFails are atomics for that reason).
	bmu         sync.Mutex
	state       atomic.Int32
	consecFails atomic.Int32
	openedAt    time.Time
	probing     bool
}

var (
	_ Store              = (*ResilientStore)(nil)
	_ Traceable          = (*ResilientStore)(nil)
	_ ResilienceReporter = (*ResilientStore)(nil)
)

// NewResilientStore wraps inner with opts (validated, then defaulted).
func NewResilientStore(inner Store, opts ResilienceOptions) (*ResilientStore, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	r := &ResilientStore{opts: o, rng: rand.New(rand.NewSource(o.JitterSeed))}
	r.Base = NewBase(r, inner)
	return r, nil
}

// fastOK reports whether an op may skip the resilience pipeline: no
// per-op deadline (that needs the attempt goroutine), breaker closed,
// and no failure streak in progress. In that state a successful first
// attempt needs no bookkeeping at all, which keeps the happy-path
// overhead to two atomic loads.
func (r *ResilientStore) fastOK() bool {
	return r.opts.OpTimeout <= 0 && r.state.Load() == breakerClosed && r.consecFails.Load() == 0
}

// ResilienceCounters implements ResilienceReporter.
func (r *ResilientStore) ResilienceCounters() ResilienceCounters {
	return ResilienceCounters{
		Retries:      r.retries.Load(),
		Timeouts:     r.timeouts.Load(),
		BreakerTrips: r.breakerTrips.Load(),
		FastFails:    r.fastFails.Load(),
		Degraded:     r.degraded.Load(),
	}
}

// Metrics implements Introspector: the resilience counters under
// "resilient.*" plus the live breaker state (0 closed, 1 open, 2
// half-open), merged over the wrapped store's metrics.
func (r *ResilientStore) Metrics() map[string]int64 {
	c := r.ResilienceCounters()
	return mergeMetrics(map[string]int64{
		"resilient.retries":       int64(c.Retries),
		"resilient.timeouts":      int64(c.Timeouts),
		"resilient.breaker_trips": int64(c.BreakerTrips),
		"resilient.fast_fails":    int64(c.FastFails),
		"resilient.degraded_ops":  int64(c.Degraded),
		"resilient.breaker_state": int64(r.state.Load()),
	}, MetricsOf(r.inner))
}

// allow consults the breaker before an attempt. It returns ErrBreakerOpen
// (transient: the store may recover) when the attempt must fail fast, and
// otherwise reports whether this attempt is the half-open probe.
func (r *ResilientStore) allow() (probe bool, err error) {
	if r.opts.BreakerThreshold < 0 {
		return false, nil
	}
	r.bmu.Lock()
	defer r.bmu.Unlock()
	switch r.state.Load() {
	case breakerClosed:
		return false, nil
	case breakerOpen:
		if time.Since(r.openedAt) >= r.opts.BreakerCooldown {
			r.state.Store(breakerHalfOpen)
			r.probing = true
			return true, nil
		}
	case breakerHalfOpen:
		if !r.probing {
			r.probing = true
			return true, nil
		}
	}
	r.fastFails.Add(1)
	return false, ErrBreakerOpen
}

// record feeds an attempt's outcome back into the breaker.
func (r *ResilientStore) record(ok, probe bool) {
	if r.opts.BreakerThreshold < 0 {
		return
	}
	r.bmu.Lock()
	defer r.bmu.Unlock()
	if probe {
		r.probing = false
	}
	if ok {
		r.state.Store(breakerClosed)
		r.consecFails.Store(0)
		return
	}
	fails := r.consecFails.Add(1)
	if r.state.Load() == breakerHalfOpen || int(fails) >= r.opts.BreakerThreshold {
		if r.state.Load() != breakerOpen {
			r.breakerTrips.Add(1)
		}
		r.state.Store(breakerOpen)
		r.openedAt = time.Now()
		r.consecFails.Store(0)
	}
}

// backoff returns the jittered delay before retry attempt n (1-based).
func (r *ResilientStore) backoff(n int) time.Duration {
	d := r.opts.BackoffBase << uint(n-1)
	if d > r.opts.BackoffMax || d <= 0 {
		d = r.opts.BackoffMax
	}
	r.jmu.Lock()
	// ±50% jitter, deterministic under JitterSeed.
	f := 0.5 + r.rng.Float64()
	r.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// contractOK reports whether err is a contract outcome (success, miss,
// unsupported merge) rather than a failure: as far as the breaker and
// the retry budget are concerned, those are successes.
func contractOK(err error) bool {
	return err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrMergeUnsupported)
}

// attempt runs f once. Without a per-op deadline it runs on the caller's
// goroutine and stamps the caller's Ctx. With one, the call is abandoned
// on timeout — its goroutine finishes against the buffered channel and
// its result is dropped — so the Ctx must not cross into it: an
// abandoned attempt stamping a pooled Ctx after Finish would corrupt a
// reused trace. f then runs untraced and the whole attempt is charged to
// StageEngine from this side (the inner breakdown is lost under
// OpTimeout; the stage sum stays intact).
func (r *ResilientStore) attempt(tc *tracing.Ctx, f func(*tracing.Ctx) (TracedResult, error)) (TracedResult, error) {
	if r.opts.OpTimeout <= 0 {
		return f(tc)
	}
	type outcome struct {
		res TracedResult
		err error
	}
	t0 := tc.Now()
	defer tc.AddSince(tracing.StageEngine, t0)
	ch := make(chan outcome, 1)
	go func() {
		res, err := f(nil)
		ch <- outcome{res, err}
	}()
	t := time.NewTimer(r.opts.OpTimeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-t.C:
		r.timeouts.Add(1)
		return TracedResult{}, fmt.Errorf("%w after %v", ErrDeadlineExceeded, r.opts.OpTimeout)
	}
}

// retry is the resilience pipeline for one operation of type op: every
// attempt of f is admitted by the breaker, bounded by attempt and
// reported back to the breaker, and each one after the first waits out
// a jittered backoff, stamped as StageRetry and counted on a sampled
// op's Ctx. A caller whose bare fast-path attempt failed with err
// enters at from = 1; the pipeline records that failure and spends the
// remaining budget. Otherwise from is 0.
func (r *ResilientStore) retry(tc *tracing.Ctx, op Op, from int, err error, f func(*tracing.Ctx) (TracedResult, error)) (TracedResult, error) {
	if from > 0 {
		r.record(false, false)
	}
	for i := from; i < max(1, 1+r.opts.MaxRetries); i++ {
		if i > 0 {
			if !RetrySafe(op, err) {
				break
			}
			r.retries.Add(1)
			tc.Attempt()
			d := r.backoff(i)
			tc.Add(tracing.StageRetry, int64(d))
			time.Sleep(d)
		}
		probe, allowErr := r.allow()
		if allowErr != nil {
			err = allowErr
			continue // the cooldown may elapse during the next backoff
		}
		var res TracedResult
		res, err = r.attempt(tc, f)
		ok := contractOK(err)
		r.record(ok, probe)
		if ok {
			return res, err
		}
	}
	r.degraded.Add(1)
	return TracedResult{}, err
}

// DoTraced implements Traceable and is the body of every operation,
// the plain ones Base serves included. While fastOK holds, the first
// attempt is a bare call into the inner store and a contract outcome
// returns at once; a failure, or a store that is not in the fast state,
// goes through retry. A merge is retried only while RetrySafe holds:
// after an outcome-unknown failure (deadline, lost connection) the error
// surfaces instead, because replaying the operand could duplicate it.
// Scans are reads, so their transient failures retry under the OpScan
// budget. Close reaches the wrapped store through Base directly (no
// retries, no deadline).
func (r *ResilientStore) DoTraced(tc *tracing.Ctx, op TracedOp) (res TracedResult, err error) {
	from := 0
	if r.fastOK() {
		if res, err = DoTraced(r.inner, tc, op); contractOK(err) {
			return res, err
		}
		from = 1
	}
	if r.opts.OpTimeout > 0 {
		// An attempt abandoned at its deadline runs on after this call
		// returns, when the caller may reuse its key and value buffers:
		// the attempts get copies of their own.
		op.Key, op.Val = bytes.Clone(op.Key), bytes.Clone(op.Val)
	}
	return r.retry(tc, op.Op, from, err, func(tc *tracing.Ctx) (TracedResult, error) {
		return DoTraced(r.inner, tc, op)
	})
}

// Snapshot implements Snapshotter, bounding acquisition with the per-op
// deadline and retrying transient failures under the OpScan budget. The
// returned snapshot itself is the inner store's: iteration over it is
// not deadline-bounded (a drain's pacing belongs to the caller). A
// snapshot acquired by an abandoned late attempt is closed, never
// leaked; the first successful acquisition wins.
func (r *ResilientStore) Snapshot() (snap Snapshot, retErr error) {
	var mu sync.Mutex
	var won Snapshot
	failed := false
	f := func(*tracing.Ctx) (TracedResult, error) {
		sn, err := SnapshotOf(r.inner)
		if err == nil {
			mu.Lock()
			if failed || won != nil {
				mu.Unlock()
				sn.Close()
				return TracedResult{}, nil
			}
			won = sn
			mu.Unlock()
		}
		return TracedResult{}, err
	}
	var err error
	if !r.fastOK() {
		_, err = r.retry(nil, OpScan, 0, nil, f)
	} else if _, err = f(nil); err != nil {
		_, err = r.retry(nil, OpScan, 1, err, f)
	}
	mu.Lock()
	defer mu.Unlock()
	if err != nil && won == nil {
		// Tell any still-running abandoned attempt to close what it gets.
		failed = true
		return nil, err
	}
	return won, nil
}
