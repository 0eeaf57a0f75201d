// Package replay is Gadget's performance evaluator: it feeds a state
// access stream to a kv.Store, measuring throughput and per-operation
// latency. The built-in trace replayer consumes either materialized
// traces or streaming access sources, supports a configurable service
// rate ("to speed up or slow down the trace arbitrarily", §5.5), and can
// drive one store from several concurrent operators (§6.4).
//
// Operation translation (§5.5) happens inside the store wrappers: the
// LSM engines execute merge natively, while the FASTER- and B+Tree-style
// engines implement Merge as read-modify-write, exactly the mapping the
// paper applies (merge -> rmw / read+update).
//
// The evaluator is failure-aware: store errors are classified transient
// vs fatal (kv.Transient), resilience counters of a wrapped store
// (its "resilient.*" metrics) are reported as per-run deltas, and a run
// watchdog (Options.StallTimeout) aborts stalled runs with partial
// results tagged Degraded instead of hanging.
package replay

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gadget/internal/kv"
	"gadget/internal/stats"
	"gadget/internal/tracing"
)

// Options configures a replay run.
type Options struct {
	// ServiceRate limits the replay to this many ops/second (0 = replay
	// as fast as the store allows). Negative rates are invalid.
	ServiceRate float64
	// SampleEvery records latency for every Nth operation (0 = every
	// operation). Negative values are invalid.
	SampleEvery int
	// StallTimeout arms the run watchdog: when no operation completes
	// for this long, the run is aborted and its partial Result is
	// returned tagged Degraded with ErrStalled (0 = watchdog disabled).
	// Must comfortably exceed the pacing gap implied by ServiceRate.
	StallTimeout time.Duration
	// Observer, when set, is handed every Collector the run creates,
	// right before its first operation. Telemetry samplers hook in here
	// to Snapshot live runs regardless of which Run* entry point drives
	// them. The callback must not retain locks or block.
	Observer func(*Collector)
	// Tracer, when set, samples operations for per-stage latency
	// attribution: every op travels the stack as a kv.TracedOp, a
	// sampled one carrying a tracing.Ctx and an unsampled one a nil Ctx.
	// Latency histograms and counters are identical either way.
	Tracer *tracing.Tracer
}

// Validate rejects option values that earlier versions silently
// "corrected": negative service rates, negative sampling intervals, and
// negative watchdog timeouts. Zero values select the documented default.
func (o Options) Validate() error {
	if o.ServiceRate < 0 {
		return fmt.Errorf("replay: service rate must be non-negative, got %v", o.ServiceRate)
	}
	return validateRun(o.SampleEvery, o.StallTimeout, o.ServiceRate, "pacing gap of service rate")
}

// validateRun holds the checks closed- and open-loop options share:
// non-negative sampling interval and stall timeout, and a stall timeout
// longer than the gap between operations that rate imposes (rate 0
// imposes none). gap names that gap in the error.
func validateRun(sampleEvery int, stall time.Duration, rate float64, gap string) error {
	if sampleEvery < 0 {
		return fmt.Errorf("replay: sample interval must be non-negative, got %d", sampleEvery)
	}
	if stall < 0 {
		return fmt.Errorf("replay: stall timeout must be non-negative, got %v", stall)
	}
	if rate > 0 && stall > 0 {
		if g := time.Duration(float64(time.Second) / rate); g >= stall {
			return fmt.Errorf("replay: stall timeout %v must exceed the %v %s %v", stall, g, gap, rate)
		}
	}
	return nil
}

// fatalErrorLimit aborts a run once this many fatal (non-transient)
// store errors have accumulated.
const fatalErrorLimit = 100

// transientStreakLimit aborts a run once this many transient errors
// arrive with no success in between. Scattered transient failures are
// tolerated in any quantity (retry middleware and chaos tests depend on
// that), but an unbroken streak means the store is down — a dead remote
// server, say — and the run must stop promptly instead of grinding
// through the remaining trace.
const transientStreakLimit = 1000

// Result aggregates a replay run's measurements.
type Result struct {
	// Ops is the number of operations applied.
	Ops uint64
	// Misses counts reads of absent keys (expected in streaming traces:
	// first access of every window is a miss). Misses are never errors.
	Misses uint64
	// Errors counts unexpected store errors
	// (Errors == TransientErrors + FatalErrors).
	Errors uint64
	// TransientErrors counts errors classified retryable (kv.Transient):
	// injected faults, timeouts, open-breaker rejections surfacing after
	// the store's own retry budget.
	TransientErrors uint64
	// FatalErrors counts non-transient errors; more than fatalErrorLimit
	// of them aborts the run.
	FatalErrors uint64
	// Retries, Timeouts, BreakerTrips, DegradedOps are the per-run deltas
	// of the resilience counters, read from Engine's "resilient.*" keys
	// (zero when no kv.ResilientStore surfaces there). When several
	// concurrent runs share one store, each delta covers the whole store,
	// not one runner.
	Retries      uint64
	Timeouts     uint64
	BreakerTrips uint64
	DegradedOps  uint64
	// Engine holds the per-run delta of the store's introspection
	// counters when the store implements kv.Introspector (nil otherwise).
	// Like the resilience deltas, it covers the whole store, so
	// concurrent runs sharing one store each see store-wide movement.
	Engine map[string]int64
	// Degraded marks a partial result: the run was aborted (watchdog
	// stall, error limit) before the source drained.
	Degraded bool
	// Duration is the wall time of the run.
	Duration time.Duration
	// Throughput is Ops divided by Duration, in ops/second.
	Throughput float64
	// Latency is the overall latency histogram in nanoseconds. For
	// open-loop runs this is the *service-time* histogram (measured from
	// the moment the store call starts); see IntendedLatency.
	Latency *stats.Histogram
	// PerOp holds one latency histogram per operation type.
	PerOp [kv.NumOps]*stats.Histogram

	// Open-loop measurements, populated only by the open-loop driver
	// (zero / nil for closed-loop runs).

	// Offered is the number of events the arrival schedule dispatched.
	Offered uint64
	// Overload counts events that fell due while the bounded in-flight
	// ring was full. Overloaded events are delayed, not dropped (state
	// equivalence with closed-loop replay is preserved); the delay is
	// charged to IntendedLatency instead of being absorbed into a
	// rescheduled arrival.
	Overload uint64
	// OfferedRate is Offered divided by Duration (events/second): the
	// load the schedule actually presented.
	OfferedRate float64
	// AchievedRate is the completion rate (== Throughput for open-loop
	// runs; kept explicit so merged and printed results stay coherent).
	AchievedRate float64
	// MaxLag is the maximum dispatch lag: how far past its intended time
	// the dispatch loop admitted an event to the in-flight ring.
	MaxLag time.Duration
	// IntendedLatency measures each operation from its *intended*
	// arrival time to completion, so queueing delay behind a slow store
	// is charged to the operations it really delayed — the
	// coordinated-omission-free view (nil for closed-loop runs).
	IntendedLatency *stats.Histogram

	// Crash-recovery measurements, populated by RunWithRecovery (zero
	// for runs without a crash schedule).

	// Recoveries counts completed crash→reopen→restore cycles.
	Recoveries uint64
	// RecoveryTime is the total downtime across recoveries, measured
	// from each crash to the moment the restored store is ready to
	// resume — the run's RTO. Divide by Recoveries for the mean.
	RecoveryTime time.Duration
	// ReplayedOps counts trace operations re-applied because they
	// post-dated the checkpoint recovered from — the work a checkpoint
	// did not save, the harness's RPO proxy. Ops includes replayed
	// applications, so Ops - ReplayedOps is the trace's logical length
	// on a clean finish.
	ReplayedOps uint64
	// Checkpoints counts checkpoints taken during the run.
	Checkpoints uint64
	// CheckpointCost is the total wall time spent writing checkpoints
	// (charged inline: the run is paused while a checkpoint is cut).
	CheckpointCost time.Duration
	// CheckpointBytes is the total bytes written into checkpoints.
	CheckpointBytes uint64
}

// P999Micros returns the overall p99.9 latency in microseconds.
func (r Result) P999Micros() float64 { return float64(r.Latency.Quantile(0.999)) / 1e3 }

// P99Micros returns the overall p99 latency in microseconds.
func (r Result) P99Micros() float64 { return float64(r.Latency.Quantile(0.99)) / 1e3 }

// MeanMicros returns the mean latency in microseconds.
func (r Result) MeanMicros() float64 { return r.Latency.Mean() / 1e3 }

// IntendedP99 returns the p99 latency measured from intended arrival
// time (zero for closed-loop runs, which have no intended schedule).
func (r Result) IntendedP99() time.Duration {
	if r.IntendedLatency == nil {
		return 0
	}
	return time.Duration(r.IntendedLatency.Quantile(0.99))
}

// IntendedP99Micros returns IntendedP99 in microseconds.
func (r Result) IntendedP99Micros() float64 { return float64(r.IntendedP99()) / 1e3 }

func (r Result) String() string {
	// One Quantiles pass over the shared ladder — the same derivation the
	// Prometheus exposition renders, so the two views cannot drift.
	q := r.Latency.Quantiles(stats.SummaryQuantiles)
	s := fmt.Sprintf("ops=%d thr=%.0f/s mean=%.2fus p50=%.2fus p90=%.2fus p99=%.2fus p99.9=%.2fus",
		r.Ops, r.Throughput, r.MeanMicros(),
		float64(q[0])/1e3, float64(q[1])/1e3, float64(q[2])/1e3, float64(q[3])/1e3)
	if r.Offered > 0 {
		s += fmt.Sprintf(" offered=%.0f/s achieved=%.0f/s lag=%v overload=%d",
			r.OfferedRate, r.AchievedRate, r.MaxLag.Round(time.Microsecond), r.Overload)
		if r.IntendedLatency != nil {
			s += fmt.Sprintf(" ip99=%.2fus", r.IntendedP99Micros())
		}
	}
	if r.Errors > 0 || r.Retries > 0 || r.BreakerTrips > 0 {
		s += fmt.Sprintf(" errs=%d(transient=%d) retries=%d trips=%d", r.Errors, r.TransientErrors, r.Retries, r.BreakerTrips)
	}
	if r.Recoveries > 0 {
		s += fmt.Sprintf(" recoveries=%d rto=%v replayed=%d",
			r.Recoveries, (r.RecoveryTime / time.Duration(r.Recoveries)).Round(time.Microsecond), r.ReplayedOps)
	}
	if r.Checkpoints > 0 {
		s += fmt.Sprintf(" ckpts=%d ckpt_cost=%v", r.Checkpoints, r.CheckpointCost.Round(time.Microsecond))
	}
	if r.Degraded {
		s += " DEGRADED"
	}
	return s + r.engineSummary()
}

// engineSummary renders the most diagnostic introspection deltas —
// compaction count, block cache hit rate, write stall time — as a
// compact suffix, or "" when the store exposes none of them.
func (r Result) engineSummary() string {
	if len(r.Engine) == 0 {
		return ""
	}
	var parts []string
	if v, ok := r.Engine["lsm.compactions"]; ok && v > 0 {
		parts = append(parts, fmt.Sprintf("compactions=%d", v))
	}
	hits, misses := r.Engine["lsm.cache_hits"], r.Engine["lsm.cache_misses"]
	if hits+misses > 0 {
		parts = append(parts, fmt.Sprintf("cache_hit=%.1f%%", 100*float64(hits)/float64(hits+misses)))
	}
	if ns, ok := r.Engine["lsm.stall_nanos"]; ok && ns > 0 {
		parts = append(parts, fmt.Sprintf("stall=%s", time.Duration(ns).Round(time.Microsecond)))
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, " ") + "]"
}

// valuePool provides deterministic pseudo-random value bytes without
// allocating per operation. Stores copy what they retain, so slices of
// the shared buffer are safe to hand out.
var valuePool = func() []byte {
	buf := make([]byte, 1<<20)
	x := uint64(0x243F6A8885A308D3)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
	return buf
}()

// valueOf returns size deterministic bytes (shared, read-only).
func valueOf(size uint32) []byte {
	if size == 0 {
		return nil
	}
	if int(size) > len(valuePool) {
		size = uint32(len(valuePool))
	}
	return valuePool[:size]
}

// Apply executes one access against the store, returning (missed,
// error): the access becomes a kv.TracedOp and enters the store through
// kv.DoTraced, the one dispatch path, which ignores the fields its
// operation does not use and rejects an unknown one. tc is the op's
// trace context, nil for an unsampled op; with one, every layer that
// understands it attributes its share of the latency. A scan access
// covers the tail of its key group: the consistent range
// [Key, {Key.Group, MaxSub}]; an empty result is not a miss.
func Apply(store kv.Store, tc *tracing.Ctx, a kv.Access, keyBuf []byte) (bool, error) {
	_, err := kv.DoTraced(store, tc, kv.TracedOp{
		Op: a.Op, Key: a.Key.Encode(keyBuf[:0]), Val: valueOf(a.Size),
		Lo: a.Key, Hi: a.Key.GroupEnd(),
	})
	if (a.Op == kv.OpGet || a.Op == kv.OpFGet) && errors.Is(err, kv.ErrNotFound) {
		return true, nil
	}
	return false, err
}

// Source yields accesses to replay.
type Source interface {
	Next() (kv.Access, bool)
}

// SliceSource replays a materialized trace.
type SliceSource struct {
	trace []kv.Access
	i     int
}

// NewSliceSource wraps a trace slice (not copied).
func NewSliceSource(trace []kv.Access) *SliceSource { return &SliceSource{trace: trace} }

func (s *SliceSource) Next() (kv.Access, bool) {
	if s.i >= len(s.trace) {
		return kv.Access{}, false
	}
	a := s.trace[s.i]
	s.i++
	return a, true
}

// Run replays a materialized trace against store. With
// Options.StallTimeout set, a stalled run returns its partial Result
// (Degraded=true) and ErrStalled instead of hanging.
func Run(store kv.Store, trace []kv.Access, opts Options) (Result, error) {
	return one(Drive([]kv.Store{store}, opts, func(_ int, c *Collector) error {
		return c.drain(NewSliceSource(trace))
	}))
}

// one returns the Result of a one-worker run.
func one(res []Result, err error) (Result, error) {
	if len(res) == 0 {
		return Result{}, err
	}
	return res[0], err
}

// drain feeds src into Do until src ends or Do fails.
func (c *Collector) drain(src Source) error {
	for {
		a, ok := src.Next()
		if !ok {
			return nil
		}
		if err := c.Do(a); err != nil {
			return err
		}
	}
}

// Collector measures accesses applied one at a time — the online mode of
// the harness, where the workload generator issues requests to the store
// as it produces them. Counter updates are atomic so the run watchdog can
// Snapshot a collector owned by another (possibly stuck) goroutine.
type Collector struct {
	store  kv.Store
	opts   Options
	sample uint64
	res    Result
	keyBuf [kv.KeyLen]byte
	start  time.Time

	i               atomic.Uint64
	misses          atomic.Uint64
	transientErr    atomic.Uint64
	transientStreak atomic.Uint64 // consecutive transient errors, reset on success
	fatalErr        atomic.Uint64
	lastProgress    atomic.Int64 // elapsed() at the last completed op, in ns
	aborted         atomic.Bool
	finished        atomic.Bool

	// pace holds a ServiceRate run to its schedule (nil when unpaced).
	pace *waiter

	// Open-loop accounting, armed at construction for open-loop runs. The
	// clock is the dispatch loop's notion of time (a fake in
	// simulated-clock tests), so intended-arrival latencies stay on one
	// timeline with the schedule.
	clock    Clock
	offered  atomic.Uint64
	overload atomic.Uint64
	maxLagNs atomic.Int64

	// Recovery accounting, fed by NoteRecovery/NoteCheckpoint. Each
	// attempt of a recovery run has its own collector carrying only its
	// own deltas, so merging attempt results never double counts.
	recoveries      atomic.Uint64
	recoveryNs      atomic.Int64
	replayedOps     atomic.Uint64
	checkpoints     atomic.Uint64
	checkpointNs    atomic.Int64
	checkpointBytes atomic.Uint64

	degrade atomic.Bool

	// introBase is the store's introspection snapshot at run start (nil
	// when the store is not a kv.Introspector); fill subtracts it.
	introBase map[string]int64

	// sealMu serializes Finish and Snapshot: a watchdog may snapshot a
	// collector whose worker is concurrently finishing.
	sealMu sync.Mutex
}

// NewCollector starts a measured run against store. It rejects invalid
// options instead of silently correcting them.
func NewCollector(store kv.Store, opts Options) (*Collector, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return newCollector(store, opts, nil), nil
}

// newCollector is NewCollector for validated options. A non-nil clock
// arms open-loop accounting — the intended-arrival histogram, and the
// clock the run's time is read on — before opts.Observer sees the
// collector.
func newCollector(store kv.Store, opts Options, clock Clock) *Collector {
	sample := opts.SampleEvery
	if sample == 0 {
		sample = 1
	}
	var pace *waiter
	if opts.ServiceRate > 0 {
		pace = newWaiter(wallClock{})
	}
	c := &Collector{store: store, opts: opts, sample: uint64(sample), pace: pace, start: time.Now()}
	c.res.Latency = stats.NewHistogram()
	for i := range c.res.PerOp {
		c.res.PerOp[i] = stats.NewHistogram()
	}
	c.introBase = kv.MetricsOf(store)
	if clock != nil {
		c.clock, c.start = clock, clock.Now()
		c.res.IntendedLatency = stats.NewHistogram()
	}
	if opts.Observer != nil {
		opts.Observer(c)
	}
	return c
}

// Store returns the store this collector measures (telemetry samplers
// reached via Options.Observer use it to introspect the engine).
func (c *Collector) Store() kv.Store { return c.store }

// elapsed is the time since the run started, on the run's own clock.
func (c *Collector) elapsed() time.Duration {
	if c.clock != nil {
		return c.clock.Now().Sub(c.start)
	}
	return time.Since(c.start)
}

// DoAt applies and measures one access admitted by the open-loop
// dispatch loop, reading the clock twice: once before the store call —
// the gap back to intended is the dispatch delay, a traced op's
// StageSched — and once after it, which closes service latency and
// intended-arrival latency alike, so queueing delay behind a slow store
// shows up in IntendedLatency. It returns that closing read.
func (c *Collector) DoAt(a kv.Access, intended time.Time) (time.Time, error) {
	if c.aborted.Load() {
		return time.Time{}, ErrAborted
	}
	t0 := c.clock.Now()
	tc := c.opts.Tracer.Start(uint8(a.Op))
	tc.Add(tracing.StageSched, t0.Sub(intended).Nanoseconds())
	missed, err := c.apply(a, tc)
	end := c.clock.Now()
	if c.i.Load()%c.sample == 0 {
		c.recordService(a.Op, end.Sub(t0))
	}
	c.res.IntendedLatency.Record(end.Sub(intended).Nanoseconds())
	return end, c.complete(missed, err, end.Sub(c.start))
}

// noteDispatch records one scheduled event admitted to the in-flight
// ring, and how far past its intended time that happened. Only the
// dispatch loop writes maxLagNs.
func (c *Collector) noteDispatch(lag time.Duration) {
	c.offered.Add(1)
	if ns := lag.Nanoseconds(); ns > c.maxLagNs.Load() {
		c.maxLagNs.Store(ns)
	}
}

// ErrAborted is returned by Do after the collector was aborted (by the
// run watchdog or an explicit Abort call).
var ErrAborted = errors.New("replay: run aborted")

// Abort makes every subsequent Do fail with ErrAborted and tags the
// result Degraded. Safe to call from any goroutine.
func (c *Collector) Abort() {
	c.aborted.Store(true)
	c.degrade.Store(true)
}

// Do applies and measures one access. It returns an error only after the
// store has failed persistently or the run was aborted. Both readings
// around the store call are monotonic-only (time since start), and the
// closing one doubles as the watchdog's progress mark.
func (c *Collector) Do(a kv.Access) error {
	if c.aborted.Load() {
		return ErrAborted
	}
	i := c.i.Load()
	if c.pace != nil {
		// Pace the replay: operation i is due at start + i/rate.
		c.pace.until(c.start.Add(time.Duration(float64(i) / c.opts.ServiceRate * float64(time.Second))))
	}
	measure := i%c.sample == 0
	tc := c.opts.Tracer.Start(uint8(a.Op))
	var t0 time.Duration
	if measure {
		t0 = time.Since(c.start)
	}
	missed, err := c.apply(a, tc)
	end := time.Since(c.start)
	if measure {
		c.recordService(a.Op, end-t0)
	}
	return c.complete(missed, err, end)
}

// apply runs one access against the store and finishes its trace (a
// no-op for an unsampled one, whose tc is nil).
func (c *Collector) apply(a kv.Access, tc *tracing.Ctx) (bool, error) {
	missed, err := Apply(c.store, tc, a, c.keyBuf[:])
	c.opts.Tracer.Finish(tc)
	return missed, err
}

func (c *Collector) recordService(op kv.Op, lat time.Duration) {
	c.res.Latency.Record(lat.Nanoseconds())
	c.res.PerOp[op].Record(lat.Nanoseconds())
}

// complete counts one finished operation: the miss, the progress mark
// the watchdog reads (elapsed is the operation's closing clock read as
// time since start) and the error accounting that ends a run whose
// store has failed persistently.
func (c *Collector) complete(missed bool, err error, elapsed time.Duration) error {
	if missed {
		c.misses.Add(1)
	}
	c.i.Add(1)
	c.lastProgress.Store(int64(elapsed))
	if err != nil {
		if kv.Transient(err) {
			c.transientErr.Add(1)
			if streak := c.transientStreak.Add(1); streak >= transientStreakLimit {
				c.degrade.Store(true)
				return fmt.Errorf("replay: store persistently failing (%d consecutive transient errors), last: %w", streak, err)
			}
		} else if fatal := c.fatalErr.Add(1); fatal > fatalErrorLimit {
			c.degrade.Store(true)
			return fmt.Errorf("replay: too many fatal store errors (%d), last: %w", fatal, err)
		}
	} else if c.transientStreak.Load() != 0 {
		c.transientStreak.Store(0)
	}
	return nil
}

// NoteRecovery records one completed crash→restore cycle: its downtime
// and the number of trace ops the resumed run will have to re-apply.
func (c *Collector) NoteRecovery(downtime time.Duration, replayed uint64) {
	c.recoveries.Add(1)
	c.recoveryNs.Add(downtime.Nanoseconds())
	c.replayedOps.Add(replayed)
}

// NoteCheckpoint records one checkpoint cut during the run.
func (c *Collector) NoteCheckpoint(cost time.Duration, bytes uint64) {
	c.checkpoints.Add(1)
	c.checkpointNs.Add(cost.Nanoseconds())
	c.checkpointBytes.Add(bytes)
}

// fill copies the atomic counters into a Result.
func (c *Collector) fill(res *Result) {
	res.Ops = c.i.Load()
	res.Misses = c.misses.Load()
	res.TransientErrors = c.transientErr.Load()
	res.FatalErrors = c.fatalErr.Load()
	res.Errors = res.TransientErrors + res.FatalErrors
	res.Degraded = c.degrade.Load()
	res.Engine = kv.MetricsDelta(kv.MetricsOf(c.store), c.introBase)
	res.Retries = uint64(res.Engine["resilient.retries"])
	res.Timeouts = uint64(res.Engine["resilient.timeouts"])
	res.BreakerTrips = uint64(res.Engine["resilient.breaker_trips"])
	res.DegradedOps = uint64(res.Engine["resilient.degraded_ops"])
	res.Recoveries = c.recoveries.Load()
	res.RecoveryTime = time.Duration(c.recoveryNs.Load())
	res.ReplayedOps = c.replayedOps.Load()
	res.Checkpoints = c.checkpoints.Load()
	res.CheckpointCost = time.Duration(c.checkpointNs.Load())
	res.CheckpointBytes = c.checkpointBytes.Load()
	res.Duration = c.elapsed()
	if res.Duration > 0 {
		res.Throughput = float64(res.Ops) / res.Duration.Seconds()
	}
	if c.res.IntendedLatency != nil {
		res.Offered = c.offered.Load()
		res.Overload = c.overload.Load()
		res.MaxLag = time.Duration(c.maxLagNs.Load())
		res.AchievedRate = res.Throughput
		if res.Duration > 0 {
			res.OfferedRate = float64(res.Offered) / res.Duration.Seconds()
		}
	}
}

// Finish seals the run and returns its measurements. Later calls return
// the same sealed measurements.
func (c *Collector) Finish() Result {
	c.sealMu.Lock()
	defer c.sealMu.Unlock()
	if !c.finished.Swap(true) {
		c.fill(&c.res)
	}
	return c.res
}

// Snapshot returns a point-in-time copy of the measurements without
// sealing the run — of a sealed run, a copy of its sealed measurements.
// Safe to call concurrently with Do; the histograms are copied.
func (c *Collector) Snapshot() Result {
	c.sealMu.Lock()
	defer c.sealMu.Unlock()
	res := c.res
	res.Latency = stats.NewHistogram()
	res.Latency.Merge(c.res.Latency)
	for i := range res.PerOp {
		res.PerOp[i] = stats.NewHistogram()
		res.PerOp[i].Merge(c.res.PerOp[i])
	}
	if c.res.IntendedLatency != nil {
		res.IntendedLatency = stats.NewHistogram()
		res.IntendedLatency.Merge(c.res.IntendedLatency)
	}
	if !c.finished.Load() {
		c.fill(&res)
	}
	return res
}

// MergeResults folds per-worker Results into one run-wide view: op,
// error, and open-loop offered/overload counters sum, latency histograms
// (service and intended-arrival) merge, Duration is the longest
// worker's, MaxLag the worst worker's, and the run-wide rates
// (Throughput, OfferedRate, AchievedRate) are recomputed from the merged
// totals. The resilience and engine deltas are NOT summed — when workers
// share one store each worker's delta already covers the whole store, so
// the merge takes the maximum seen instead of multiply counting it.
func MergeResults(results []Result) Result {
	out := Result{Latency: stats.NewHistogram()}
	for i := range out.PerOp {
		out.PerOp[i] = stats.NewHistogram()
	}
	for _, r := range results {
		out.Ops += r.Ops
		out.Misses += r.Misses
		out.Errors += r.Errors
		out.TransientErrors += r.TransientErrors
		out.FatalErrors += r.FatalErrors
		out.Offered += r.Offered
		out.Overload += r.Overload
		out.Recoveries += r.Recoveries
		out.RecoveryTime += r.RecoveryTime
		out.ReplayedOps += r.ReplayedOps
		out.Checkpoints += r.Checkpoints
		out.CheckpointCost += r.CheckpointCost
		out.CheckpointBytes += r.CheckpointBytes
		out.Retries = max(out.Retries, r.Retries)
		out.Timeouts = max(out.Timeouts, r.Timeouts)
		out.BreakerTrips = max(out.BreakerTrips, r.BreakerTrips)
		out.DegradedOps = max(out.DegradedOps, r.DegradedOps)
		out.Degraded = out.Degraded || r.Degraded
		if r.Duration > out.Duration {
			out.Duration = r.Duration
		}
		if r.MaxLag > out.MaxLag {
			out.MaxLag = r.MaxLag
		}
		if r.Latency != nil {
			out.Latency.Merge(r.Latency)
		}
		if r.IntendedLatency != nil {
			if out.IntendedLatency == nil {
				out.IntendedLatency = stats.NewHistogram()
			}
			out.IntendedLatency.Merge(r.IntendedLatency)
		}
		for i, h := range r.PerOp {
			if h != nil {
				out.PerOp[i].Merge(h)
			}
		}
		if r.Engine != nil {
			out.Engine = r.Engine
		}
	}
	if out.Duration > 0 {
		out.Throughput = float64(out.Ops) / out.Duration.Seconds()
		if out.Offered > 0 {
			out.OfferedRate = float64(out.Offered) / out.Duration.Seconds()
			out.AchievedRate = out.Throughput
		}
	}
	return out
}

// RunConcurrent replays several traces against one shared store, one
// goroutine per trace — the paper's concurrent-operators experiment
// (§6.4: multiple Gadget instances configured to access the same store).
// With Options.StallTimeout set, one stalled worker aborts the whole run:
// every worker's partial Result comes back Degraded with ErrStalled.
func RunConcurrent(store kv.Store, traces [][]kv.Access, opts Options) ([]Result, error) {
	stores := make([]kv.Store, len(traces))
	for i := range stores {
		stores[i] = store
	}
	return Drive(stores, opts, func(i int, c *Collector) error {
		return c.drain(NewSliceSource(traces[i]))
	})
}
