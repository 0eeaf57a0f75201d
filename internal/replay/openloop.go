package replay

import (
	"fmt"
	"time"

	"gadget/internal/dist"
	"gadget/internal/kv"
	"gadget/internal/tracing"
)

// This file implements the open-loop replay driver. The closed-loop
// replayer (Run) issues the next operation only after the
// previous one returns, so a store stall silently delays every
// subsequent *request* and the measured latencies hide the backlog —
// the coordinated-omission trap. The open-loop driver instead assigns
// each event an intended arrival time from an interarrival Schedule and
// dispatches on the wall clock regardless of store progress: intended
// times never slip, a full in-flight ring is counted as overload (the
// event is delayed, never dropped), and each operation is measured from
// its intended arrival, so queueing delay behind a slow store is
// charged to exactly the operations it delayed.

// Clock abstracts wall time for the open-loop driver so simulated-clock
// tests can drive schedules without real sleeping. The dispatch loop
// and the collector share one Clock, keeping intended-arrival latencies
// on a single timeline with the schedule.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// wallClock is the real-time Clock used outside tests.
type wallClock struct{}

// wallEpoch anchors wallClock.Now: it carries a monotonic reading, so
// Now costs one monotonic clock read where time.Now reads the wall
// clock as well. Only differences between readings are ever used.
var wallEpoch = time.Now()

func (wallClock) Now() time.Time        { return wallEpoch.Add(time.Since(wallEpoch)) }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// DefaultMaxInFlight bounds the open-loop in-flight ring when
// OpenLoopOptions.MaxInFlight is zero.
const DefaultMaxInFlight = 1024

// OpenLoopOptions configures an open-loop replay run.
type OpenLoopOptions struct {
	// Rate is the offered arrival rate in events/second, realized as a
	// constant-gap schedule. Ignored when Arrivals is set.
	Rate float64
	// Arrivals overrides Rate with an explicit interarrival schedule
	// (Poisson, bursts, ...). The schedule is consumed single-threaded by
	// the dispatch loop, so the usual dist seeding rules give
	// deterministic intended timestamps.
	Arrivals dist.Schedule
	// MaxInFlight bounds the ring of admitted arrivals waiting for the
	// store (0 = DefaultMaxInFlight). An event falling due while the ring
	// is full is counted in Result.Overload and delayed — never dropped,
	// so the final store state matches a closed-loop replay of the same
	// trace.
	MaxInFlight int
	// SampleEvery records latency for every Nth operation (0 = every
	// operation).
	SampleEvery int
	// StallTimeout arms the run watchdog, as in Options.StallTimeout.
	StallTimeout time.Duration
	// Observer is handed the run's Collector before the first operation,
	// as in Options.Observer.
	Observer func(*Collector)
	// Tracer samples operations for per-stage latency attribution, as in
	// Options.Tracer; traced open-loop ops additionally carry their
	// dispatch delay as the sched stage.
	Tracer *tracing.Tracer
	// Clock substitutes a fake time source in tests (nil = wall clock).
	Clock Clock
}

// Validate rejects invalid option values. Exactly like Options.Validate
// it rejects rather than corrects: zero values select documented
// defaults, negative ones are errors.
func (o OpenLoopOptions) Validate() error {
	if o.Rate < 0 {
		return fmt.Errorf("replay: open-loop rate must be non-negative, got %v", o.Rate)
	}
	if o.Rate == 0 && o.Arrivals == nil {
		return fmt.Errorf("replay: open-loop replay needs a rate or an arrival schedule")
	}
	if o.MaxInFlight < 0 {
		return fmt.Errorf("replay: max in-flight must be non-negative, got %d", o.MaxInFlight)
	}
	rate := o.Rate
	if o.Arrivals != nil {
		rate = 0 // an explicit schedule sets no fixed gap
	}
	return validateRun(o.SampleEvery, o.StallTimeout, rate, "arrival gap of rate")
}

// pending is one admitted arrival waiting in the in-flight ring.
type pending struct {
	a        kv.Access
	intended time.Time
}

// RunOpenLoop replays a materialized trace against store under an
// open-loop arrival schedule. One dispatch loop admits arrivals as they
// fall due and applies them in trace order, so the final store state is
// identical to a closed-loop replay of the same trace; only the timing
// measurements differ. With StallTimeout set, a stalled run returns its
// partial Result (Degraded=true) and ErrStalled.
func RunOpenLoop(store kv.Store, trace []kv.Access, opts OpenLoopOptions) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	clock := opts.Clock
	if clock == nil {
		clock = wallClock{}
	}
	sched := opts.Arrivals
	if sched == nil {
		sched = dist.NewConstantRate(opts.Rate)
	}
	depth := opts.MaxInFlight
	if depth == 0 {
		depth = DefaultMaxInFlight
	}
	wait := newWaiter(clock)
	d := &driver{clock: clock, opts: Options{
		SampleEvery: opts.SampleEvery, StallTimeout: opts.StallTimeout, Observer: opts.Observer, Tracer: opts.Tracer,
	}}
	return one(d.drive([]kv.Store{store}, func(_ int, c *Collector) error {
		return c.dispatch(NewSliceSource(trace), sched, make([]pending, depth), wait)
	}))
}

// dispatch is the open-loop driver: one loop that admits every arrival
// whose intended time has come into ring, serves the oldest admitted
// arrival, and waits for the next intended time only when ring is empty.
// Intended times accumulate from the schedule alone — t_k = t_0 + the
// first k gaps — and never slip to match a slow store, which is what
// makes intended-arrival latency immune to coordinated omission. An
// arrival that falls due while ring is full is counted once in Overload
// and admitted, intended time unchanged, as soon as a slot frees. The
// store call is synchronous; an asynchronous Submit would turn serve
// into submit and add a reap step here.
func (c *Collector) dispatch(src Source, sched dist.Schedule, ring []pending, wait *waiter) error {
	head, n := 0, 0 // ring[head] is the oldest of the n admitted arrivals
	now := c.clock.Now()
	next := now // intended time of a, the first arrival not yet admitted
	a, more := src.Next()
	counted := false // a is already in Overload
	for more || n > 0 {
		if c.aborted.Load() {
			return ErrAborted
		}
		for more && !next.After(now) {
			if n == len(ring) {
				if !counted {
					c.overload.Add(1)
					counted = true
				}
				break
			}
			c.noteDispatch(now.Sub(next))
			tail := head + n
			if tail >= len(ring) {
				tail -= len(ring)
			}
			ring[tail] = pending{a: a, intended: next}
			n++
			next = next.Add(time.Duration(sched.NextGapNs()))
			a, more = src.Next()
			counted = false
		}
		if n == 0 {
			now = wait.until(next)
			continue
		}
		p := ring[head]
		if head++; head == len(ring) {
			head = 0
		}
		n--
		var err error
		if now, err = c.DoAt(p.a, p.intended); err != nil {
			return err
		}
	}
	return nil
}
