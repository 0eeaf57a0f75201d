package replay

import (
	"fmt"
	"time"

	"gadget/internal/kv"
)

// Crash recovery: replaying a trace through scripted mid-run crashes.
//
// The recovery model is the one streaming engines (Flink + RocksDB in
// the paper's deployment) actually use: local store state is assumed
// lost at a crash. The runner reopens a *fresh, empty* store, restores
// the newest valid checkpoint into it, rewinds the trace cursor to the
// checkpoint's op watermark, and replays the delta before resuming —
// measuring downtime (RTO) and the replayed-delta size (the RPO proxy)
// as first-class run results instead of leaving recovery to offline
// tests.

// Attempt is one life of the store between crashes.
type Attempt struct {
	// Store serves this attempt's operations.
	Store kv.Store
	// Crash tears the store down the hard way — for durable engines,
	// typically vfs.(*FaultFS).Crash followed by a (failing) Close, so
	// in-flight state dies exactly as a process would. Nil means plain
	// Close with the error ignored: the right model for memory engines,
	// which lose everything on any shutdown.
	Crash func()
}

// StoreFactory opens the store for one attempt. Attempt 0 is the
// initial open; each subsequent call follows a crash and MUST return a
// fresh store seeing only crash-surviving state (recovery restores the
// checkpoint into it and replays the delta — leftover state would make
// the measured RTO a lie). The factory owns placement: a new subdir per
// attempt, a reopened FaultFS inner, a new remote connection.
type StoreFactory func(attempt int) (Attempt, error)

// RecoveryOptions extends Options with a checkpoint cadence and a crash
// schedule.
type RecoveryOptions struct {
	Options
	// CheckpointEvery cuts a checkpoint after every N applied trace ops
	// (0 = never; recovery then falls back to full replay).
	CheckpointEvery uint64
	// Checkpointer saves and restores checkpoints. Required when
	// CheckpointEvery > 0; when nil, crashes recover by full replay.
	// Its directory must survive crashes — checkpoints model durable
	// external storage (DFS in Flink terms), not local disk.
	Checkpointer *kv.Checkpointer
	// CrashAtOps lists the logical trace positions to crash at, strictly
	// increasing: the run crashes after op n has been applied for the
	// first time. Positions at or past the trace length never fire.
	CrashAtOps []uint64
}

// Validate extends Options.Validate with the recovery knobs.
func (o RecoveryOptions) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.CheckpointEvery > 0 && o.Checkpointer == nil {
		return fmt.Errorf("replay: checkpoint interval %d set without a checkpointer", o.CheckpointEvery)
	}
	for i, n := range o.CrashAtOps {
		if n == 0 {
			return fmt.Errorf("replay: crash point must be positive, got 0 at index %d", i)
		}
		if i > 0 && n <= o.CrashAtOps[i-1] {
			return fmt.Errorf("replay: crash points must be strictly increasing, got %d after %d", n, o.CrashAtOps[i-1])
		}
	}
	return nil
}

// RunWithRecovery replays trace through the crash schedule. Result
// counters span all attempts: Ops counts physical applications (so
// Ops - ReplayedOps == len(trace) on a clean finish), Duration is the
// sum of attempt durations plus downtime, and the recovery fields
// (Recoveries, RecoveryTime, ReplayedOps, Checkpoints, CheckpointCost)
// aggregate the whole run. Every attempt's collector runs under the one
// run watchdog, so with StallTimeout set a stalled attempt returns the
// folded partial Result (Degraded=true) and ErrStalled. The final
// attempt's store is left open for the caller to inspect and close —
// capture it in the factory.
func RunWithRecovery(open StoreFactory, trace []kv.Access, opts RecoveryOptions) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	att, err := open(0)
	if err != nil {
		return Result{}, err
	}
	d := &driver{opts: opts.Options}
	attempts, err := d.drive([]kv.Store{att.Store}, func(_ int, c *Collector) error {
		cursor := uint64(0) // logical position: trace[cursor] is next
		crashIdx := 0
		for cursor < uint64(len(trace)) {
			if crashIdx < len(opts.CrashAtOps) && cursor == opts.CrashAtOps[crashIdx] {
				crashIdx++
				crashedAt := time.Now()
				c.Finish()
				if att.Crash != nil {
					att.Crash()
				} else {
					att.Store.Close()
				}
				var err error
				if att, err = open(crashIdx); err != nil {
					return fmt.Errorf("replay: reopening store after crash %d: %w", crashIdx, err)
				}
				watermark := uint64(0)
				if opts.Checkpointer != nil {
					info, err := opts.Checkpointer.Restore(att.Store)
					if err != nil {
						att.Store.Close()
						return fmt.Errorf("replay: restoring checkpoint after crash %d: %w", crashIdx, err)
					}
					watermark = info.Meta.Watermark
				}
				// Downtime ends here: the store is open and restored, ready to
				// re-apply the delta. The new collector's clock starts after,
				// so RTO and attempt durations never overlap.
				downtime := time.Since(crashedAt)
				c = d.collector(att.Store)
				if watermark > cursor {
					return fmt.Errorf("replay: checkpoint watermark %d is past the crash point %d", watermark, cursor)
				}
				c.NoteRecovery(downtime, cursor-watermark)
				cursor = watermark
				continue
			}
			if err := c.Do(trace[cursor]); err != nil {
				return err
			}
			cursor++
			if opts.CheckpointEvery > 0 && cursor%opts.CheckpointEvery == 0 && cursor < uint64(len(trace)) {
				t0 := time.Now()
				_, bytes, err := opts.Checkpointer.Save(att.Store, cursor)
				if err != nil {
					return fmt.Errorf("replay: checkpoint at op %d: %w", cursor, err)
				}
				c.NoteCheckpoint(time.Since(t0), uint64(bytes))
			}
		}
		return nil
	})
	return foldAttempts(attempts), err
}

// foldAttempts merges sequential attempt results into one run view.
// Unlike MergeResults (concurrent workers sharing one store), attempts
// run one after another against separate store lives: durations sum,
// and the resilience and engine deltas sum too — each attempt's delta
// covers a different store instance, so adding them never double
// counts.
func foldAttempts(attempts []Result) Result {
	out := MergeResults(attempts)
	out.Duration = 0
	out.Retries, out.Timeouts, out.BreakerTrips, out.DegradedOps = 0, 0, 0, 0
	out.Engine = nil
	for _, r := range attempts {
		out.Duration += r.Duration
		out.Retries += r.Retries
		out.Timeouts += r.Timeouts
		out.BreakerTrips += r.BreakerTrips
		out.DegradedOps += r.DegradedOps
		if len(r.Engine) > 0 {
			if out.Engine == nil {
				out.Engine = make(map[string]int64, len(r.Engine))
			}
			for k, v := range r.Engine {
				out.Engine[k] += v
			}
		}
	}
	// Each post-crash collector's clock starts after its recovery
	// completed, so the downtime fell in no attempt's window — add it so
	// Duration (and the throughput derived from it) reflect wall time
	// including outages.
	out.Duration += out.RecoveryTime
	out.Throughput = 0
	if out.Duration > 0 {
		out.Throughput = float64(out.Ops) / out.Duration.Seconds()
		if out.Offered > 0 {
			out.OfferedRate = float64(out.Offered) / out.Duration.Seconds()
			out.AchievedRate = out.Throughput
		}
	}
	return out
}
