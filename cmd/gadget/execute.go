package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gadget"
)

// execute runs one configuration, the single run path of every command.
// Offline mode generates the workload and writes run.trace_path; the
// other modes replay run.trace_path when it is set and generate the
// workload when it is not, against the configured store: closed-loop,
// open-loop, or through a crash schedule. The report echoes the
// validated cfg, so its config re-runs the run. concurrency > 1 replays
// the trace on that many closed-loop workers sharing the store; it is
// not part of the configuration.
func execute(cfg gadget.Config, concurrency int) error {
	w, err := gadget.NewWorkload(cfg)
	if err != nil {
		return err
	}
	cfg = w.Config()
	var tr []gadget.Access
	switch {
	case cfg.Run.Mode == "offline":
		if tr, err = w.Generate(); err != nil {
			return err
		}
		if err := gadget.WriteTrace(cfg.Run.TracePath, tr); err != nil {
			return err
		}
		fmt.Printf("wrote %d accesses to %s\n", len(tr), cfg.Run.TracePath)
		return nil
	case cfg.Run.TracePath != "":
		tr, err = gadget.ReadTrace(cfg.Run.TracePath)
	case cfg.Run.Mode == "open_loop" || cfg.Recovery():
		// Arrival and crash schedules address positions in a
		// materialized trace.
		tr, err = w.Generate()
	}
	if err != nil {
		return err
	}
	live, err := openStore(cfg)
	if err != nil {
		return err
	}
	defer live.close()
	store := live.get()
	tel, err := startTelemetry(cfg, live)
	if err != nil {
		return err
	}
	if cfg.Generates() {
		fmt.Printf("operator   %s\n", cfg.Operator.Operator)
	} else {
		fmt.Printf("trace      %s\n", cfg.Run.TracePath)
	}
	fmt.Printf("engine     %s\n", cfg.Store.Engine)
	opts := cfg.ReplayOptions()
	tel.hook(&opts)
	var res gadget.Result
	var workers []gadget.Result
	switch {
	case cfg.Recovery():
		// Checkpoints stand in for durable external storage: they live
		// outside the attempt directories a crash abandons.
		var ck *gadget.Checkpointer
		if n := cfg.Run.CheckpointEveryOps; n > 0 {
			dir := cfg.Run.CheckpointDir
			if dir == "" {
				dir = live.cfg.Dir + "-checkpoints"
			}
			ck = &gadget.Checkpointer{Dir: dir, Engine: cfg.Store.Engine}
			fmt.Printf("checkpoint %s (every %d ops)\n", dir, n)
		}
		var ro gadget.RecoveryOptions
		if ro, err = cfg.RecoveryOptions(ck); err != nil {
			return err
		}
		ro.Options = opts
		// Crash is left nil: on the real filesystem a crash is a plain
		// Close plus the abandoned attempt directory. Crashes that lose
		// in-flight writes run on a FaultFS, in `gadget campaign`.
		res, err = gadget.RunWithRecovery(func(attempt int) (gadget.Attempt, error) {
			if attempt == 0 {
				return gadget.Attempt{Store: store}, nil
			}
			s, err := live.open(attempt)
			return gadget.Attempt{Store: s}, err
		}, tr, ro)
	case cfg.Run.Mode == "open_loop":
		var ol gadget.OpenLoopOptions
		if ol, err = cfg.OpenLoopOptions(); err != nil {
			return err
		}
		ol.Observer, ol.Tracer = opts.Observer, opts.Tracer
		res, err = gadget.ReplayOpenLoop(store, tr, ol)
	case tr == nil:
		res, err = w.RunOnline(store, opts)
	case concurrency > 1:
		traces := make([][]gadget.Access, concurrency)
		for i := range traces {
			traces[i] = tr
		}
		workers, err = gadget.ReplayConcurrent(store, traces, opts)
		res = gadget.MergeResults(workers)
	default:
		res, err = gadget.Replay(store, tr, opts)
	}
	ferr := tel.finish(res)
	if err != nil && !errors.Is(err, gadget.ErrStalled) {
		return err
	}
	if ferr != nil {
		return ferr
	}
	if workers == nil {
		printResult(res)
	}
	for i, r := range workers {
		fmt.Printf("replayer %d:\n", i)
		printResult(r)
	}
	if slo := cfg.Run.SLOP99Ms; slo > 0 && res.IntendedLatency != nil {
		verdict := "MET"
		if res.IntendedP99Micros() > slo*1000 || res.Degraded {
			verdict = "VIOLATED"
		}
		fmt.Printf("slo        intended p99 <= %.1fms: %s\n", slo, verdict)
	}
	if errors.Is(err, gadget.ErrStalled) {
		return fmt.Errorf("run stalled after %d ops (partial results above)", res.Ops)
	}
	return nil
}

// liveStore is a run's store. It opens the store once, or once per
// attempt in a recovery run, and is the metrics source telemetry reads
// the newest attempt through.
type liveStore struct {
	cfg      gadget.StoreConfig // store.dir filled in
	attempts bool               // each attempt opens its own subdirectory
	tmp      string             // the temporary directory close removes

	mu sync.Mutex
	s  gadget.Store
}

// openStore opens attempt 0 of cfg's store. A run without store.dir
// gets a fresh temporary directory; cfg keeps the empty dir, so a
// re-run of its report makes a fresh one too.
func openStore(cfg gadget.Config) (*liveStore, error) {
	l := &liveStore{cfg: cfg.Store, attempts: cfg.Recovery()}
	// Traced remote clients negotiate server handle stamps at hello, so
	// the flag must be set before the store is dialed.
	l.cfg.Traced = cfg.Traced()
	if l.cfg.Dir == "" {
		tmp, err := os.MkdirTemp("", "gadget-*")
		if err != nil {
			return nil, err
		}
		l.tmp, l.cfg.Dir = tmp, filepath.Join(tmp, "db")
	}
	if _, err := l.open(0); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// open opens an attempt's store and makes it the live one. A crash
// abandons the previous attempt's local state (the Flink recovery model).
func (l *liveStore) open(attempt int) (gadget.Store, error) {
	sc := l.cfg
	if l.attempts {
		sc.Dir = filepath.Join(sc.Dir, fmt.Sprintf("attempt-%d", attempt))
	}
	s, err := gadget.OpenStore(sc)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.s = s
	l.mu.Unlock()
	return s, nil
}

func (l *liveStore) get() gadget.Store { l.mu.Lock(); defer l.mu.Unlock(); return l.s }

// Metrics implements gadget.Introspector.
func (l *liveStore) Metrics() map[string]int64 { return gadget.StoreMetrics(l.get()) }

// close closes the live store and removes the temporary directory.
func (l *liveStore) close() {
	if s := l.get(); s != nil {
		s.Close()
	}
	if l.tmp != "" {
		os.RemoveAll(l.tmp)
	}
}
