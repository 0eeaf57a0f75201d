package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"gadget"
)

// currentStore is a switchable store handle: recovery runs reopen the
// store after every crash, but the telemetry rig captures one Store at
// startup. The factory points this at each new attempt so the sampler
// and /metrics always read the live instance.
type currentStore struct {
	mu sync.Mutex
	s  gadget.Store
}

func (c *currentStore) set(s gadget.Store) { c.mu.Lock(); c.s = s; c.mu.Unlock() }

func (c *currentStore) get() gadget.Store { c.mu.Lock(); defer c.mu.Unlock(); return c.s }

func (c *currentStore) Get(key []byte) ([]byte, error)  { return c.get().Get(key) }
func (c *currentStore) Put(key, value []byte) error     { return c.get().Put(key, value) }
func (c *currentStore) Merge(key, operand []byte) error { return c.get().Merge(key, operand) }
func (c *currentStore) Delete(key []byte) error         { return c.get().Delete(key) }
func (c *currentStore) Close() error                    { return nil } // lifecycle owned by the factory

// Metrics implements kv.Introspector by delegation, so engine counters
// keep flowing across attempts.
func (c *currentStore) Metrics() map[string]int64 {
	s := c.get()
	if s == nil {
		return nil
	}
	return gadget.StoreMetrics(s)
}

// runRecovery is the crash-recovery run path of `gadget run`, taken
// when the config sets run.checkpoint_every_ops and/or
// store.chaos.crash_at_ops. The trace is materialized up front (the
// crash schedule addresses logical op positions, and post-crash replay
// must re-issue identical operations), each attempt opens the store in
// its own subdirectory (crash = the previous attempt's local state is
// abandoned, the Flink recovery model), and checkpoints go to
// run.checkpoint_dir, which stands in for durable external storage.
func runRecovery(cfg gadget.Config, w *gadget.Workload, metricsAddr, reportPath string) error {
	tr, err := w.Generate()
	if err != nil {
		return err
	}
	ckDir := cfg.Run.CheckpointDir
	if ckDir == "" {
		if cfg.Store.Dir != "" {
			ckDir = cfg.Store.Dir + "-checkpoints"
		} else {
			tmp, err := os.MkdirTemp("", "gadget-checkpoints-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			ckDir = tmp
		}
	}
	var ck *gadget.Checkpointer
	if cfg.Run.CheckpointEveryOps > 0 {
		ck = &gadget.Checkpointer{Dir: ckDir, Engine: cfg.Store.Engine}
	}
	opts, err := cfg.RecoveryOptions(ck)
	if err != nil {
		return err
	}

	cur := &currentStore{}
	tel, err := startTelemetry(metricsAddr, reportPath, cfg.Obs, cur, cfg.Store.Engine)
	if err != nil {
		return err
	}
	opts.Observer = tel.observer()

	var last gadget.Store
	open := func(attempt int) (gadget.Attempt, error) {
		scfg := cfg.Store
		if scfg.Dir != "" {
			scfg.Dir = filepath.Join(cfg.Store.Dir, fmt.Sprintf("attempt-%d", attempt))
		}
		s, err := gadget.OpenStore(scfg)
		if err != nil {
			return gadget.Attempt{}, err
		}
		last = s
		cur.set(s)
		// Crash is left nil: on the real filesystem the teardown is a
		// plain Close, and the crash's state loss comes from abandoning
		// the attempt directory. Severed-filesystem crashes (in-flight
		// writes lost) are exercised by `gadget campaign` and the
		// differential crash suites, which run on a FaultFS.
		return gadget.Attempt{Store: s}, nil
	}
	res, err := gadget.RunWithRecovery(open, tr, opts)
	if last != nil {
		defer last.Close()
	}
	if err != nil && !errors.Is(err, gadget.ErrStalled) {
		tel.finish(res, cfg)
		return err
	}
	if ferr := tel.finish(res, cfg); ferr != nil {
		return ferr
	}
	fmt.Printf("operator   %s\n", cfg.Operator.Operator)
	fmt.Printf("engine     %s\n", cfg.Store.Engine)
	if ck != nil {
		fmt.Printf("checkpoint %s (every %d ops)\n", ckDir, cfg.Run.CheckpointEveryOps)
	}
	printResult(res)
	if errors.Is(err, gadget.ErrStalled) {
		return fmt.Errorf("run stalled after %d ops (partial results above)", res.Ops)
	}
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	cfgPath := fs.String("config", "", "JSON configuration file (workload and store sizing)")
	engines := fs.String("engines", "", "comma-separated engines to sweep (default: every local engine)")
	crashAt := fs.String("crash-at", "", "comma-separated crash points in ops (default: 0 and half the trace)")
	intervals := fs.String("ckpt-every", "", "comma-separated checkpoint intervals in ops (default: 0 and a tenth of the trace)")
	out := fs.String("out", "results/campaign.json", "robustness matrix JSON output path")
	fs.Parse(args)
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		return err
	}
	w, err := gadget.NewWorkload(cfg)
	if err != nil {
		return err
	}
	tr, err := w.Generate()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign: trace has %d accesses\n", len(tr))
	opts := gadget.CampaignOptions{Trace: tr, Store: cfg.Store}
	if *engines != "" {
		opts.Engines = strings.Split(*engines, ",")
	}
	if opts.CrashPoints, err = parseU64List(*crashAt); err != nil {
		return fmt.Errorf("-crash-at: %w", err)
	}
	if opts.Intervals, err = parseU64List(*intervals); err != nil {
		return fmt.Errorf("-ckpt-every: %w", err)
	}
	m, err := gadget.RunCampaign(opts, func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	})
	if err != nil {
		return err
	}
	data, err := m.JSON()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	if err := m.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("matrix written to %s\n", *out)
	return nil
}

func parseU64List(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
