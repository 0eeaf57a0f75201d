// Command gadget is the benchmark harness CLI. It generates streaming
// state access workloads from a JSON configuration and either issues
// them to a KV store (collecting latency and throughput) or writes them
// to a trace file for later replay. Every run command parses its flags
// into a gadget.Config and runs it through one path, execute, so the
// config a run report echoes re-runs it. Run it without arguments for
// the command list.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gadget"
	"gadget/internal/datasets"
	"gadget/internal/stats"
)

var commands = map[string]func(args []string) error{
	"run": cmdRun, "generate": cmdGenerate, "replay": cmdReplay, "findrate": cmdFindRate,
	"campaign": cmdCampaign, "analyze": cmdAnalyze, "trace": cmdTrace, "list": cmdList,
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, ok := commands[os.Args[1]]
	switch {
	case ok:
		if err := cmd(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "gadget: %v\n", err)
			os.Exit(1)
		}
	case os.Args[1] == "-h" || os.Args[1] == "--help" || os.Args[1] == "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "gadget: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gadget <command> [flags]

commands:
  run       -config cfg.json             run the configuration (run.mode online, open_loop, or offline;
                                         run.trace_path replays that trace instead of generating)
  generate  -config cfg.json             write the state access trace (offline mode)
  replay    -trace t.bin -engine NAME -dir DIR [-addr HOST:PORT] [-rate N] [-concurrency N]
            [-open-loop] [-poisson] [-max-in-flight N]   open-loop: -rate is the offered rate
  findrate  -trace t.bin -engine NAME -low N [-high N] [-slo-p99-ms N] [-max-overload-frac F]
            search the max sustainable offered rate under an intended-arrival p99 SLO
  campaign  -config cfg.json [-engines a,b] [-crash-at n,m] [-ckpt-every n,m] [-out results/campaign.json]
            sweep engines x crash points x checkpoint intervals; emit the RTO/RPO robustness matrix
  analyze   -trace t.bin                 print workload characterization metrics
  trace     -report report.json [-n N] [-sample] [-require-stages a,b]
            pretty-print the report's slow_ops traces as per-stage waterfalls
  list                                   list operators, engines, datasets

crash recovery: a run config with run.checkpoint_every_ops and/or
store.chaos.crash_at_ops replays through scripted mid-run crashes,
restoring from the newest checkpoint in run.checkpoint_dir and
reporting recoveries, RTO, and replayed ops.`)
}

func loadConfig(path string) (gadget.Config, error) {
	if path == "" {
		return gadget.Config{}, fmt.Errorf("-config is required")
	}
	return gadget.LoadConfig(path)
}

// obsFlags registers -metrics-addr and -report. The returned function
// writes the ones given into cfg's obs section, which they override.
func obsFlags(fs *flag.FlagSet) func(cfg *gadget.Config) {
	addr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof on this address (overrides obs.metrics_addr)")
	report := fs.String("report", "", "write a JSON run report to this path (overrides obs.report_path)")
	return func(cfg *gadget.Config) {
		if *addr == "" && *report == "" {
			return
		}
		o := obsOf(*cfg)
		o.MetricsAddr, o.ReportPath = cmp.Or(*addr, o.MetricsAddr), cmp.Or(*report, o.ReportPath)
		cfg.Obs = &o
	}
}

// traceFlags registers the flags replay and findrate share: the trace,
// the store it is replayed against, and the open-loop bounds. The
// returned function maps them onto a Config once fs is parsed, with the
// trace and store paths made absolute, so the config a report echoes
// re-runs from any working directory.
func traceFlags(fs *flag.FlagSet) func() (gadget.Config, error) {
	tracePath := fs.String("trace", "", "trace file")
	engine := fs.String("engine", "memstore", "store engine")
	addr := fs.String("addr", "", "server address for -engine remote")
	dir := fs.String("dir", "", "store directory (temp dir when empty)")
	maxInFlight := fs.Int("max-in-flight", 0, "open-loop bound on queued-but-unserviced events (0 = default)")
	stall := fs.Duration("stall-timeout", 0, "abort a run if no progress for this long (0 = off)")
	return func() (gadget.Config, error) {
		if *tracePath == "" {
			return gadget.Config{}, fmt.Errorf("-trace is required")
		}
		if *stall > 0 && *stall < time.Millisecond {
			return gadget.Config{}, fmt.Errorf("-stall-timeout %v is below the 1ms resolution of run.stall_timeout_ms", *stall)
		}
		trace, err := filepath.Abs(*tracePath)
		if err != nil {
			return gadget.Config{}, err
		}
		storeDir := *dir
		if storeDir != "" {
			if storeDir, err = filepath.Abs(storeDir); err != nil {
				return gadget.Config{}, err
			}
		}
		return gadget.Config{
			Store: gadget.StoreConfig{Engine: *engine, Dir: storeDir, Addr: *addr},
			Run: gadget.RunConfig{
				TracePath:      trace,
				MaxInFlight:    *maxInFlight,
				StallTimeoutMs: stall.Milliseconds(),
			},
		}, nil
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cfgPath := fs.String("config", "", "JSON configuration file")
	applyObs := obsFlags(fs)
	fs.Parse(args)
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		return err
	}
	applyObs(&cfg)
	return execute(cfg, 1)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	cfgPath := fs.String("config", "", "JSON configuration file")
	out := fs.String("out", "", "trace output path (overrides run.trace_path)")
	fs.Parse(args)
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		return err
	}
	if *out != "" {
		cfg.Run.TracePath = *out
	}
	if cfg.Run.TracePath == "" {
		return fmt.Errorf("no trace path: set run.trace_path or -out")
	}
	// The trace is the same whatever the config would run it through; a
	// crash schedule applies to runs only.
	cfg.Run.Mode, cfg.Run.CheckpointEveryOps = "offline", 0
	if cfg.Store.Chaos != nil {
		cfg.Store.Chaos.CrashAtOps = nil
	}
	return execute(cfg, 1)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	traceCfg := traceFlags(fs)
	rate := fs.Float64("rate", 0, "service rate in ops/second (0 = unthrottled); with -open-loop, the offered arrival rate (required)")
	conc := fs.Int("concurrency", 1, "concurrent replayers sharing the store")
	openLoop := fs.Bool("open-loop", false, "open-loop replay: dispatch on intended arrival times, measure coordinated-omission-free latency")
	poisson := fs.Bool("poisson", false, "with -open-loop, use Poisson arrivals at -rate instead of constant spacing")
	seed := fs.Int64("seed", 1, "with -open-loop -poisson, RNG seed for the arrival schedule")
	applyObs := obsFlags(fs)
	fs.Parse(args)
	cfg, err := traceCfg()
	if err != nil {
		return err
	}
	cfg.Source.Seed, cfg.Run.ServiceRate = *seed, *rate
	if *openLoop {
		if *conc > 1 {
			return fmt.Errorf("-open-loop replays with a single service worker; drop -concurrency")
		}
		cfg.Run.Mode, cfg.Run.Rate, cfg.Run.ServiceRate = "open_loop", *rate, 0
		if *poisson {
			cfg.Run.Arrival = "poisson"
		}
	}
	applyObs(&cfg)
	return execute(cfg, *conc)
}

func cmdFindRate(args []string) error {
	fs := flag.NewFlagSet("findrate", flag.ExitOnError)
	traceCfg := traceFlags(fs)
	low := fs.Float64("low", 0, "lower bound of the rate search in ops/second (required)")
	high := fs.Float64("high", 0, "upper bound of the rate search (0 = discover by doubling)")
	sloP99 := fs.Float64("slo-p99-ms", 10, "intended-arrival p99 latency SLO in milliseconds")
	maxOverload := fs.Float64("max-overload-frac", 0.01, "max fraction of offered events that may hit queue overload")
	tol := fs.Float64("tolerance", 0, "relative bisection tolerance (0 = default)")
	maxProbes := fs.Int("max-probes", 0, "probe budget for the search (0 = default)")
	fs.Parse(args)
	cfg, err := traceCfg()
	if err != nil {
		return err
	}
	if *low <= 0 {
		return fmt.Errorf("-low is required and must be positive")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	tr, err := gadget.ReadTrace(cfg.Run.TracePath)
	if err != nil {
		return err
	}
	live, err := openStore(cfg)
	if err != nil {
		return err
	}
	defer live.close()
	open, err := cfg.OpenLoopOptions()
	if err != nil {
		return err
	}
	res, err := gadget.FindSustainableRate(live.get(), tr, gadget.RateSearchOptions{
		Low:       *low,
		High:      *high,
		Tolerance: *tol,
		MaxProbes: *maxProbes,
		SLO: gadget.SLO{
			P99:             time.Duration(*sloP99 * float64(time.Millisecond)),
			MaxOverloadFrac: *maxOverload,
		},
		Open: open,
	})
	if err != nil {
		return err
	}
	for _, p := range res.Probes {
		verdict := "FAIL"
		if p.Pass {
			verdict = "pass"
		}
		fmt.Printf("probe %10.0f ops/s  %s  ip99=%-10v overload=%.4f\n",
			p.Rate, verdict, p.P99.Round(time.Microsecond), p.OverloadFrac)
	}
	if res.Sustainable <= 0 {
		fmt.Printf("no sustainable rate at or above %.0f ops/s under the SLO\n", *low)
		return nil
	}
	fmt.Printf("sustainable %.0f ops/s (p99 <= %.1fms, overload <= %.2f%%, %d probes)\n",
		res.Sustainable, *sloP99, *maxOverload*100, len(res.Probes))
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file")
	fs.Parse(args)
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	tr, err := gadget.ReadTrace(*tracePath)
	if err != nil {
		return err
	}
	a := gadget.Analyze(tr)
	fmt.Printf("accesses            %d\n", len(tr))
	fmt.Printf("composition         get=%.3f put=%.3f merge=%.3f delete=%.3f scan=%.3f\n",
		a.GetShare, a.PutShare, a.MergeShare, a.DeleteShare, a.ScanShare)
	fmt.Printf("distinct state keys %d\n", a.DistinctKeys)
	fmt.Printf("mean stack distance %.2f\n", a.MeanStackDistance)
	fmt.Printf("unique 10-sequences %d\n", a.UniqueSeq10)
	fmt.Printf("max working set     %d\n", a.MaxWorkingSet)
	fmt.Printf("TTL (steps)         p50=%.0f p90=%.0f p99.9=%.0f max=%.0f\n",
		a.TTL.P50, a.TTL.P90, a.TTL.P999, a.TTL.Max)
	fmt.Printf("cache for 10%% miss  %d entries (Mattson LRU curve)\n",
		gadget.RecommendCacheSize(tr, 0.10))
	return nil
}

func cmdList([]string) error {
	fmt.Println("operators:")
	for _, op := range gadget.OperatorTypes() {
		fmt.Printf("  %s\n", op)
	}
	fmt.Println("engines:")
	for _, e := range gadget.Engines() {
		fmt.Printf("  %s\n", e)
	}
	fmt.Println("datasets:")
	for _, d := range datasets.Names() {
		fmt.Printf("  %s\n", d)
	}
	return nil
}

func printResult(res gadget.Result) {
	fmt.Printf("operations %d (misses %d, errors %d)\n", res.Ops, res.Misses, res.Errors)
	if res.Errors > 0 {
		fmt.Printf("errors     transient=%d fatal=%d\n", res.TransientErrors, res.FatalErrors)
	}
	if res.Retries > 0 || res.Timeouts > 0 || res.BreakerTrips > 0 || res.DegradedOps > 0 {
		fmt.Printf("resilience retries=%d timeouts=%d breaker_trips=%d degraded_ops=%d\n",
			res.Retries, res.Timeouts, res.BreakerTrips, res.DegradedOps)
	}
	if res.Degraded {
		fmt.Println("DEGRADED   partial result: run aborted before completion")
	}
	if res.Recoveries > 0 || res.Checkpoints > 0 {
		fmt.Printf("recovery   recoveries=%d rto=%v replayed_ops=%d checkpoints=%d ckpt_cost=%v ckpt_bytes=%d\n",
			res.Recoveries, res.RecoveryTime.Round(time.Microsecond), res.ReplayedOps,
			res.Checkpoints, res.CheckpointCost.Round(time.Microsecond), res.CheckpointBytes)
	}
	fmt.Printf("duration   %v\n", res.Duration.Round(1e6))
	fmt.Printf("throughput %.0f ops/s\n", res.Throughput)
	// Same single Quantiles pass as Result.String() and the exposition.
	q := res.Latency.Quantiles(stats.SummaryQuantiles)
	fmt.Printf("latency    mean=%.2fus p50=%.2fus p90=%.2fus p99=%.2fus p99.9=%.2fus\n",
		res.MeanMicros(), float64(q[0])/1e3, float64(q[1])/1e3, float64(q[2])/1e3, float64(q[3])/1e3)
	if res.Offered > 0 {
		fmt.Printf("open-loop  offered=%.0f/s achieved=%.0f/s overload=%d max_lag=%v\n",
			res.OfferedRate, res.AchievedRate, res.Overload, res.MaxLag.Round(time.Microsecond))
		if res.IntendedLatency != nil {
			fmt.Printf("intended   p50=%.2fus p99=%.2fus p99.9=%.2fus (coordinated-omission-free)\n",
				float64(res.IntendedLatency.Quantile(0.50))/1e3,
				res.IntendedP99Micros(),
				float64(res.IntendedLatency.Quantile(0.999))/1e3)
		}
	}
}
