package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"gadget"
	"gadget/internal/obs"
	"gadget/internal/replay"
)

// obsOf returns cfg's obs section, or its defaults (a 1s sampler, no
// listener, no report) when there is none.
func obsOf(cfg gadget.Config) gadget.ObsConfig {
	if cfg.Obs != nil {
		return *cfg.Obs
	}
	return gadget.ObsConfig{SampleIntervalMs: 1000}
}

// telemetry bundles one run's observability surfaces: the metrics
// listener, the run sampler, and the report writer. A nil *telemetry is
// valid and inert, so call sites don't need to branch on whether any
// surface was requested.
type telemetry struct {
	reg     *obs.Registry
	srv     *obs.MetricsServer
	sampler *obs.Sampler
	store   gadget.Introspector
	tracer  *gadget.Tracer

	cfg         gadget.Config
	engineStart map[string]int64

	mu   sync.Mutex
	cols []*replay.Collector
}

// startTelemetry assembles the observability rig the obs section of
// cfg asks for. store is the metrics source of the run's engine.
// Returns nil when no surface is active (no listener, no report, no
// tracer, not a terminal).
func startTelemetry(cfg gadget.Config, store gadget.Introspector) (*telemetry, error) {
	o := obsOf(cfg)
	var tracer *gadget.Tracer
	if o.Trace {
		tracer = gadget.NewTracer(gadget.TracerOptions{SampleN: o.TraceSampleN, SlowK: o.TraceSlowK})
	}
	var progress io.Writer // live progress lines go to a terminal, not to pipes or logs
	if fi, err := os.Stderr.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
		progress = os.Stderr
	}
	if o.MetricsAddr == "" && o.ReportPath == "" && progress == nil && tracer == nil {
		return nil, nil
	}
	t := &telemetry{
		store:       store,
		cfg:         cfg,
		engineStart: store.Metrics(),
		tracer:      tracer,
	}
	if o.MetricsAddr != "" {
		t.reg = obs.NewRegistry()
		obs.RegisterStoreCollector(t.reg, store)
		obs.RegisterTracerCollector(t.reg, tracer)
		srv, err := obs.Serve(o.MetricsAddr, t.reg)
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		t.srv = srv
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof)\n", srv.Addr())
	}
	sampler, err := obs.StartSampler(obs.SamplerOptions{
		Interval: time.Duration(o.SampleIntervalMs) * time.Millisecond,
		Snapshot: t.snapshot,
		Store:    store,
		Progress: progress,
		Registry: t.reg,
	})
	if err != nil {
		if t.srv != nil {
			t.srv.Close()
		}
		return nil, err
	}
	t.sampler = sampler
	return t, nil
}

// hook points opts's Observer and Tracer at the rig (none when no
// telemetry is active).
func (t *telemetry) hook(opts *gadget.ReplayOptions) {
	if t != nil {
		opts.Observer, opts.Tracer = t.observe, t.tracer
	}
}

// observe registers every collector the run creates so snapshot can
// fold them.
func (t *telemetry) observe(c *replay.Collector) {
	t.mu.Lock()
	t.cols = append(t.cols, c)
	t.mu.Unlock()
}

// snapshot merges the live collectors' measurements.
func (t *telemetry) snapshot() replay.Result {
	t.mu.Lock()
	cols := append([]*replay.Collector(nil), t.cols...)
	t.mu.Unlock()
	results := make([]replay.Result, len(cols))
	for i, c := range cols {
		results[i] = c.Snapshot()
	}
	return replay.MergeResults(results)
}

// finish seals the run: it stops the sampler with the final result,
// writes the report if one was requested, and shuts the listener down.
// The report's config field is the run's validated configuration, so
// feeding it back to `gadget run` repeats the run.
func (t *telemetry) finish(final gadget.Result) error {
	if t == nil {
		return nil
	}
	series := t.sampler.Stop(final)
	if t.srv != nil {
		defer t.srv.Close()
	}
	path := obsOf(t.cfg).ReportPath
	if path == "" {
		return nil
	}
	rep := &obs.Report{
		Store:       t.cfg.Store.Engine,
		Config:      t.cfg,
		Result:      obs.Summarize(final),
		EngineStart: t.engineStart,
		EngineEnd:   t.store.Metrics(),
		EngineDelta: final.Engine,
		Series:      series,
		SlowOps:     gadget.TracerSnapshot(t.tracer),
	}
	if err := obs.WriteReport(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "report written to %s\n", path)
	return nil
}
