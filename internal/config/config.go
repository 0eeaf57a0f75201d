// Package config parses the JSON configuration files that drive the
// gadget CLI, covering the three concerns of a run: the input source
// (synthetic generator or dataset), the operator, and the store plus
// replay options (paper Figure 8's configuration file).
package config

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"gadget/internal/core"
	"gadget/internal/datasets"
	"gadget/internal/dist"
	"gadget/internal/eventgen"
	"gadget/internal/kv"
	"gadget/internal/replay"
	"gadget/internal/stores"
)

// Config is the top-level configuration document.
type Config struct {
	Source   SourceConfig  `json:"source"`
	Operator core.Config   `json:"operator"`
	Store    stores.Config `json:"store"`
	Run      RunConfig     `json:"run"`
	Obs      *ObsConfig    `json:"obs,omitempty"`
}

// ObsConfig tunes the observability layer. Absent (nil) means defaults:
// telemetry sampling at 1s, no metrics listener, no report file. The
// CLI's -metrics-addr and -report flags override these fields.
type ObsConfig struct {
	// SampleIntervalMs is the telemetry sampler period. Must be positive
	// when the section is present (0 would mean a busy-looping sampler;
	// it is rejected at parse time, like store.resilience's knobs).
	SampleIntervalMs int64 `json:"sample_interval_ms"`
	// MetricsAddr, when non-empty, starts an HTTP listener serving
	// /metrics, /debug/vars, and /debug/pprof.
	MetricsAddr string `json:"metrics_addr"`
	// ReportPath, when non-empty, writes the JSON run report there.
	ReportPath string `json:"report_path"`
	// Trace enables per-operation latency attribution: sampled ops carry
	// a trace context through every layer, per-stage histograms feed the
	// metrics exposition, and the report gains a slow_ops section.
	Trace bool `json:"trace"`
	// TraceSampleN traces 1 in N operations (0 = default 64, 1 = every
	// op). Ignored unless Trace is set.
	TraceSampleN int `json:"trace_sample_n"`
	// TraceSlowK retains the K slowest complete traces in the flight
	// recorder (0 = default 16). Ignored unless Trace is set.
	TraceSlowK int `json:"trace_slow_k"`
}

// Validate rejects unusable sampler settings.
func (o *ObsConfig) Validate() error {
	if o.SampleIntervalMs <= 0 {
		return fmt.Errorf("obs.sample_interval_ms must be positive, got %d", o.SampleIntervalMs)
	}
	if o.TraceSampleN < 0 {
		return fmt.Errorf("obs.trace_sample_n must be non-negative, got %d", o.TraceSampleN)
	}
	if o.TraceSlowK < 0 {
		return fmt.Errorf("obs.trace_slow_k must be non-negative, got %d", o.TraceSlowK)
	}
	return nil
}

// Traced reports whether the config enables per-op tracing.
func (c *Config) Traced() bool { return c.Obs != nil && c.Obs.Trace }

// SourceConfig describes the input stream.
type SourceConfig struct {
	// Type is "synthetic" (default) or "dataset".
	Type string `json:"type"`
	// Dataset names a built-in dataset ("borg", "taxi", "azure").
	Dataset string `json:"dataset"`
	// Scale multiplies dataset sizes (1.0 = paper scale).
	Scale float64 `json:"scale"`
	// Synthetic generator parameters.
	Events        int       `json:"events"`
	Keys          uint64    `json:"keys"`
	KeyDist       dist.Kind `json:"key_dist"`
	RatePerSec    float64   `json:"rate_per_sec"`
	Poisson       bool      `json:"poisson"`
	ValueSize     uint32    `json:"value_size"`
	LateFraction  float64   `json:"late_fraction"`
	MaxLatenessMs int64     `json:"max_lateness_ms"`
	Seed          int64     `json:"seed"`
	// ECDFKeys/ECDFWeights supply a user empirical key distribution
	// overriding key_dist.
	ECDFKeys    []uint64  `json:"ecdf_keys"`
	ECDFWeights []float64 `json:"ecdf_weights"`
	// Hotspot tuning for key_dist "hotspot" and "drifting_hotspot":
	// HotFrac of the keys receive HotProb of the accesses (0 = the 0.2 /
	// 0.8 defaults). For "drifting_hotspot" the hot window additionally
	// re-centers every DriftEvery samples (0 = 10000), advancing by
	// DriftStep keys, or jumping to a seeded random position when
	// DriftStep is 0.
	HotFrac    float64 `json:"hot_frac"`
	HotProb    float64 `json:"hot_prob"`
	DriftEvery uint64  `json:"drift_every"`
	DriftStep  uint64  `json:"drift_step"`
	// Watermarking.
	WatermarkEvery   int   `json:"watermark_every"`
	WatermarkSlackMs int64 `json:"watermark_slack_ms"`
}

// BurstConfig is one phase of an open-loop burst schedule.
type BurstConfig struct {
	// RatePerSec is the phase's arrival rate in events/second.
	RatePerSec float64 `json:"rate_per_sec"`
	// DurationMs is the phase length in milliseconds of schedule time.
	DurationMs int64 `json:"duration_ms"`
}

// RunConfig describes what to do with the generated workload.
type RunConfig struct {
	// Mode is "online" (drive the store while generating), "offline"
	// (write a trace file for later replay), or "open_loop" (generate
	// the trace, then replay it under an open-loop arrival schedule with
	// coordinated-omission-free latency accounting).
	Mode string `json:"mode"`
	// TracePath is the trace file. Offline mode generates the workload
	// and writes it there; online and open_loop modes replay it instead
	// of generating when it is set.
	TracePath string `json:"trace_path"`
	// ServiceRate throttles replay (ops/second, 0 = unthrottled).
	ServiceRate float64 `json:"service_rate"`
	// SampleEvery records latency for every Nth op (default 1).
	SampleEvery int `json:"sample_every"`
	// StallTimeoutMs arms the run watchdog: a run whose workers make no
	// progress for this long is aborted and returns its partial result
	// tagged degraded (0 = watchdog off).
	StallTimeoutMs int64 `json:"stall_timeout_ms"`

	// Open-loop mode settings (run.mode = "open_loop").

	// Rate is the offered arrival rate in events/second. Required in
	// open_loop mode unless Bursts is set.
	Rate float64 `json:"rate"`
	// Arrival shapes the interarrival gaps: "constant" (default) or
	// "poisson" (seeded from source.seed).
	Arrival string `json:"arrival"`
	// Bursts, when non-empty, replaces Rate/Arrival with a cycling
	// phased schedule.
	Bursts []BurstConfig `json:"bursts"`
	// MaxInFlight bounds the dispatch queue (0 = the replay default);
	// events that find it full are counted as overload, not dropped.
	MaxInFlight int `json:"max_in_flight"`
	// SLOP99Ms, when positive, declares the intended-arrival p99
	// objective the run is judged against (reported, not enforced).
	SLOP99Ms float64 `json:"slo_p99_ms"`

	// Crash-recovery settings (paired with store.chaos.crash_at_ops).

	// CheckpointEveryOps cuts a portable checkpoint after every N applied
	// operations (0 = never; crashes then recover by full replay).
	CheckpointEveryOps uint64 `json:"checkpoint_every_ops"`
	// CheckpointDir is where checkpoints are written. Defaults to
	// "<store.dir>-checkpoints"; must differ from store.dir, since
	// checkpoints model durable external storage that survives the
	// crash of the store's local disk.
	CheckpointDir string `json:"checkpoint_dir"`
}

// Load reads and validates a configuration file.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	return Parse(data)
}

// Parse decodes and validates a configuration document.
func Parse(data []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate checks cross-field consistency and fills defaults. Source
// and operator defaults are filled only when the run generates its
// accesses (see Generates): a replay's report names its trace, not a
// generator it never ran.
func (c *Config) Validate() error {
	switch c.Run.Mode {
	case "", "online":
		c.Run.Mode = "online"
	case "offline":
		if c.Run.TracePath == "" {
			return fmt.Errorf("config: offline mode requires run.trace_path")
		}
	case "open_loop":
	default:
		return fmt.Errorf("config: unknown run mode %q", c.Run.Mode)
	}
	gen := c.Generates()
	switch c.Source.Type {
	case "", "synthetic":
		if gen {
			c.Source.Type = "synthetic"
			if c.Source.Events <= 0 {
				c.Source.Events = 100000
			}
		}
	case "dataset":
		if _, ok := datasets.ByName(c.Source.Dataset, 0.0001, 0); !ok {
			return fmt.Errorf("config: unknown dataset %q (want one of %v)", c.Source.Dataset, datasets.Names())
		}
		if gen && c.Source.Scale <= 0 {
			c.Source.Scale = 0.01
		}
	default:
		return fmt.Errorf("config: unknown source type %q", c.Source.Type)
	}
	if gen && c.Source.WatermarkEvery <= 0 {
		c.Source.WatermarkEvery = 100
	}
	if gen && c.Operator.Operator == "" {
		c.Operator.Operator = core.TumblingIncr
	}
	if c.Operator.Operator != "" && !slices.Contains(core.OperatorTypes(), c.Operator.Operator) {
		return fmt.Errorf("config: unknown operator %q", c.Operator.Operator)
	}
	if c.Store.Engine == "" {
		c.Store.Engine = "memstore"
	}
	if c.Store.Chaos != nil {
		if err := c.Store.Chaos.Plan().Validate(); err != nil {
			return fmt.Errorf("config: store.chaos: %w", err)
		}
	}
	if c.Store.Resilience != nil {
		if err := c.Store.Resilience.Options().Validate(); err != nil {
			return fmt.Errorf("config: store.resilience: %w", err)
		}
	}
	if c.Store.Remote != nil {
		if c.Store.Engine != "remote" {
			return fmt.Errorf("config: store.remote requires store.engine %q, got %q", "remote", c.Store.Engine)
		}
		if c.Store.Remote.Shards < 0 {
			return fmt.Errorf("config: store.remote.shards must be non-negative, got %d", c.Store.Remote.Shards)
		}
		if c.Store.Remote.PipelineDepth < 0 {
			return fmt.Errorf("config: store.remote.pipeline_depth must be non-negative, got %d", c.Store.Remote.PipelineDepth)
		}
		if c.Store.Remote.BatchBytes < 0 {
			return fmt.Errorf("config: store.remote.batch_bytes must be non-negative, got %d", c.Store.Remote.BatchBytes)
		}
	}
	if err := c.validateRun(); err != nil {
		return err
	}
	if c.Obs != nil {
		if err := c.Obs.Validate(); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	return nil
}

// validateRun checks the run section through the replay options it
// builds, so a config that parses is a run that starts. The closed-loop
// options are checked in every mode, the open-loop ones in open_loop
// mode, and the crash schedule whenever one is set.
func (c *Config) validateRun() error {
	switch c.Run.Arrival {
	case "", "constant", "poisson":
	default:
		return fmt.Errorf("config: unknown run.arrival %q (want constant or poisson)", c.Run.Arrival)
	}
	if c.Run.SLOP99Ms < 0 {
		return fmt.Errorf("config: run.slo_p99_ms must be non-negative, got %v", c.Run.SLOP99Ms)
	}
	if c.Run.CheckpointDir != "" && c.Run.CheckpointDir == c.Store.Dir {
		return fmt.Errorf("config: run.checkpoint_dir must differ from store.dir (checkpoints must survive store crashes)")
	}
	if c.Recovery() && c.Run.Mode != "online" {
		return fmt.Errorf("config: crash recovery (run.checkpoint_every_ops / store.chaos.crash_at_ops) requires run.mode %q, got %q", "online", c.Run.Mode)
	}
	if err := c.ReplayOptions().Validate(); err != nil {
		return fmt.Errorf("config: run: %w", err)
	}
	ol, err := c.OpenLoopOptions()
	if err != nil {
		return err
	}
	if c.Run.Mode == "open_loop" {
		if err := ol.Validate(); err != nil {
			return fmt.Errorf("config: run: %w", err)
		}
	} else if ol.Rate < 0 || ol.MaxInFlight < 0 {
		// Unused outside open_loop mode, but no run could use them.
		return fmt.Errorf("config: run.rate and run.max_in_flight must be non-negative, got %v and %d", ol.Rate, ol.MaxInFlight)
	}
	if c.Recovery() {
		// Checkpoint placement is the caller's; a stand-in checkpointer
		// lets the cadence and crash schedule be checked here.
		if _, err := c.RecoveryOptions(&kv.Checkpointer{}); err != nil {
			return err
		}
	}
	return nil
}

// Generates reports whether the run generates its accesses from the
// source and operator. Offline mode generates and writes run.trace_path;
// the other modes replay run.trace_path instead when it is set.
func (c *Config) Generates() bool {
	return c.Run.Mode == "offline" || c.Run.TracePath == ""
}

// BuildSource constructs the configured event source. Join operators get
// a two-stream source; dataset-backed joins use the dataset's secondary
// stream, synthetic joins use a second generator with start/end pairs.
func (c *Config) BuildSource() (eventgen.Source, error) {
	return BuildEventSource(c.Source, c.Operator.Operator.IsJoin())
}

// BuildEventSource constructs an event source from a source config
// alone, for callers driving custom operators (join selects a
// two-stream source).
func BuildEventSource(sc SourceConfig, join bool) (eventgen.Source, error) {
	c := &Config{Source: sc}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c.buildSource(join)
}

func (c *Config) buildSource(join bool) (eventgen.Source, error) {
	if c.Source.Type == "dataset" {
		ds, _ := datasets.ByName(c.Source.Dataset, c.Source.Scale, c.Source.Seed)
		if join {
			src, ok := ds.JoinSource(c.Source.WatermarkEvery)
			if !ok {
				return nil, fmt.Errorf("config: dataset %q has no secondary stream for joins", c.Source.Dataset)
			}
			return src, nil
		}
		return ds.Source(c.Source.WatermarkEvery), nil
	}
	mk := func(stream uint8, pairs bool) (eventgen.Source, error) {
		g, err := eventgen.NewSynthetic(eventgen.Config{
			Events:          c.Source.Events,
			Keys:            c.Source.Keys,
			KeyDist:         c.Source.KeyDist,
			RatePerSec:      c.Source.RatePerSec,
			PoissonArrivals: c.Source.Poisson,
			ValueSize:       c.Source.ValueSize,
			LateFraction:    c.Source.LateFraction,
			MaxLatenessMs:   c.Source.MaxLatenessMs,
			Seed:            c.Source.Seed + int64(stream),
			Stream:          stream,
			StartEndPairs:   pairs,
			ECDFKeys:        c.Source.ECDFKeys,
			ECDFWeights:     c.Source.ECDFWeights,
			HotFrac:         c.Source.HotFrac,
			HotProb:         c.Source.HotProb,
			DriftEvery:      c.Source.DriftEvery,
			DriftStep:       c.Source.DriftStep,
		})
		if err != nil {
			return nil, err
		}
		return eventgen.WithWatermarks(g, c.Source.WatermarkEvery, c.Source.WatermarkSlackMs), nil
	}
	if join {
		a, err := mk(0, false)
		if err != nil {
			return nil, err
		}
		b, err := mk(1, true)
		if err != nil {
			return nil, err
		}
		return eventgen.NewRoundRobin(a, b), nil
	}
	return mk(0, false)
}

// BuildOperator constructs the configured operator.
func (c *Config) BuildOperator() (core.Operator, error) {
	return core.New(c.Operator)
}

// burstSchedule builds the configured burst schedule.
func (c *Config) burstSchedule() (*dist.BurstSchedule, error) {
	phases := make([]dist.BurstPhase, len(c.Run.Bursts))
	for i, b := range c.Run.Bursts {
		phases[i] = dist.BurstPhase{
			RatePerSec: b.RatePerSec,
			Duration:   time.Duration(b.DurationMs) * time.Millisecond,
		}
	}
	sched, err := dist.NewBursts(phases)
	if err != nil {
		return nil, fmt.Errorf("config: run.bursts: %w", err)
	}
	return sched, nil
}

// Recovery reports whether the config asks for the crash-recovery run
// path: a checkpoint cadence, or a scripted crash schedule, or both.
func (c *Config) Recovery() bool {
	if c.Run.CheckpointEveryOps > 0 {
		return true
	}
	return c.Store.Chaos != nil && len(c.Store.Chaos.CrashAtOps) > 0
}

// ReplayOptions assembles the closed-loop replay options the run
// section describes: online runs and trace replays.
func (c *Config) ReplayOptions() replay.Options {
	return replay.Options{
		ServiceRate:  c.Run.ServiceRate,
		SampleEvery:  c.Run.SampleEvery,
		StallTimeout: time.Duration(c.Run.StallTimeoutMs) * time.Millisecond,
	}
}

// RecoveryOptions assembles the crash-recovery replay options from the
// run and store.chaos sections. The caller supplies the checkpointer
// (its filesystem and directory are placement decisions the config
// layer cannot make); nil is allowed when run.checkpoint_every_ops is
// zero, in which case crashes recover by full replay.
func (c *Config) RecoveryOptions(ck *kv.Checkpointer) (replay.RecoveryOptions, error) {
	o := replay.RecoveryOptions{
		Options:         c.ReplayOptions(),
		CheckpointEvery: c.Run.CheckpointEveryOps,
		Checkpointer:    ck,
	}
	if c.Store.Chaos != nil {
		o.CrashAtOps = c.Store.Chaos.CrashAtOps
	}
	if err := o.Validate(); err != nil {
		return replay.RecoveryOptions{}, fmt.Errorf("config: %w", err)
	}
	return o, nil
}

// OpenLoopOptions assembles the open-loop replay options the run
// section describes (run.mode = "open_loop"). The Poisson arrival
// schedule is seeded from source.seed, so a fixed config replays the
// identical intended-arrival timeline.
func (c *Config) OpenLoopOptions() (replay.OpenLoopOptions, error) {
	o := replay.OpenLoopOptions{
		Rate:         c.Run.Rate,
		MaxInFlight:  c.Run.MaxInFlight,
		SampleEvery:  c.Run.SampleEvery,
		StallTimeout: time.Duration(c.Run.StallTimeoutMs) * time.Millisecond,
	}
	if len(c.Run.Bursts) > 0 {
		sched, err := c.burstSchedule()
		if err != nil {
			return o, err
		}
		o.Arrivals = sched
	} else if c.Run.Arrival == "poisson" && c.Run.Rate > 0 {
		o.Arrivals = dist.NewPoissonRate(c.Run.Rate, rand.New(rand.NewSource(c.Source.Seed)))
	}
	return o, nil
}
