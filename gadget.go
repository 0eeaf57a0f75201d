// Package gadget is the public API of Gadget-Go, a benchmark harness for
// systematic and robust evaluation of streaming state stores — a Go
// reproduction of "A New Benchmark Harness for Systematic and Robust
// Evaluation of Streaming State Stores" (EuroSys '22).
//
// A benchmark run has three parts: an input event source (a synthetic
// generator or one of the built-in dataset shapes), a streaming operator
// whose state access logic is simulated by per-state-key finite state
// machines, and a KV store that receives the resulting state access
// stream. The harness runs online (issuing requests while generating,
// collecting latency and throughput) or offline (writing a trace file
// replayed later):
//
//	cfg, _ := gadget.ParseConfig(doc)
//	w, _ := gadget.NewWorkload(cfg)
//	store, _ := gadget.OpenStore(cfg.Store)
//	defer store.Close()
//	res, _ := w.RunOnline(store, gadget.ReplayOptions{})
//	fmt.Println(res)
//
// Four KV engines ship with the harness, each a from-scratch Go
// implementation of the architecture the paper evaluates: "rocksdb" (an
// LSM tree with a lazy merge operator), "lethe" (delete-aware LSM
// compaction), "faster" (hash index over a hybrid log with in-place
// updates), and "berkeleydb" (a disk-backed B+Tree with a buffer pool),
// plus "memstore" (a map, used as oracle and zero-IO baseline).
package gadget

import (
	"fmt"
	"math/rand"

	"gadget/internal/analysis"
	"gadget/internal/campaign"
	"gadget/internal/config"
	"gadget/internal/core"
	"gadget/internal/datasets"
	"gadget/internal/dist"
	"gadget/internal/eventgen"
	"gadget/internal/flinksim"
	"gadget/internal/kv"
	"gadget/internal/replay"
	"gadget/internal/stats"
	"gadget/internal/stores"
	"gadget/internal/trace"
	"gadget/internal/tracing"
)

// Core vocabulary re-exported from the internal packages.
type (
	// Access is one state store operation: (op, key, value size, time).
	Access = kv.Access
	// StateKey is the composite state key (event key group, namespace).
	StateKey = kv.StateKey
	// Op is a state operation type (get, put, merge, delete, fget).
	Op = kv.Op
	// Store is the uniform KV store interface.
	Store = kv.Store
	// StoreConfig selects and sizes a KV engine.
	StoreConfig = stores.Config
	// Config is the full benchmark configuration document.
	Config = config.Config
	// SourceConfig describes the input event stream.
	SourceConfig = config.SourceConfig
	// RunConfig describes run mode and replay options.
	RunConfig = config.RunConfig
	// ObsConfig tunes the observability layer (sampler interval,
	// metrics listener, report path).
	ObsConfig = config.ObsConfig
	// OperatorConfig parameterizes a streaming operator.
	OperatorConfig = core.Config
	// OperatorType names one of the thirteen predefined workloads.
	OperatorType = core.OperatorType
	// OperatorStats reports operator-level counters.
	OperatorStats = core.Stats
	// ReplayOptions tunes the performance evaluator.
	ReplayOptions = replay.Options
	// OpenLoopOptions tunes the open-loop (coordinated-omission-free)
	// replay driver: offered rate or arrival schedule, in-flight bound.
	OpenLoopOptions = replay.OpenLoopOptions
	// ArrivalSchedule generates interarrival gaps in nanoseconds for the
	// open-loop driver (constant-rate, Poisson, burst phases).
	ArrivalSchedule = dist.Schedule
	// BurstPhase is one leg of a phased arrival schedule: a rate held
	// for a duration of schedule time.
	BurstPhase = dist.BurstPhase
	// SLO is the pass criterion of a sustainable-rate search.
	SLO = replay.SLO
	// RateSearchOptions configures FindSustainableRate.
	RateSearchOptions = replay.RateSearchOptions
	// RateSearchResult is a sustainable-rate search outcome.
	RateSearchResult = replay.RateSearchResult
	// RateProbe records one probe of a sustainable-rate search.
	RateProbe = replay.RateProbe
	// Result carries throughput and latency measurements.
	Result = replay.Result
	// Event is one input stream element.
	Event = eventgen.Event
	// EventSource produces a stream of events and watermarks.
	EventSource = eventgen.Source
	// Datasets bundles a dataset's streams.
	Datasets = datasets.Streams
)

// The thirteen predefined workloads.
const (
	TumblingIncr   = core.TumblingIncr
	TumblingHol    = core.TumblingHol
	SlidingIncr    = core.SlidingIncr
	SlidingHol     = core.SlidingHol
	SessionIncr    = core.SessionIncr
	SessionHol     = core.SessionHol
	TumblingJoin   = core.TumblingJoin
	SlidingJoin    = core.SlidingJoin
	IntervalJoin   = core.IntervalJoin
	ContinJoin     = core.ContinJoin
	Aggregation    = core.Aggregation
	TopKDrain      = core.TopKDrain
	RangeJoinProbe = core.RangeJoinProbe
)

// Operation types.
const (
	OpGet    = kv.OpGet
	OpPut    = kv.OpPut
	OpMerge  = kv.OpMerge
	OpDelete = kv.OpDelete
	OpFGet   = kv.OpFGet
	OpScan   = kv.OpScan
)

// Common errors re-exported for callers of the public API.
var (
	// ErrNotFound is returned by Store.Get for missing keys.
	ErrNotFound = kv.ErrNotFound
	// ErrStalled is returned by watchdog-guarded runs that were aborted
	// because a worker stopped making progress; the accompanying Result
	// is partial and tagged Degraded.
	ErrStalled = replay.ErrStalled
	// ErrBreakerOpen is returned by a ResilientStore rejecting operations
	// while its circuit breaker is open.
	ErrBreakerOpen = kv.ErrBreakerOpen
	// ErrNoSnapshots is returned by SnapshotOf for stores that expose
	// neither native snapshots nor the range scans the fallback needs.
	ErrNoSnapshots = kv.ErrNoSnapshots
	// ErrClosed is reported by iterators over a closed snapshot.
	ErrClosed = kv.ErrClosed
)

// Snapshot / range-scan API re-exports (see DESIGN.md §11).
type (
	// Iterator is an ordered cursor over state entries.
	Iterator = kv.Iterator
	// Snapshot is a frozen, point-in-time view of a store.
	Snapshot = kv.Snapshot
	// Snapshotter is implemented by stores with native snapshots.
	Snapshotter = kv.Snapshotter
	// RangeScanner is implemented by stores with native range scans.
	RangeScanner = kv.RangeScanner
	// Entry is one key/value pair yielded by a scan.
	Entry = kv.Entry
	// Capabilities declares which access paths a store supports natively.
	Capabilities = kv.Capabilities
)

// CapsOf reports a store's declared capabilities (the zero value for
// stores that predate the capability interface).
func CapsOf(s Store) Capabilities { return kv.CapsOf(s) }

// SnapshotOf returns a consistent snapshot of the store: the engine's
// native mechanism when Capabilities.Snapshots is set, otherwise a
// stop-the-world full-copy fallback built over ScanRange.
func SnapshotOf(s Store) (Snapshot, error) { return kv.SnapshotOf(s) }

// ScanRange returns the live entries with keys in [lo, hi], ascending.
func ScanRange(s Store, lo, hi StateKey) ([]Entry, error) { return kv.ScanRange(s, lo, hi) }

// ScanAll returns every live entry in the store, ascending.
func ScanAll(s Store) ([]Entry, error) { return kv.ScanAll(s) }

// IterOf returns an iterator over [lo, hi] backed by a private
// snapshot; Close releases it.
func IterOf(s Store, lo, hi StateKey) (Iterator, error) { return kv.IterOf(s, lo, hi) }

// Resilience layer re-exports: deterministic fault injection and the
// retry/backoff/circuit-breaker middleware (see DESIGN.md §8).
type (
	// ChaosPlan schedules deterministic operation-level faults.
	ChaosPlan = kv.ChaosPlan
	// ChaosStore injects a ChaosPlan's faults into a wrapped store.
	ChaosStore = kv.ChaosStore
	// ResilienceOptions tunes retries, deadlines, and the breaker.
	ResilienceOptions = kv.ResilienceOptions
	// ResilienceCounters reports retry/timeout/breaker activity.
	ResilienceCounters = kv.ResilienceCounters
	// ResilientStore wraps a store with the resilience middleware.
	ResilientStore = kv.ResilientStore
	// Introspector is the capability interface engines implement to
	// expose internal counters (see DESIGN.md §9).
	Introspector = kv.Introspector
)

// StoreMetrics returns a store's introspection counters, or nil when
// the store does not implement Introspector.
func StoreMetrics(s Store) map[string]int64 { return kv.MetricsOf(s) }

// Per-operation tracing re-exports (see DESIGN.md §14): sampled
// operations carry a pooled trace context through every layer, each of
// which attributes only the latency it adds, and the flight recorder
// retains the slowest complete traces for the report's slow_ops section.
type (
	// Tracer samples, aggregates, and records per-op traces.
	Tracer = tracing.Tracer
	// TracerOptions tunes sampling (1-in-N), flight-recorder retention
	// (K slowest), and the injectable clock.
	TracerOptions = tracing.Options
	// SlowOps is the report-ready flight-recorder section.
	SlowOps = tracing.SlowOps
)

// NewTracer constructs a Tracer. Hand it to ReplayOptions.Tracer (and
// set StoreConfig.Traced for remote stores, so server handle stamps are
// negotiated at hello).
func NewTracer(opts TracerOptions) *Tracer { return tracing.New(opts) }

// TracerSnapshot builds the report-ready slow_ops section, naming ops
// with the kv.Op vocabulary. Nil tracer returns nil.
func TracerSnapshot(t *Tracer) *SlowOps {
	return t.Snapshot(func(op uint8) string { return kv.Op(op).String() })
}

// MergeResults folds per-worker Results into one run-wide view (see
// replay.MergeResults for the delta-merging rules).
func MergeResults(results []Result) Result { return replay.MergeResults(results) }

// NewChaosStore wraps a store with deterministic fault injection.
func NewChaosStore(inner Store, plan ChaosPlan) *ChaosStore { return kv.NewChaosStore(inner, plan) }

// NewResilientStore wraps a store with per-op deadlines, bounded retry
// with exponential backoff, and a circuit breaker.
func NewResilientStore(inner Store, opts ResilienceOptions) (*ResilientStore, error) {
	return kv.NewResilientStore(inner, opts)
}

// Crash-recovery layer re-exports: portable checkpoints, the
// crash/recover replay runner, and scripted fault campaigns (see
// DESIGN.md §12).
type (
	// Checkpointer saves and restores portable checkpoints of a store.
	Checkpointer = kv.Checkpointer
	// CheckpointMeta describes one checkpoint (engine, watermark, entries).
	CheckpointMeta = kv.CheckpointMeta
	// RestoreInfo reports which checkpoint a restore used and how many
	// corrupt ones it skipped on the way.
	RestoreInfo = kv.RestoreInfo
	// RecoveryOptions extends ReplayOptions with a checkpoint cadence and
	// a scripted crash schedule.
	RecoveryOptions = replay.RecoveryOptions
	// Attempt is one life of a store between crashes.
	Attempt = replay.Attempt
	// StoreFactory opens a fresh store for each attempt of a recovery run.
	StoreFactory = replay.StoreFactory
	// CampaignOptions configures a fault-campaign sweep.
	CampaignOptions = campaign.Options
	// CampaignCell is one cell of a campaign's robustness matrix.
	CampaignCell = campaign.Cell
	// CampaignMatrix is a campaign result.
	CampaignMatrix = campaign.Matrix
)

// ErrCheckpointCorrupt is returned when a checkpoint fails its
// integrity checks; Checkpointer.Restore skips such files and falls
// back to the previous checkpoint.
var ErrCheckpointCorrupt = kv.ErrCheckpointCorrupt

// RunWithRecovery replays a trace through a scripted crash schedule,
// recovering each crash from the newest valid checkpoint and measuring
// RTO/RPO (see replay.RunWithRecovery).
func RunWithRecovery(open StoreFactory, accesses []Access, opts RecoveryOptions) (Result, error) {
	return replay.RunWithRecovery(open, accesses, opts)
}

// RunCampaign sweeps engines x crash points x checkpoint intervals over
// one trace and returns the robustness matrix. logf (may be nil)
// receives one progress line per cell.
func RunCampaign(opts CampaignOptions, logf func(format string, args ...any)) (CampaignMatrix, error) {
	return campaign.Run(opts, logf)
}

// OperatorTypes lists the predefined workloads.
func OperatorTypes() []OperatorType { return core.OperatorTypes() }

// Engines lists the available KV engine names.
func Engines() []string { return stores.Engines() }

// OpenStore constructs a KV store from its configuration.
func OpenStore(cfg StoreConfig) (Store, error) { return stores.Open(cfg) }

// LoadConfig reads a JSON configuration file.
func LoadConfig(path string) (Config, error) { return config.Load(path) }

// ParseConfig decodes a JSON configuration document.
func ParseConfig(data []byte) (Config, error) { return config.Parse(data) }

// Dataset returns a built-in dataset shape ("borg", "taxi", "azure") at
// the given scale (1.0 reproduces the paper's event counts).
func Dataset(name string, scale float64, seed int64) (Datasets, error) {
	ds, ok := datasets.ByName(name, scale, seed)
	if !ok {
		return Datasets{}, fmt.Errorf("gadget: unknown dataset %q (want one of %v)", name, datasets.Names())
	}
	return ds, nil
}

// Workload binds a configuration's source and operator, ready to
// generate state access streams.
type Workload struct {
	cfg Config
}

// NewWorkload validates cfg and returns a Workload.
func NewWorkload(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Workload{cfg: cfg}, nil
}

// Config returns the validated configuration.
func (w *Workload) Config() Config { return w.cfg }

// Generate produces the workload's state access stream (offline mode).
func (w *Workload) Generate() ([]Access, error) {
	src, err := w.cfg.BuildSource()
	if err != nil {
		return nil, err
	}
	op, err := w.cfg.BuildOperator()
	if err != nil {
		return nil, err
	}
	return core.Generate(src, op), nil
}

// RunOnline generates the workload and issues every state access to the
// store as it is produced, measuring latency and throughput. With
// ReplayOptions.StallTimeout set, a stalled run returns its partial
// Result (Degraded=true) with ErrStalled instead of hanging.
func (w *Workload) RunOnline(store Store, opts ReplayOptions) (Result, error) {
	src, err := w.cfg.BuildSource()
	if err != nil {
		return Result{}, err
	}
	op, err := w.cfg.BuildOperator()
	if err != nil {
		return Result{}, err
	}
	return RunCustomOnline(src, op, store, opts)
}

// RunOpenLoop generates the workload's state access stream, then
// replays it under an open-loop arrival schedule (run.mode
// "open_loop"): latency is measured from each event's intended arrival
// time, so a stalling store is charged for the backlog it causes
// instead of silently slowing the generator down.
func (w *Workload) RunOpenLoop(store Store, opts OpenLoopOptions) (Result, error) {
	tr, err := w.Generate()
	if err != nil {
		return Result{}, err
	}
	return replay.RunOpenLoop(store, tr, opts)
}

// RunWithRecovery generates the workload's state access stream, then
// replays it through the crash schedule in opts, restoring from opts's
// checkpointer after each crash. The final attempt's store is left open
// for the caller (capture it in the factory).
func (w *Workload) RunWithRecovery(open StoreFactory, opts RecoveryOptions) (Result, error) {
	tr, err := w.Generate()
	if err != nil {
		return Result{}, err
	}
	return replay.RunWithRecovery(open, tr, opts)
}

// CollectReferenceTrace executes the workload on the reference engine
// (a real mini stream processor materializing state in memory) and
// returns the ground-truth state access trace — what the paper collects
// from instrumented Flink.
func (w *Workload) CollectReferenceTrace() ([]Access, error) {
	src, err := w.cfg.BuildSource()
	if err != nil {
		return nil, err
	}
	tr, _, err := flinksim.CollectTrace(w.cfg.Operator, src)
	return tr, err
}

// Replay replays a materialized trace against a store.
func Replay(store Store, accesses []Access, opts ReplayOptions) (Result, error) {
	return replay.Run(store, accesses, opts)
}

// ReplayOpenLoop replays a materialized trace under an open-loop
// arrival schedule: events are dispatched at their intended arrival
// times regardless of store progress, and latency is measured from the
// intended arrival — the coordinated-omission-free view. The final
// store state is identical to a closed-loop Replay of the same trace.
func ReplayOpenLoop(store Store, accesses []Access, opts OpenLoopOptions) (Result, error) {
	return replay.RunOpenLoop(store, accesses, opts)
}

// FindSustainableRate searches for the maximum offered rate at which
// store meets the SLO on the trace, probing with open-loop runs
// (bracket then bisect; see replay.FindSustainableRate).
func FindSustainableRate(store Store, accesses []Access, opts RateSearchOptions) (RateSearchResult, error) {
	return replay.FindSustainableRate(store, accesses, opts)
}

// ConstantArrivals returns a deterministic arrival schedule at
// ratePerSec events/second.
func ConstantArrivals(ratePerSec float64) ArrivalSchedule { return dist.NewConstantRate(ratePerSec) }

// PoissonArrivals returns a seeded Poisson arrival schedule at a mean
// of ratePerSec events/second.
func PoissonArrivals(ratePerSec float64, seed int64) ArrivalSchedule {
	return dist.NewPoissonRate(ratePerSec, rand.New(rand.NewSource(seed)))
}

// BurstArrivals returns a cycling phased arrival schedule.
func BurstArrivals(phases []BurstPhase) (ArrivalSchedule, error) { return dist.NewBursts(phases) }

// ReplayConcurrent replays several traces concurrently against one
// shared store (the paper's concurrent-operators scenario).
func ReplayConcurrent(store Store, traces [][]Access, opts ReplayOptions) ([]Result, error) {
	return replay.RunConcurrent(store, traces, opts)
}

// WriteTrace persists a state access stream to a binary trace file.
func WriteTrace(path string, accesses []Access) error {
	return trace.WriteFile(path, accesses)
}

// ReadTrace loads a binary trace file.
func ReadTrace(path string) ([]Access, error) { return trace.ReadFile(path) }

// TraceAnalysis summarizes the characterization metrics of a state
// access trace (the paper's §3 toolbox).
type TraceAnalysis struct {
	// Composition is the operation mix (gets include trigger-time FGets;
	// scans are the range reads of the scan-aware workloads).
	GetShare, PutShare, MergeShare, DeleteShare, ScanShare float64
	// DistinctKeys is the number of distinct state keys.
	DistinctKeys int
	// MeanStackDistance measures temporal locality (lower = hotter).
	MeanStackDistance float64
	// UniqueSeq10 is the number of unique key 10-grams (spatial locality).
	UniqueSeq10 int
	// MaxWorkingSet is the peak number of simultaneously live keys.
	MaxWorkingSet int
	// TTL summarizes key lifetimes in trace steps.
	TTL stats.Summary
}

// MissRatioPoint pairs an LRU cache size (entries) with its miss ratio.
type MissRatioPoint = analysis.MissRatioPoint

// MissRatioCurve computes the exact LRU miss-ratio curve of a trace's
// key sequence (Mattson), the basis for the automatic cache sizing the
// paper's §8 proposes.
func MissRatioCurve(accesses []Access, cacheSizes []int) []MissRatioPoint {
	return analysis.MissRatioCurve(analysis.KeyIDs(accesses), cacheSizes)
}

// RecommendCacheSize returns the smallest LRU cache size (in entries)
// that achieves the target miss ratio on the trace.
func RecommendCacheSize(accesses []Access, targetMissRatio float64) int {
	return analysis.RecommendCacheSize(analysis.KeyIDs(accesses), targetMissRatio)
}

// Analyze computes a TraceAnalysis.
func Analyze(accesses []Access) TraceAnalysis {
	comp := analysis.Compose(accesses)
	ids := analysis.KeyIDs(accesses)
	dists, _ := analysis.StackDistances(ids)
	seqs := analysis.UniqueSequences(ids, 10)
	ttl := analysis.SampleTTLs(ids, 1000, 1)
	distinct := 0
	seen := map[uint64]struct{}{}
	for _, id := range ids {
		seen[id] = struct{}{}
	}
	distinct = len(seen)
	return TraceAnalysis{
		GetShare:          comp.Get,
		PutShare:          comp.Put,
		MergeShare:        comp.Merge,
		DeleteShare:       comp.Delete,
		ScanShare:         comp.Scan,
		DistinctKeys:      distinct,
		MeanStackDistance: stats.Mean(dists),
		UniqueSeq10:       seqs[9],
		MaxWorkingSet:     analysis.MaxWorkingSet(ids, 100),
		TTL:               ttl,
	}
}

// RunPartitioned executes the workload as n data-parallel operator
// instances over key-disjoint partitions of the input, one instance per
// store in stores (instances run concurrently, as tasks of one operator
// do). Stores may all differ, or alias one shared instance to study
// co-location (§6.4).
func (w *Workload) RunPartitioned(stores []Store, opts ReplayOptions) ([]Result, error) {
	src, err := w.cfg.BuildSource()
	if err != nil {
		return nil, err
	}
	ops := make([]Operator, len(stores))
	for i := range ops {
		if ops[i], err = w.cfg.BuildOperator(); err != nil {
			return nil, err
		}
	}
	parts := eventgen.Partition(src, len(stores))
	return replay.Drive(stores, opts, func(i int, c *replay.Collector) error {
		return online(parts[i], ops[i], c)
	})
}
