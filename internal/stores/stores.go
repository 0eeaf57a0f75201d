// Package stores is the registry of KV engines the harness can drive,
// keyed by the names used in configuration files and on the command
// line: "rocksdb" (the LSM engine), "lethe", "faster", "berkeleydb" (the
// B+Tree engine), and "memstore".
package stores

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"gadget/internal/btree"
	"gadget/internal/faster"
	"gadget/internal/kv"
	"gadget/internal/lethe"
	"gadget/internal/lsm"
	"gadget/internal/memstore"
	"gadget/internal/remote"
	"gadget/internal/shard"
	"gadget/internal/vfs"
)

// Config selects and sizes an engine. Zero fields fall back to each
// engine's paper-matching defaults.
type Config struct {
	// Engine is one of Engines(); aliases "lsm" and "btree" are accepted.
	Engine string `json:"engine"`
	// Dir is the store directory (required for all but memstore).
	Dir string `json:"dir"`
	// MemtableBytes sizes LSM write buffers.
	MemtableBytes int64 `json:"memtable_bytes"`
	// CacheBytes sizes the LSM block cache or B+Tree buffer pool.
	CacheBytes int64 `json:"cache_bytes"`
	// LogMemBytes sizes FASTER's in-memory hybrid log region.
	LogMemBytes int64 `json:"log_mem_bytes"`
	// IndexBuckets sizes FASTER's hash index.
	IndexBuckets int `json:"index_buckets"`
	// DeleteThresholdMs is Lethe's delete persistence threshold.
	DeleteThresholdMs int64 `json:"delete_threshold_ms"`
	// WAL enables the LSM write-ahead log.
	WAL bool `json:"wal"`
	// SyncWrites fsyncs the LSM WAL on every write.
	SyncWrites bool `json:"sync_writes"`
	// Addr is the server address for the "remote" engine (external
	// state management, paper §8). A comma-separated list names one
	// endpoint per shard of a sharded server; a single address is a
	// one-shard server unless Remote.Shards expands it.
	Addr string `json:"addr"`
	// Remote tunes the "remote" engine's client (shard count, pipeline
	// depth, batch size); nil takes the defaults.
	Remote *RemoteConfig `json:"remote,omitempty"`
	// FS injects a filesystem for the durable engines (tests use
	// vfs.MemFS/vfs.FaultFS); nil means the real filesystem. Not part of
	// the JSON configuration surface.
	FS vfs.FS `json:"-"`
	// Traced asks the remote client to negotiate trace trailers at
	// hello, so traced ops receive server-side handle stamps.
	// Set by the harness from obs.trace, not from the store JSON (the
	// store section stays tracing-agnostic).
	Traced bool `json:"-"`
	// Chaos, when set, wraps the engine in a deterministic fault
	// injector (kv.ChaosStore).
	Chaos *ChaosConfig `json:"chaos,omitempty"`
	// Resilience, when set, wraps the (possibly chaotic) engine in
	// retry/deadline/circuit-breaker middleware (kv.ResilientStore).
	Resilience *ResilienceConfig `json:"resilience,omitempty"`
}

// ChaosConfig is the JSON surface of kv.ChaosPlan: deterministic,
// seeded fault injection at the store boundary.
type ChaosConfig struct {
	// Seed drives the per-operation fault lottery.
	Seed int64 `json:"seed"`
	// ErrorRate is the probability (0..1) of a transient injected error.
	ErrorRate float64 `json:"error_rate"`
	// LatencyRate is the probability (0..1) of a latency spike.
	LatencyRate float64 `json:"latency_rate"`
	// LatencyUs is the spike duration in microseconds.
	LatencyUs int64 `json:"latency_us"`
	// StallEvery stalls every Nth operation (0 disables).
	StallEvery int `json:"stall_every"`
	// StallMs is the stall duration in milliseconds.
	StallMs int64 `json:"stall_ms"`
	// OutageAfterOps opens a full outage window after N operations
	// (0 disables).
	OutageAfterOps int `json:"outage_after_ops"`
	// OutageOps is the outage window length in operations.
	OutageOps int `json:"outage_ops"`
	// CrashAtOps lists logical trace positions at which the run driver
	// crashes the store mid-run and recovers it (strictly increasing).
	// Unlike the fields above, this is consumed by the replay layer's
	// recovery runner, not by the per-operation chaos wrapper: a crash
	// tears down the whole store, which no store-level middleware can do.
	CrashAtOps []uint64 `json:"crash_at_ops,omitempty"`
}

// Plan converts the JSON form to a kv.ChaosPlan.
func (c ChaosConfig) Plan() kv.ChaosPlan {
	return kv.ChaosPlan{
		Seed:           c.Seed,
		ErrorRate:      c.ErrorRate,
		LatencyRate:    c.LatencyRate,
		Latency:        time.Duration(c.LatencyUs) * time.Microsecond,
		StallEvery:     c.StallEvery,
		Stall:          time.Duration(c.StallMs) * time.Millisecond,
		OutageAfterOps: c.OutageAfterOps,
		OutageOps:      c.OutageOps,
	}
}

// RemoteConfig is the JSON surface of the remote engine's client: a
// shard.Client over one remote.PipelinedClient connection per shard.
type RemoteConfig struct {
	// Shards is the shard count. With a single addr and Shards > 1, the
	// per-shard endpoints are derived as port, port+1, ... (matching a
	// sharded server started on a fixed base port); with a
	// comma-separated addr list, Shards must be 0 or match its length.
	Shards int `json:"shards"`
	// PipelineDepth bounds in-flight requests per shard connection
	// (0 = default 64).
	PipelineDepth int `json:"pipeline_depth"`
	// BatchBytes is the per-connection request coalescing threshold
	// (0 = default 256 KiB).
	BatchBytes int `json:"batch_bytes"`
}

// ResilienceConfig is the JSON surface of kv.ResilienceOptions:
// per-op deadlines, bounded retry with backoff, and a circuit breaker.
type ResilienceConfig struct {
	// OpTimeoutMs is the per-operation deadline in milliseconds
	// (0 = none).
	OpTimeoutMs int64 `json:"op_timeout_ms"`
	// MaxRetries bounds retries after the first attempt
	// (0 = default 3, -1 = no retries).
	MaxRetries int `json:"max_retries"`
	// BackoffBaseUs is the first retry delay in microseconds
	// (0 = default 100).
	BackoffBaseUs int64 `json:"backoff_base_us"`
	// BackoffMaxMs caps the retry delay in milliseconds (0 = default 20).
	BackoffMaxMs int64 `json:"backoff_max_ms"`
	// JitterSeed seeds the backoff jitter for reproducible schedules.
	JitterSeed int64 `json:"jitter_seed"`
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker (0 = default 16, -1 = breaker disabled).
	BreakerThreshold int `json:"breaker_threshold"`
	// BreakerCooldownMs is the open-state cooldown before a half-open
	// probe, in milliseconds (0 = default 50).
	BreakerCooldownMs int64 `json:"breaker_cooldown_ms"`
}

// Options converts the JSON form to kv.ResilienceOptions.
func (c ResilienceConfig) Options() kv.ResilienceOptions {
	return kv.ResilienceOptions{
		OpTimeout:        time.Duration(c.OpTimeoutMs) * time.Millisecond,
		MaxRetries:       c.MaxRetries,
		BackoffBase:      time.Duration(c.BackoffBaseUs) * time.Microsecond,
		BackoffMax:       time.Duration(c.BackoffMaxMs) * time.Millisecond,
		JitterSeed:       c.JitterSeed,
		BreakerThreshold: c.BreakerThreshold,
		BreakerCooldown:  time.Duration(c.BreakerCooldownMs) * time.Millisecond,
	}
}

// Engines lists the canonical engine names.
func Engines() []string {
	return []string{"rocksdb", "lethe", "faster", "berkeleydb", "memstore", "remote"}
}

// Open constructs the configured store. With Chaos and/or Resilience
// set, the engine is wrapped as resilient(chaos(engine)): injected
// faults land between the middleware and the engine, so retries can
// recover them.
func Open(cfg Config) (kv.Store, error) {
	s, err := openEngine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Chaos != nil {
		plan := cfg.Chaos.Plan()
		if err := plan.Validate(); err != nil {
			s.Close()
			return nil, fmt.Errorf("stores: %w", err)
		}
		s = kv.NewChaosStore(s, plan)
	}
	if cfg.Resilience != nil {
		r, err := kv.NewResilientStore(s, cfg.Resilience.Options())
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("stores: %w", err)
		}
		s = r
	}
	return s, nil
}

func openEngine(cfg Config) (kv.Store, error) {
	switch cfg.Engine {
	case "rocksdb", "lsm":
		return lsm.Open(lsm.Options{
			Dir:            cfg.Dir,
			MemtableSize:   cfg.MemtableBytes,
			BlockCacheSize: cfg.CacheBytes,
			WAL:            cfg.WAL,
			SyncWrites:     cfg.SyncWrites,
			FS:             cfg.FS,
		})
	case "lethe":
		return lethe.Open(lethe.Options{
			LSM: lsm.Options{
				Dir:            cfg.Dir,
				MemtableSize:   cfg.MemtableBytes,
				BlockCacheSize: cfg.CacheBytes,
				WAL:            cfg.WAL,
				SyncWrites:     cfg.SyncWrites,
				FS:             cfg.FS,
			},
			DeleteThreshold: time.Duration(cfg.DeleteThresholdMs) * time.Millisecond,
		})
	case "faster":
		return faster.Open(faster.Options{
			Dir:          cfg.Dir,
			LogMemBudget: cfg.LogMemBytes,
			IndexBuckets: cfg.IndexBuckets,
			FS:           cfg.FS,
		})
	case "berkeleydb", "btree":
		return btree.Open(btree.Options{Dir: cfg.Dir, CacheSize: cfg.CacheBytes, FS: cfg.FS})
	case "memstore":
		return memstore.New(), nil
	case "remote":
		return openRemote(cfg)
	default:
		return nil, fmt.Errorf("stores: unknown engine %q (want one of %v)", cfg.Engine, Engines())
	}
}

// openRemote dials the external store: one pipelined connection per
// shard endpoint, behind a shard.Client (a single endpoint is one
// shard).
func openRemote(cfg Config) (kv.Store, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("stores: remote engine requires addr")
	}
	addrs := splitAddrs(cfg.Addr)
	var rc RemoteConfig
	if cfg.Remote != nil {
		rc = *cfg.Remote
	}
	if rc.Shards < 0 {
		return nil, fmt.Errorf("stores: remote shards must be >= 0, got %d", rc.Shards)
	}
	switch {
	case len(addrs) > 1:
		if rc.Shards != 0 && rc.Shards != len(addrs) {
			return nil, fmt.Errorf("stores: remote shards = %d but addr lists %d endpoints", rc.Shards, len(addrs))
		}
	case rc.Shards > 1:
		expanded, err := expandAddrs(addrs[0], rc.Shards)
		if err != nil {
			return nil, fmt.Errorf("stores: %w", err)
		}
		addrs = expanded
	}
	return shard.Dial(addrs, remote.PipelineOptions{
		Depth:      rc.PipelineDepth,
		BatchBytes: rc.BatchBytes,
		Traced:     cfg.Traced,
	})
}

// splitAddrs splits a comma-separated endpoint list, trimming blanks.
func splitAddrs(addr string) []string {
	var out []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// expandAddrs derives n per-shard endpoints from a base address: the
// same host on port, port+1, ..., matching shard.Serve's fixed-port
// layout.
func expandAddrs(addr string, n int) ([]string, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("bad remote addr %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port <= 0 || port > 65535 {
		return nil, fmt.Errorf("remote addr %q needs a fixed non-zero port to expand across %d shards", addr, n)
	}
	if port+n-1 > 65535 {
		return nil, fmt.Errorf("%d shards from port %d exceed the port range", n, port)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = net.JoinHostPort(host, strconv.Itoa(port+i))
	}
	return out, nil
}
