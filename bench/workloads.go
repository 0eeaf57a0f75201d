package main

import (
	"fmt"
	"os"

	"gadget"
	"gadget/internal/dist"
	"gadget/internal/kv"
	"gadget/internal/remote"
	"gadget/internal/shard"
	"gadget/internal/stores"
)

// Work is fixed per round (event counts, not seconds), so counts repeat
// exactly with a seed. The counts are sized so that one round takes
// about two seconds on the 2-vCPU box this benchmark was written on;
// they are never scaled at run time. Tests pass a smaller scale.
const (
	incrLSMEvents  = 200_000   // ≈17 flushes, ≈4 compactions, 55 MB put against an 8 MiB cache
	scanLSMEvents  = 400_000   // ≈1 M ops, ≈200 range-scan drains; fits the cache
	incrMemEvents  = 1_000_000 // ≈2.9 M ops against a store that costs ≈150 ns/op
	shardedEvents  = 50_000    // ≈140 k round trips over loopback
	otherEngineEvs = 100_000   // the ≈1 s lethe/faster/btree rounds of the traced pass

	lsmMemtableBytes = 4 << 20
	lsmCacheBytes    = 8 << 20
	lsmFlushPolicy   = "WAL on, sync_writes off: the log is written, never fsynced per write; tables and MANIFEST are fsynced at flush and compaction"

	shardCount    = 2
	pipelineDepth = 64

	// Open loop. Rates are store accesses per second: the replay driver
	// schedules one arrival per access.
	refRate      = 200_000 // the reference step every latency metric is read at
	refSeconds   = 4       // schedule length of one reference round: one 20 ms hiccup delays 0.5 % of it, short of the p99
	trialSeconds = 0.75    // schedule length of one ladder trial
	maxInFlight  = 4096

	// A ladder trial passes when all three hold. The limits are loose
	// enough to ride out the 5–15 ms scheduling hiccups of a shared
	// sandbox and tight enough that a rate past saturation, whose
	// backlog grows for the whole trial, fails all three at once.
	sloP99Micros   = 20_000
	sloOverload    = 0.01
	sloAchievedMin = 0.99
)

// workload is one named set of inputs.
type workload struct {
	name, why string
	load      string // closed or open loop, with its client count or rate
	flush     string // flush policy, for workloads with a device
	closed    bool
	clients   int
	events    int // input events per round at scale 1
	operator  gadget.OperatorConfig
	keys      uint64
	keyDist   dist.Kind
	engine    string // "rocksdb", "memstore" or "sharded"
}

var workloads = []workload{
	{
		name: "incr-lsm", why: "write/RMW-heavy point path on the LSM with data larger than its cache: memtable, WAL, flush, compaction, bloom and block cache do the work",
		load: "closed loop, 1 client", flush: lsmFlushPolicy, closed: true, clients: 1, events: incrLSMEvents,
		operator: gadget.OperatorConfig{Operator: gadget.TumblingIncr, WindowLengthMs: 10_000, AggStateSize: 256},
		keys:     200_000, keyDist: dist.Zipfian, engine: "rocksdb",
	},
	{
		name: "scan-lsm", why: "same LSM used through range iterators, snapshots and tombstones on data that fits its cache, so a layout change that helps scans but taxes point writes shows",
		load: "closed loop, 1 client", flush: lsmFlushPolicy, closed: true, clients: 1, events: scanLSMEvents,
		operator: gadget.OperatorConfig{Operator: gadget.TopKDrain, WindowLengthMs: 2_000, AggStateSize: 64},
		keys:     5_000, keyDist: dist.Zipfian, engine: "rocksdb",
	},
	{
		name: "incr-mem", why: "the engine costs almost nothing, so generator, collector and histograms are the bottleneck: harness overhead shows here and an engine change must predict no change",
		load: "closed loop, 1 client", closed: true, clients: 1, events: incrMemEvents,
		operator: gadget.OperatorConfig{Operator: gadget.TumblingIncr, WindowLengthMs: 10_000, AggStateSize: 256},
		keys:     200_000, keyDist: dist.Zipfian, engine: "memstore",
	},
	{
		name: "sharded-remote", why: "two lockstep clients over loopback to a 2-shard server: pipeline, protocol, server and routing own the time and the engine about 1 % of it",
		load: "closed loop, 2 clients sharing one 2-shard v3 client (depth 64)", closed: true, clients: 2, events: shardedEvents,
		operator: gadget.OperatorConfig{Operator: gadget.TumblingIncr, WindowLengthMs: 10_000, AggStateSize: 256},
		keys:     50_000, keyDist: dist.Zipfian, engine: "sharded",
	},
	{
		name: "open-loop-mem", why: "independent users: arrivals on a Poisson schedule, latency charged from intended arrival, pacer, queue and service worker under test, and the only sustainable-rate answer",
		load: "open loop, Poisson arrivals, reference 200000 acc/s then a fixed 9-step ladder to 1600000 acc/s, MaxInFlight 4096", clients: 1,
		events:   int(refRate * refSeconds), // accesses, not events: the open loop replays a pre-generated trace
		operator: gadget.OperatorConfig{Operator: gadget.TumblingIncr, WindowLengthMs: 10_000, AggStateSize: 256},
		keys:     200_000, keyDist: dist.Drifting, engine: "memstore",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config builds the source and operator halves of a gadget.Config; the
// store half is opened by openStack so that wrappers can be placed.
func (w workload) config(seed int64, events int) gadget.Config {
	return gadget.Config{
		Source: gadget.SourceConfig{
			Events: events, Keys: w.keys, KeyDist: w.keyDist,
			ValueSize: w.operator.AggStateSize, Seed: seed, WatermarkEvery: 100,
		},
		Operator: w.operator,
	}
}

// instruments selects what the traced pass adds to a stack. The zero
// value is the plain stack of the end-to-end runs.
type instruments struct {
	timed  bool           // timedStore at the top and around each backing engine
	tracer *gadget.Tracer // sampled per-stage attribution
	spans  *spanLog
	heap   bool // sample the live heap while the round is driven
}

// stack is one freshly opened store stack and everything the benchmark
// needs to read from it afterwards.
type stack struct {
	top    kv.Store      // what the driver drives
	engine kv.Store      // the store below any wrapper: LSM, memstore or shard client
	timed  *timedStore   // top-of-stack wrapper, when instrumented
	backs  []*timedStore // wrappers around the engines under the server
	fs     *countingFS   // the device, for stacks that have one
	server *shard.Server
	dir    string

	closers []func() error
}

func (s *stack) close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// openStack opens a fresh stack for w under tmpRoot. The counting
// filesystem is always on: write_amp is an end-to-end metric and a
// counter costs one atomic add per system call.
func (w workload) openStack(tmpRoot string, in instruments) (*stack, error) {
	st := &stack{}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, fmt.Errorf("%s: open stack: %w", w.name, err)
	}
	switch w.engine {
	case "rocksdb":
		dir, err := os.MkdirTemp(tmpRoot, w.name+"-")
		if err != nil {
			return fail(err)
		}
		st.dir = dir
		st.closers = append(st.closers, func() error { return os.RemoveAll(dir) })
		st.fs = newCountingFS()
		db, err := stores.Open(lsmConfig(dir, st.fs))
		if err != nil {
			return fail(err)
		}
		st.engine = db
	case "memstore":
		db, err := stores.Open(stores.Config{Engine: "memstore"})
		if err != nil {
			return fail(err)
		}
		st.engine = db
	case "sharded":
		engines := make([]kv.Store, shardCount)
		for i := range engines {
			db, err := stores.Open(stores.Config{Engine: "memstore"})
			if err != nil {
				return fail(err)
			}
			st.closers = append(st.closers, db.Close)
			engines[i] = db
			if in.timed {
				ts := newTimedStore(db, "engine", "server", in.spans)
				st.backs = append(st.backs, ts)
				engines[i] = ts
			}
		}
		srv, err := shard.Serve(engines, "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		st.server = srv
		st.closers = append(st.closers, srv.Close)
		cl, err := shard.Dial(srv.Addrs(), remote.PipelineOptions{Depth: pipelineDepth, Traced: in.tracer != nil})
		if err != nil {
			return fail(err)
		}
		st.engine = cl
	default:
		return fail(fmt.Errorf("unknown engine %q", w.engine))
	}
	st.closers = append(st.closers, func() error { return st.engine.Close() })
	st.top = st.engine
	if in.timed {
		st.timed = newTimedStore(st.engine, "stack", "round", in.spans)
		st.timed.countScanAllocs = w.clients == 1
		st.top = st.timed
	}
	return st, nil
}

func lsmConfig(dir string, fs *countingFS) stores.Config {
	return stores.Config{
		Engine: "rocksdb", Dir: dir, MemtableBytes: lsmMemtableBytes, CacheBytes: lsmCacheBytes,
		WAL: true, SyncWrites: false, FS: fs,
	}
}

// reopen closes the LSM and opens it again on the same directory, the
// restart half of the correctness gate.
func (st *stack) reopen() error {
	if err := st.engine.Close(); err != nil {
		return err
	}
	db, err := stores.Open(lsmConfig(st.dir, st.fs))
	if err != nil {
		return err
	}
	st.engine = db
	if st.timed != nil {
		st.timed.inner = db
	} else {
		st.top = db
	}
	return nil
}
