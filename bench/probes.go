package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gadget"
	"gadget/internal/kv"
	"gadget/internal/obs"
	"gadget/internal/replay"
	"gadget/internal/shard"
	"gadget/internal/stats"
	"gadget/internal/stores"
	"gadget/internal/tracing"
	"gadget/internal/vfs"
)

// This file is the traced pass: the same rounds as the end-to-end pass,
// run in pairs of one plain and one instrumented round, plus the probes
// that isolate single layers. Nothing measured here feeds an end-to-end
// metric.

const (
	traceSampleN  = 64
	spanLimit     = 20_000
	prefixPercent = 60 // share of the trace replayed for the non-empty state check
)

// tracedPass runs w's traced pass, files the per-layer metrics in wr and
// writes <outDir>/<workload>.trace.json.
func (r *runner) tracedPass(w workload, wr *workloadRecord) error {
	spans := newSpanLog(spanLimit)
	var exp *expectation
	var err error
	if w.closed {
		exp, err = r.expectClosed(w, true)
	} else {
		exp, err = r.expectOpen(w)
	}
	if err != nil {
		return err
	}
	round := r.closedRound
	if !w.closed {
		round = r.openRound
	}

	var samples []sample
	var plains []*roundOut
	var tracer *gadget.Tracer
	var overhead []float64
	measured := 0.0
	for len(samples) == 0 || measured < r.seconds/2 {
		plain, err := round(w, exp, instruments{heap: true})
		if err != nil {
			return err
		}
		tracer = gadget.NewTracer(gadget.TracerOptions{SampleN: traceSampleN})
		inst, err := round(w, exp, instruments{timed: true, tracer: tracer, spans: spans})
		if err != nil {
			return err
		}
		for _, out := range []*roundOut{plain, inst} {
			measured += out.wall.Seconds()
			wr.Attempted += out.res.Ops
			wr.Failed += out.failed
			wr.Problems = append(wr.Problems, out.problems...)
		}
		samples = append(samples, r.layerSample(w, exp, plain, inst, tracer))
		plains = append(plains, plain)
		overhead = append(overhead, plain.opsPerSec()/inst.opsPerSec()-1)
		fmt.Fprintf(r.log, "# %s traced pair %d: plain %.3fs instrumented %.3fs\n", w.name, len(samples), plain.wall.Seconds(), inst.wall.Seconds())
	}
	layer := map[string]float64{}
	for k := range samples[0] {
		var vs []float64
		for _, s := range samples {
			vs = append(vs, s[k])
		}
		layer[k] = median(vs)
	}

	// Probes that run once per pass.
	if err := r.prefixCheck(w, exp, wr, layer); err != nil {
		return err
	}
	if err := r.driverProbes(w, exp, layer, plains); err != nil {
		return err
	}
	switch w.name {
	case "incr-mem":
		err = r.middlewareProbes(w, exp, layer)
	case "sharded-remote":
		err = r.remoteProbes(w, layer)
	case "open-loop-mem":
		var l *ladderResult
		if l, err = r.ladderSearch(w); err == nil {
			wr.Attempted += l.attempted
			wr.Failed += l.failed
			wr.Problems = append(wr.Problems, l.problems...)
			wr.Ladder = l.trials
			for _, rate := range ladder {
				if v := l.p99At(rate); v > 0 {
					layer[ladderMetric(rate)] = v
				}
			}
		}
	}
	if err != nil {
		return err
	}
	wr.PerLayer = layer
	wr.FailedFrac = ratio(float64(wr.Failed), float64(wr.Attempted))
	wr.Correct = wr.Correct && wr.Failed == 0
	return r.writeTrace(w, wr, tracer, spans, median(overhead))
}

// layerSample derives the per-layer metrics one plain/instrumented pair
// of rounds supports. Throughput-like values come from the plain round;
// anything that needs the wrappers or the tracer from the instrumented
// one.
func (r *runner) layerSample(w workload, exp *expectation, plain, inst *roundOut, tr *gadget.Tracer) sample {
	ops := float64(plain.res.Ops)
	lat := plain.res.Latency
	if plain.res.IntendedLatency != nil {
		lat = plain.res.IntendedLatency
	}
	s := sample{
		"core.accesses_per_event": exp.gen.accessesPerEvent,
		"replay.p99_us":           quantileMicros(lat, 0.99),
		"replay.p999_us":          quantileMicros(lat, 0.999),
		"replay.max_us":           micros(float64(lat.Max())),

		"proc.allocs_per_op":      float64(plain.mem1.Mallocs-plain.mem0.Mallocs) / ops,
		"proc.alloc_bytes_per_op": float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc) / ops,
		"proc.gc_pause_ms":        float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6,
		"proc.heap_peak_mb":       float64(plain.heapPeak) / 1e6,
	}
	total := tr.TotalHist().Snapshot().Sum()
	stage := func(st tracing.Stage) *stats.Histogram { return tr.StageHist(st).Snapshot() }
	share := func(st tracing.Stage) float64 { return ratio(stage(st).Sum(), total) }

	if !w.closed {
		// The open loop replays a trace generated offline; the closed
		// loops generate online and are priced by driverProbes.
		s["core.gen_ns_per_access"] = exp.gen.nsPerAccess
		s["core.gen_allocs_per_access"] = exp.gen.allocsPerAccess
		s["replay.sched_lag_p50_us"] = quantileMicros(stage(tracing.StageSched), 0.50)
		s["replay.sched_lag_p99_us"] = quantileMicros(stage(tracing.StageSched), 0.99)
		s["replay.max_lag_us"] = micros(float64(plain.res.MaxLag.Nanoseconds()))
		s["replay.overload_frac"] = ratio(float64(plain.res.Overload), float64(plain.res.Offered))
	}
	timed := inst.st.timed
	switch w.engine {
	case "rocksdb":
		eng := plain.res.Engine
		s["lsm.get_ns_per_op"] = timed.nsPerOp(kv.OpGet)
		s["lsm.put_ns_per_op"] = timed.nsPerOp(kv.OpPut)
		s["lsm.delete_ns_per_op"] = timed.nsPerOp(kv.OpDelete)
		s["lsm.engine_mem_share"] = share(tracing.StageEngineMem)
		s["lsm.engine_sst_share"] = share(tracing.StageEngineSST)
		s["lsm.engine_wal_share"] = share(tracing.StageEngineWAL)
		s["lsm.engine_wal_p99_ns"] = histQuantile(stage(tracing.StageEngineWAL), 0.99)
		s["lsm.flushes"] = float64(eng["lsm.flushes"])
		s["lsm.compactions"] = float64(eng["lsm.compactions"])
		s["lsm.stall_frac"] = ratio(float64(eng["lsm.stall_nanos"]), float64(plain.wall.Nanoseconds()))
		s["lsm.compact_bytes_per_user_byte"] = ratio(float64(eng["lsm.bytes_compacted"]), float64(exp.putBytes))
		s["lsm.cache_hit_ratio"] = ratio(float64(eng["lsm.cache_hits"]), float64(eng["lsm.cache_hits"]+eng["lsm.cache_misses"]))
		s["lsm.bloom_fp_ratio"] = ratio(float64(eng["lsm.bloom_false_positives"]), float64(eng["lsm.bloom_checks"]))
		s["lsm.size_bytes_end"] = float64(plain.sizeEnd)
		s["lsm.iter_ops"] = float64(eng["lsm.iter_ops"])
		s["lsm.snapshots"] = float64(eng["lsm.snapshots"])
		if entries := float64(timed.scanEntries.Load()); entries > 0 {
			s["lsm.scan_ns_per_entry"] = float64(timed.nanos[kv.OpScan].Load()) / entries
			s["lsm.scan_allocs_per_entry"] = float64(timed.scanMallocs.Load()) / entries
			s["lsm.scan_p50_us"] = quantileMicros(timed.scanLat, 0.50)
		}
		d := plain.dev
		s["vfs.write_calls_per_kop"] = 1e3 * float64(d.writeCalls) / ops
		s["vfs.bytes_written_per_op"] = float64(d.written()) / ops
		s["vfs.syncs"] = float64(d.syncs)
		s["vfs.read_calls_per_kop"] = 1e3 * float64(d.readCalls) / ops
		s["vfs.bytes_read_per_op"] = float64(d.bytesRead) / ops
	case "memstore":
		calls, nanos := timed.totals()
		s["memstore.ns_per_op"] = ratio(float64(nanos), float64(calls))
	case "sharded":
		topCalls, topNanos := timed.totals()
		var engCalls, engNanos int64
		for _, b := range inst.st.backs {
			c, n := b.totals()
			engCalls, engNanos = engCalls+c, engNanos+n
		}
		eng := plain.res.Engine
		s["memstore.ns_per_op"] = ratio(float64(engNanos), float64(engCalls))
		s["remote.self_ns_per_op"] = ratio(float64(topNanos-engNanos), float64(topCalls))
		s["remote.ops_per_batch"] = ratio(float64(eng["remote.requests"]), float64(eng["remote.batches"]))
		s["remote.queue_p50_us"] = quantileMicros(stage(tracing.StageQueue), 0.50)
		s["remote.wire_p50_us"] = quantileMicros(stage(tracing.StageWire), 0.50)
		s["remote.server_p50_us"] = quantileMicros(stage(tracing.StageServer), 0.50)
		s["remote.queue_share"] = share(tracing.StageQueue)
		s["remote.wire_share"] = share(tracing.StageWire)
		s["remote.server_share"] = share(tracing.StageServer)
		s["remote.allocs_per_op"] = s["proc.allocs_per_op"]
		s["remote.alloc_bytes_per_op"] = s["proc.alloc_bytes_per_op"]
		s["remote.redials"] = float64(eng["remote.redials"])
		s["remote.failures"] = float64(eng["remote.failures"])
		per := plain.st.server.PerShardRequests()
		var sum, most float64
		for _, n := range per {
			sum += float64(n)
			most = math.Max(most, float64(n))
		}
		s["shard.imbalance"] = ratio(most, sum/float64(len(per)))
	}
	return s
}

// prefixCheck replays the first 60 % of the trace through a fresh stack
// with gadget.Replay and compares the state, which is not empty at that
// point, with the oracle's. The state also serves the snapshot and
// checkpoint probes, which need something to copy.
func (r *runner) prefixCheck(w workload, exp *expectation, wr *workloadRecord, layer map[string]float64) error {
	prefix := exp.trace[:fullestCut(exp.trace, len(exp.trace)*prefixPercent/100)]
	_, want, err := oracleState(prefix)
	if err != nil {
		return err
	}
	st, err := w.openStack(r.tmpRoot, instruments{})
	if err != nil {
		return err
	}
	defer st.close()
	res, err := gadget.Replay(st.top, prefix, gadget.ReplayOptions{})
	if err != nil {
		return fmt.Errorf("%s: prefix replay: %w", w.name, err)
	}
	got, err := kv.ScanAll(st.top)
	if err != nil {
		return err
	}
	wr.Attempted += res.Ops
	if n := uint64(diffEntries(got, want)) + res.Errors; n != 0 || len(want) == 0 {
		wr.Failed += max(n, 1)
		wr.Problems = append(wr.Problems, fmt.Sprintf("%s: prefix state: %d keys differ or failed (%d entries, oracle %d; an empty oracle state proves nothing)", w.name, n, len(got), len(want)))
	} else {
		fmt.Fprintf(r.log, "# %s prefix state %s matches the oracle (%d%% of the trace)\n", w.name, digest(got), prefixPercent)
	}

	switch w.name {
	case "incr-mem":
		t0 := time.Now()
		snap, err := kv.SnapshotOf(st.top)
		if err != nil {
			return err
		}
		if err := snap.Close(); err != nil {
			return err
		}
		layer["memstore.snapshot_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	case "scan-lsm":
		ck := &kv.Checkpointer{FS: vfs.NewMemFS(), Dir: "ckpt", Engine: "rocksdb"}
		t0 := time.Now()
		_, bytes, err := ck.Save(st.top, res.Ops)
		if err != nil {
			return fmt.Errorf("%s: checkpoint save: %w", w.name, err)
		}
		layer["kv.checkpoint_save_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		layer["kv.checkpoint_bytes"] = float64(bytes)
		fresh, err := stores.Open(stores.Config{Engine: "memstore"})
		if err != nil {
			return err
		}
		defer fresh.Close()
		t1 := time.Now()
		if _, err := ck.Restore(fresh); err != nil {
			return fmt.Errorf("%s: checkpoint restore: %w", w.name, err)
		}
		layer["kv.checkpoint_restore_ms"] = float64(time.Since(t1).Nanoseconds()) / 1e6
		restored, err := kv.ScanAll(fresh)
		if err != nil {
			return err
		}
		if n := diffEntries(restored, want); n != 0 {
			wr.Failed += uint64(n)
			wr.Problems = append(wr.Problems, fmt.Sprintf("%s: restored checkpoint differs from the oracle on %d keys", w.name, n))
		}
	}
	return st.close()
}

// fullestCut moves a cut point back to just before the last burst of
// trigger reads at or before it. Windows fire in bursts that empty the
// store; right before one, the state is as large as it gets.
func fullestCut(tr []gadget.Access, at int) int {
	trigger := func(op kv.Op) bool { return op == kv.OpFGet || op == kv.OpScan || op == kv.OpDelete }
	for i := at; i > 1; i-- {
		if trigger(tr[i].Op) && !trigger(tr[i-1].Op) {
			return i
		}
	}
	return at
}

// driverProbes measures the driver alone by pointing it at a store that
// does nothing: the collector on a pre-generated trace, and generator
// plus collector together through the same online entry point the
// round uses. Their difference is the generator.
func (r *runner) driverProbes(w workload, exp *expectation, layer map[string]float64, plains []*roundOut) error {
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := gadget.Replay(nullStore{}, exp.trace, gadget.ReplayOptions{})
	if err != nil {
		return err
	}
	replayNs := float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&m1)
	ops := float64(res.Ops)
	if !w.closed {
		// Open against closed on the same trace: the pacer never sleeps at
		// this rate, so the difference is the queue hop and the
		// intended-latency bookkeeping.
		t1 := time.Now()
		if _, err := gadget.ReplayOpenLoop(nullStore{}, exp.trace, gadget.OpenLoopOptions{Rate: 1e9, MaxInFlight: maxInFlight}); err != nil {
			return err
		}
		layer["replay.queue_hop_ns_per_op"] = (float64(time.Since(t1).Nanoseconds()) - replayNs) / ops
		return nil
	}
	wl, err := gadget.NewWorkload(w.config(r.seed, exp.events))
	if err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := drive(wl, w.clients, nullStore{}, gadget.ReplayOptions{}); err != nil {
		return err
	}
	onlineNs := float64(time.Since(t1).Nanoseconds())
	runtime.ReadMemStats(&m2)
	layer["replay.collector_ns_per_op"] = replayNs / ops
	layer["core.gen_ns_per_access"] = (onlineNs*float64(w.clients) - replayNs) / ops
	layer["core.gen_allocs_per_access"] = (float64(m2.Mallocs-m1.Mallocs) - float64(m1.Mallocs-m0.Mallocs)) / ops
	var shares []float64
	for _, out := range plains {
		shares = append(shares, onlineNs/float64(out.wall.Nanoseconds()))
	}
	layer["replay.driver_share"] = median(shares)
	return nil
}

// middlewareProbes prices what is switched off in end-to-end runs: one
// extra incr-mem round each with the resilience wrapper and with the
// telemetry rig, against one more plain round taken right beside them;
// and one short round on each engine no workload targets yet.
func (r *runner) middlewareProbes(w workload, exp *expectation, layer map[string]float64) error {
	wl, err := gadget.NewWorkload(w.config(r.seed, exp.events))
	if err != nil {
		return err
	}
	// A rig is what one probe round drives: the store, possibly wrapped,
	// the options, and what to tear down when the round is over.
	type rig struct {
		top  kv.Store
		opts gadget.ReplayOptions
		done func(gadget.Result) error
	}
	timeRound := func(build func(kv.Store) (rig, error)) (float64, error) {
		st, err := w.openStack(r.tmpRoot, instruments{})
		if err != nil {
			return 0, err
		}
		defer st.close()
		g, err := build(st.top)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := wl.RunOnline(g.top, g.opts)
		secs := time.Since(t0).Seconds()
		if g.done != nil {
			if derr := g.done(res); err == nil {
				err = derr
			}
		}
		if err != nil || res.Errors != 0 || res.Ops != exp.ops {
			return 0, fmt.Errorf("%s: middleware probe: ops %d of %d, %d errors: %v", w.name, res.Ops, exp.ops, res.Errors, err)
		}
		return float64(res.Ops) / secs, nil
	}
	base, err := timeRound(func(s kv.Store) (rig, error) { return rig{top: s}, nil })
	if err != nil {
		return err
	}
	resilient, err := timeRound(func(s kv.Store) (rig, error) {
		rs, err := gadget.NewResilientStore(s, gadget.ResilienceOptions{})
		return rig{top: rs}, err
	})
	if err != nil {
		return err
	}
	observed, err := timeRound(func(s kv.Store) (rig, error) {
		// The full rig of `gadget run -metrics-addr`: registry with a store
		// collector, the HTTP listener, and a sampler on the live collector.
		reg := obs.NewRegistry()
		obs.RegisterStoreCollector(reg, s)
		srv, err := obs.Serve("127.0.0.1:0", reg)
		if err != nil {
			return rig{}, err
		}
		var sampler *obs.Sampler
		var samplerErr error
		opts := gadget.ReplayOptions{Observer: func(c *replay.Collector) {
			sampler, samplerErr = obs.StartSampler(obs.SamplerOptions{Interval: 50 * time.Millisecond, Snapshot: c.Snapshot, Store: s, Registry: reg})
		}}
		return rig{top: s, opts: opts, done: func(final gadget.Result) error {
			if sampler != nil {
				sampler.Stop(final)
			}
			if err := srv.Close(); err != nil {
				return err
			}
			return samplerErr
		}}, nil
	})
	if err != nil {
		return err
	}
	traced, err := timeRound(func(s kv.Store) (rig, error) {
		return rig{top: s, opts: gadget.ReplayOptions{Tracer: gadget.NewTracer(gadget.TracerOptions{SampleN: traceSampleN})}}, nil
	})
	if err != nil {
		return err
	}
	layer["kv.resilient_overhead_frac"] = base/resilient - 1
	layer["obs.overhead_frac"] = base/observed - 1
	layer["tracing.sampled_overhead_frac"] = base/traced - 1

	small, err := gadget.NewWorkload(w.config(r.seed, r.scaled(otherEngineEvs, 1000)))
	if err != nil {
		return err
	}
	for metric, engine := range map[string]string{"lethe.ops_per_s": "lethe", "faster.ops_per_s": "faster", "btree.ops_per_s": "berkeleydb"} {
		dir, err := os.MkdirTemp(r.tmpRoot, engine+"-")
		if err != nil {
			return err
		}
		db, err := stores.Open(stores.Config{Engine: engine, Dir: dir, MemtableBytes: lsmMemtableBytes, CacheBytes: lsmCacheBytes})
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := small.RunOnline(db, gadget.ReplayOptions{})
		secs := time.Since(t0).Seconds()
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
		if err != nil || res.Errors != 0 {
			return fmt.Errorf("%s round: %d errors: %v", engine, res.Errors, err)
		}
		layer[metric] = float64(res.Ops) / secs
	}
	return nil
}

// remoteProbes adds the single-client lockstep round trip, the baseline
// the two-client round is read against, and the cost of the routing
// hash alone.
func (r *runner) remoteProbes(w workload, layer map[string]float64) error {
	wl, err := gadget.NewWorkload(w.config(r.seed, r.scaled(w.events, 1000)/4))
	if err != nil {
		return err
	}
	st, err := w.openStack(r.tmpRoot, instruments{})
	if err != nil {
		return err
	}
	defer st.close()
	res, err := wl.RunOnline(st.top, gadget.ReplayOptions{})
	if err != nil || res.Errors != 0 {
		return fmt.Errorf("%s: one-client round: %d errors: %v", w.name, res.Errors, err)
	}
	layer["remote.rtt_1c_p50_us"] = quantileMicros(res.Latency, 0.50)

	const n = 1 << 20
	var key [kv.KeyLen]byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		key[kv.KeyLen-1], key[kv.KeyLen-2], key[kv.KeyLen-3] = byte(i), byte(i>>8), byte(i>>16)
		routeSink += shard.Route(key[:], shardCount)
	}
	layer["shard.route_ns_per_op"] = float64(time.Since(t0).Nanoseconds()) / n
	return st.close()
}

// routeSink keeps the compiler from dropping the routing loop.
var routeSink int

// traceFile is the document written to <workload>.trace.json.
type traceFile struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	SampleN  int    `json:"sample_n"`
	// Stages summarises each tracer stage of the last instrumented
	// round: count, p50, p99 and its share of the summed end-to-end time
	// of the traced operations.
	Stages        map[string]stageLine `json:"stages"`
	StageShareSum float64              `json:"stage_share_sum"`
	// OverheadFrac is plain throughput over instrumented throughput,
	// minus one: what the tracer and the wrappers cost together.
	OverheadFrac float64         `json:"instrumented_overhead_frac"`
	SlowOps      *gadget.SlowOps `json:"slow_ops"`
	// Spans are the benchmark's own: one per phase of each instrumented
	// round, plus every 64th store call at each wrapped boundary.
	SpansDropped int    `json:"spans_dropped"`
	Spans        []span `json:"spans"`
}

type stageLine struct {
	Count uint64  `json:"count"`
	P50Ns float64 `json:"p50_ns"`
	P99Ns float64 `json:"p99_ns"`
	Share float64 `json:"share"`
}

func (r *runner) writeTrace(w workload, wr *workloadRecord, tr *gadget.Tracer, spans *spanLog, overhead float64) error {
	doc := traceFile{
		Schema: "gadget.bench.trace/v1", Workload: w.name, Seed: r.seed, SampleN: traceSampleN,
		Stages: map[string]stageLine{}, OverheadFrac: overhead, SlowOps: gadget.TracerSnapshot(tr),
		SpansDropped: spans.dropped, Spans: spans.spans,
	}
	total := tr.TotalHist().Snapshot().Sum()
	for st := tracing.Stage(0); int(st) < tracing.NumStages; st++ {
		h := tr.StageHist(st).Snapshot()
		if h.Count() == 0 {
			continue
		}
		line := stageLine{Count: h.Count(), P50Ns: histQuantile(h, 0.50), P99Ns: histQuantile(h, 0.99), Share: ratio(h.Sum(), total)}
		doc.Stages[st.String()] = line
		// sched precedes the store call, so it is not part of the
		// end-to-end time the other stages add up to.
		if st != tracing.StageSched {
			doc.StageShareSum += line.Share
		}
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.outDir, w.name+".trace.json")
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	wr.TraceFile = path
	fmt.Fprintf(r.log, "# %s traced pass: stage shares sum to %.1f%% of traced end-to-end time; %d spans in %s\n",
		w.name, 100*doc.StageShareSum, len(doc.Spans), path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
