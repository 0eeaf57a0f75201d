package gadget_test

// One benchmark per table and figure of the paper. Each bench runs the
// corresponding experiment end to end at CI scale and reports the
// domain metric (rows produced, shape checks passed) alongside wall
// time; `go run ./cmd/gadget-experiments` regenerates the full-scale
// numbers recorded in EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gadget"
	"gadget/internal/experiments"
	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/obs"
	"gadget/internal/remote"
	"gadget/internal/replay"
	"gadget/internal/shard"
	"gadget/internal/stores"
	"gadget/internal/tracing"
	"gadget/internal/vfs"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	if testing.Short() {
		b.Skip("experiment benchmarks are skipped in -short mode")
	}
	run, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	scale := experiments.QuickScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := run(scale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("no rows")
		}
		b.ReportMetric(float64(len(rep.Rows)), "rows")
		b.ReportMetric(float64(len(rep.Checks)-len(rep.Failed())), "checks_passed")
	}
}

func BenchmarkTable1Composition(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2KSTest(b *testing.B)           { benchExperiment(b, "table2") }
func BenchmarkTable3TTL(b *testing.B)              { benchExperiment(b, "table3") }
func BenchmarkFigure2WindowConfig(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFigure3Amplification(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFigure4SlideSweep(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFigure5Locality(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFigure6Watermarks(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFigure7YCSBLocality(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFigure10GadgetAccuracy(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11TraceFidelity(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFigure12YCSBCore(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFigure13StoreShootout(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFigure14Concurrent(b *testing.B)     { benchExperiment(b, "fig14") }

// Harness micro-benchmarks: workload generation throughput and online
// end-to-end runs per engine.

func benchConfig(op gadget.OperatorType, events int) gadget.Config {
	return gadget.Config{
		Source: gadget.SourceConfig{
			Events: events, Keys: 1000, RatePerSec: 500, ValueSize: 64,
			WatermarkEvery: 100, Seed: 1,
		},
		Operator: gadget.OperatorConfig{
			Operator: op, WindowLengthMs: 5000, WindowSlideMs: 1000,
		},
	}
}

func BenchmarkGenerateTumblingTrace(b *testing.B) {
	events := 50000
	if testing.Short() {
		events = 5000
	}
	w, err := gadget.NewWorkload(benchConfig(gadget.TumblingIncr, events))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := w.Generate()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tr)), "accesses")
	}
}

// BenchmarkResilientOverhead measures the happy-path cost of the
// resilience middleware: the same op mix against a raw memstore and a
// ResilientStore wrapping it with a zero fault rate. The wrapped run
// must stay within a few percent of raw (see results/bench-baseline.txt).
func BenchmarkResilientOverhead(b *testing.B) {
	for _, wrapped := range []bool{false, true} {
		name := "raw"
		if wrapped {
			name = "resilient"
		}
		b.Run(name, func(b *testing.B) {
			var store gadget.Store = memstore.New()
			defer store.Close()
			if wrapped {
				var err error
				store, err = gadget.NewResilientStore(store, gadget.ResilienceOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			key := make([]byte, 16)
			val := make([]byte, 64)
			// Pre-populate the working set so the map size, and with it
			// the per-op cost, is stable across the timed loop.
			for i := 0; i < 1<<16; i++ {
				key[0], key[1] = byte(i), byte(i>>8)
				if err := store.Put(key, val); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				key[0], key[1] = byte(i), byte(i>>8)
				switch i % 4 {
				case 0, 1:
					if _, err := store.Get(key); err != nil && err != gadget.ErrNotFound {
						b.Fatal(err)
					}
				case 2:
					if err := store.Put(key, val); err != nil {
						b.Fatal(err)
					}
				default:
					if err := store.Delete(key); err != nil && err != gadget.ErrNotFound {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// snapshotBenchEngines are the engines the snapshot/scan benches cover:
// the two native MVCC engines plus the two fallback (stop-the-world)
// engines, so the baseline records both cost classes.
var snapshotBenchEngines = []string{"rocksdb", "berkeleydb", "memstore", "faster"}

// benchScanStore opens an engine pre-populated with 4096 StateKey
// entries across 16 groups — enough that the LSM engine has flushed
// tables and the B+Tree spans many leaves.
func benchScanStore(b *testing.B, engine string) kv.Store {
	b.Helper()
	s, err := stores.Open(stores.Config{
		Engine: engine, Dir: b.TempDir(),
		MemtableBytes: 64 << 10, CacheBytes: 256 << 10,
		LogMemBytes: 8 << 20, IndexBuckets: 1 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	for g := uint64(0); g < 16; g++ {
		for sub := uint64(0); sub < 256; sub++ {
			sk := kv.StateKey{Group: g, Sub: sub}
			if err := s.Put(sk.Bytes(), val); err != nil {
				b.Fatal(err)
			}
		}
	}
	return s
}

// BenchmarkSnapshotOverhead measures snapshot acquisition+release per
// engine. The MVCC engines (rocksdb, berkeleydb) pin existing
// structures and should stay O(1)-ish; memstore and faster pay the
// stop-the-world fallback copy, so their ns/op scales with store size
// (4096 entries here). Guarded by ci.sh's bench drift check.
func BenchmarkSnapshotOverhead(b *testing.B) {
	for _, engine := range snapshotBenchEngines {
		b.Run(engine, func(b *testing.B) {
			s := benchScanStore(b, engine)
			defer s.Close()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap, err := kv.SnapshotOf(s)
				if err != nil {
					b.Fatal(err)
				}
				if err := snap.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanRange measures one bounded range scan (a 256-entry key
// group) per iteration — the access pattern of the windowed top-K
// drain's trigger. Guarded by ci.sh's bench drift check.
func BenchmarkScanRange(b *testing.B) {
	for _, engine := range snapshotBenchEngines {
		b.Run(engine, func(b *testing.B) {
			s := benchScanStore(b, engine)
			defer s.Close()
			lo := kv.StateKey{Group: 7}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ents, err := kv.ScanRange(s, lo, lo.GroupEnd())
				if err != nil {
					b.Fatal(err)
				}
				if len(ents) != 256 {
					b.Fatalf("scan returned %d entries, want 256", len(ents))
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the per-op cost of the full telemetry
// rig — registry with a store collector, /metrics HTTP listener, and a
// 50ms sampler snapshotting the live collector — against the identical
// bare run. The sampler is pull-based, so the hot path should stay
// within a few percent of bare (see results/bench-baseline.txt).
func BenchmarkObsOverhead(b *testing.B) {
	for _, observed := range []bool{false, true} {
		name := "bare"
		if observed {
			name = "observed"
		}
		b.Run(name, func(b *testing.B) {
			store := memstore.New()
			defer store.Close()
			c, err := replay.NewCollector(store, replay.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var sampler *obs.Sampler
			if observed {
				reg := obs.NewRegistry()
				obs.RegisterStoreCollector(reg, store)
				srv, err := obs.Serve("127.0.0.1:0", reg)
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				sampler, err = obs.StartSampler(obs.SamplerOptions{
					Interval: 50 * time.Millisecond,
					Snapshot: c.Snapshot,
					Store:    store,
					Registry: reg,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := kv.Access{Key: kv.StateKey{Group: 1, Sub: uint64(i % (1 << 16))}, Size: 64}
				if i%2 == 0 {
					a.Op = kv.OpPut
				} else {
					a.Op = kv.OpGet
				}
				if err := c.Do(a); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			final := c.Finish()
			if sampler != nil {
				sampler.Stop(final)
			}
		})
	}
}

// BenchmarkOpenLoopOverhead measures the per-op cost the open-loop
// driver adds over the closed-loop replay path: the same trace against
// a memstore, closed loop versus open loop at an effectively unpaced
// rate (1ns gaps, so the dispatch loop never waits and the numbers
// isolate admission, the ring and intended-latency accounting; see
// results/bench-baseline.txt).
func BenchmarkOpenLoopOverhead(b *testing.B) {
	for _, open := range []bool{false, true} {
		name := "closed"
		if open {
			name = "open"
		}
		b.Run(name, func(b *testing.B) {
			store := memstore.New()
			defer store.Close()
			tr := make([]gadget.Access, b.N)
			for i := range tr {
				a := kv.Access{Key: kv.StateKey{Group: 1, Sub: uint64(i % (1 << 16))}, Size: 64}
				if i%2 == 0 {
					a.Op = kv.OpPut
				} else {
					a.Op = kv.OpGet
				}
				tr[i] = a
			}
			b.ResetTimer()
			b.ReportAllocs()
			var res gadget.Result
			var err error
			if open {
				res, err = gadget.ReplayOpenLoop(store, tr, gadget.OpenLoopOptions{
					Rate: 1e9, MaxInFlight: 4096,
				})
			} else {
				res, err = gadget.Replay(store, tr, gadget.ReplayOptions{})
			}
			if err != nil {
				b.Fatal(err)
			}
			if res.Ops != uint64(b.N) {
				b.Fatalf("ops = %d, want %d", res.Ops, b.N)
			}
		})
	}
}

// nopStore answers every operation at once, leaving a run's time to
// the driver.
type nopStore struct{}

func (nopStore) Get([]byte) ([]byte, error) { return nil, nil }
func (nopStore) Put(_, _ []byte) error      { return nil }
func (nopStore) Merge(_, _ []byte) error    { return nil }
func (nopStore) Delete([]byte) error        { return nil }
func (nopStore) Close() error               { return nil }

// BenchmarkOpenLoopDispatchLag measures how late the open-loop driver
// hands arrivals to the store when it has to wait for them: 200k ev/s
// Poisson arrivals against a store that costs nothing, every op traced,
// dispatch lag read from the sched stage. ns/op is the arrival gap
// (5000) as long as the driver keeps up.
func BenchmarkOpenLoopDispatchLag(b *testing.B) {
	tr := make([]gadget.Access, b.N)
	for i := range tr {
		tr[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: 1, Sub: uint64(i)}, Size: 8}
	}
	tracer := tracing.New(tracing.Options{SampleN: 1})
	b.ResetTimer()
	res, err := gadget.ReplayOpenLoop(nopStore{}, tr, gadget.OpenLoopOptions{
		Arrivals: gadget.PoissonArrivals(200_000, 1), Tracer: tracer,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.Ops != uint64(b.N) {
		b.Fatalf("ops = %d, want %d", res.Ops, b.N)
	}
	lag := tracer.StageHist(tracing.StageSched).Snapshot()
	b.ReportMetric(float64(lag.Quantile(0.50)), "lag-p50-ns")
	b.ReportMetric(float64(lag.Quantile(0.99)), "lag-p99-ns")
}

func BenchmarkOnlineRun(b *testing.B) {
	for _, engine := range gadget.Engines() {
		engine := engine
		if engine == "remote" {
			continue // needs a running gadget-server; see internal/remote benches
		}
		b.Run(engine, func(b *testing.B) {
			events := 20000
			if testing.Short() {
				events = 2000
			}
			w, err := gadget.NewWorkload(benchConfig(gadget.TumblingIncr, events))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, err := gadget.OpenStore(gadget.StoreConfig{Engine: engine, Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := w.RunOnline(store, gadget.ReplayOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				store.Close()
				b.StartTimer()
				b.ReportMetric(res.Throughput, "store_ops/s")
			}
		})
	}
}

// BenchmarkCheckpoint measures Checkpointer.Save — one portable
// checkpoint of a 4096-entry store streamed to a MemFS — for both
// snapshot cost classes: rocksdb pins its LSM version (native MVCC),
// memstore pays the stop-the-world fallback copy. Guarded by ci.sh's
// bench drift check.
func BenchmarkCheckpoint(b *testing.B) {
	for _, engine := range []string{"rocksdb", "memstore"} {
		b.Run(engine, func(b *testing.B) {
			world := vfs.NewMemFS()
			s, err := stores.Open(stores.Config{
				Engine: engine, Dir: "db", FS: world,
				MemtableBytes: 64 << 10, CacheBytes: 256 << 10,
				LogMemBytes: 8 << 20, IndexBuckets: 1 << 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			val := make([]byte, 64)
			for g := uint64(0); g < 16; g++ {
				for sub := uint64(0); sub < 256; sub++ {
					sk := kv.StateKey{Group: g, Sub: sub}
					if err := s.Put(sk.Bytes(), val); err != nil {
						b.Fatal(err)
					}
				}
			}
			ck := &kv.Checkpointer{FS: world, Dir: "checkpoints", Engine: engine}
			b.ResetTimer()
			b.ReportAllocs()
			var size int64
			for i := 0; i < b.N; i++ {
				_, n, err := ck.Save(s, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				size = n
			}
			b.ReportMetric(float64(size), "ckpt_bytes")
		})
	}
}

// BenchmarkRecoveryOverhead measures what enabling a checkpoint cadence
// costs on the happy path (no crashes): the same memstore trace through
// the recovery loop without a checkpointer versus with one saving every
// 10k ops to a MemFS. The 256-key working set keeps each save small, so
// checkpointed must stay within the 5% overhead budget recorded in
// results/bench-baseline.txt.
func BenchmarkRecoveryOverhead(b *testing.B) {
	for _, checkpointed := range []bool{false, true} {
		name := "plain"
		if checkpointed {
			name = "checkpointed"
		}
		b.Run(name, func(b *testing.B) {
			store := memstore.New()
			defer store.Close()
			tr := make([]gadget.Access, b.N)
			for i := range tr {
				a := kv.Access{Key: kv.StateKey{Group: 1, Sub: uint64(i % 256)}, Size: 64}
				if i%2 == 0 {
					a.Op = kv.OpPut
				} else {
					a.Op = kv.OpGet
				}
				tr[i] = a
			}
			opts := gadget.RecoveryOptions{}
			if checkpointed {
				opts.CheckpointEvery = 10000
				opts.Checkpointer = &kv.Checkpointer{
					FS: vfs.NewMemFS(), Dir: "checkpoints", Engine: "memstore",
				}
			}
			open := func(int) (gadget.Attempt, error) {
				return gadget.Attempt{Store: store}, nil
			}
			b.ResetTimer()
			b.ReportAllocs()
			res, err := gadget.RunWithRecovery(open, tr, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Ops != uint64(b.N) {
				b.Fatalf("ops = %d, want %d", res.Ops, b.N)
			}
		})
	}
}

// benchShardedOps drives a sharded TCP cluster (memstore shards behind
// protocol-v3 pipelined clients) with a fixed pool of concurrent
// workers issuing a 50/50 get/put mix. The workers share one
// shard.Client, so requests coalesce into batches and pipeline on each
// connection — the synchronous Store API only overlaps round trips when
// several goroutines drive it at once.
func benchShardedOps(b *testing.B, shards int, opts remote.PipelineOptions) {
	backing := make([]kv.Store, shards)
	for i := range backing {
		backing[i] = memstore.New()
	}
	srv, err := shard.Serve(backing, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	cli, err := shard.Dial(srv.Addrs(), opts)
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	defer func() {
		cli.Close()
		srv.Close()
		for _, s := range backing {
			s.Close()
		}
	}()

	val := make([]byte, 64)
	keys := make([][]byte, 512)
	for i := range keys {
		keys[i] = kv.StateKey{Group: uint64(i % 8), Sub: uint64(i)}.Bytes()
		if err := cli.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}

	const workers = 16
	b.ResetTimer()
	b.ReportAllocs()
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := keys[(w*131+i)%len(keys)]
				var err error
				if i&1 == 0 {
					_, err = cli.Get(k)
				} else {
					err = cli.Put(k, val)
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errCh:
		b.Fatal(err)
	default:
	}
	m := cli.Metrics()
	if batches := m["remote.batches"]; batches > 0 {
		b.ReportMetric(float64(m["remote.requests"])/float64(batches), "ops/batch")
	}
}

// BenchmarkShardedThroughput is the scaling curve behind the sharded
// server: 16 workers against 1/2/4/8 memstore shards, each shard an
// independent listener with its own pipelined connection. On a
// multi-core box the 4-shard point should clear 2.5x the 1-shard
// throughput; on a single core the curve is flat (every shard shares
// the same CPU) and only the batching win remains visible.
func BenchmarkShardedThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedOps(b, shards, remote.PipelineOptions{Depth: 64})
		})
	}
}

// BenchmarkPipelineDepth sweeps the pipeline depth on one shard:
// depth=1 degenerates to a request/response lockstep (one request on
// the wire at a time), while larger depths let the 16 workers keep many
// requests in flight and amortize syscalls across batches.
func BenchmarkPipelineDepth(b *testing.B) {
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchShardedOps(b, 1, remote.PipelineOptions{Depth: depth})
		})
	}
}

// BenchmarkTracingOverhead measures the per-op cost of the tracing rig
// on memstore point ops through the replay collector: "off" runs with
// no tracer (the disabled path — one nil comparison per op), "sampled"
// with the default 1-in-64 sampler, and "traced" with every op traced.
// The disabled path must stay within 2% of off's baseline and the
// sampled path within 5% (see results/bench-baseline.txt); guarded by
// ci.sh's bench drift check.
func BenchmarkTracingOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		sampleN int // 0 = no tracer
	}{
		{"off", 0},
		{"sampled", 64},
		{"traced", 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			store := memstore.New()
			defer store.Close()
			var tracer *gadget.Tracer
			if mode.sampleN > 0 {
				tracer = gadget.NewTracer(gadget.TracerOptions{SampleN: mode.sampleN})
			}
			c, err := replay.NewCollector(store, replay.Options{Tracer: tracer})
			if err != nil {
				b.Fatal(err)
			}
			// Pre-populate so map growth doesn't skew the timed loop.
			for i := 0; i < 1<<16; i++ {
				a := kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: 1, Sub: uint64(i)}, Size: 64}
				if err := c.Do(a); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := kv.Access{Key: kv.StateKey{Group: 1, Sub: uint64(i % (1 << 16))}, Size: 64}
				if i%2 == 0 {
					a.Op = kv.OpPut
				} else {
					a.Op = kv.OpGet
				}
				if err := c.Do(a); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			c.Finish()
			if started, finished := tracer.Stats(); started != finished {
				b.Fatalf("trace leak: started=%d finished=%d", started, finished)
			}
		})
	}
}
