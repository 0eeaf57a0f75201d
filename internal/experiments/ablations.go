package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"gadget/internal/core"
	"gadget/internal/faster"
	"gadget/internal/kv"
	"gadget/internal/lethe"
	"gadget/internal/lsm"
	"gadget/internal/remote"
	"gadget/internal/replay"
)

// Ablations isolate the design choices DESIGN.md calls out: Bloom
// filters and block cache sizing in the LSM, memtable sizing (write
// amplification), Lethe's delete persistence threshold, and FASTER's
// mutable-region fraction. They are not paper figures; they quantify
// *why* the figures come out the way they do.
func Ablations() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"ablate-bloom", AblationBloom},
		{"ablate-cache", AblationBlockCache},
		{"ablate-memtable", AblationMemtable},
		{"ablate-lethe", AblationLetheThreshold},
		{"ablate-faster", AblationFasterMutable},
		{"ablate-external", AblationExternalState},
	}
}

// AblationByID returns the named ablation runner.
func AblationByID(id string) (Runner, bool) {
	for _, a := range Ablations() {
		if a.ID == id {
			return a.Run, true
		}
	}
	return nil, false
}

// AblationBloom measures what the Bloom filters buy on a miss-heavy
// workload (interval-join probes miss by construction).
func AblationBloom(s Scale) (Report, error) {
	rep := Report{
		ID:     "ablate-bloom",
		Title:  "LSM Bloom filters on a miss-heavy workload (interval join)",
		Header: []string{"bloom", "kops/s", "misses"},
	}
	tr, err := syntheticGadgetTrace(s, core.IntervalJoin, 61)
	if err != nil {
		return rep, err
	}
	thr := map[bool]float64{}
	for _, disable := range []bool{false, true} {
		dir, cleanup, err := workDir(s, "ablate-bloom")
		if err != nil {
			return rep, err
		}
		db, err := lsm.Open(lsm.Options{
			Dir:          filepath.Join(dir, "db"),
			MemtableSize: s.StoreMemBytes / 4, // force data onto disk
			DisableBloom: disable,
		})
		if err != nil {
			cleanup()
			return rep, err
		}
		res, err := replay.Run(db, tr, replay.Options{})
		db.Close()
		cleanup()
		if err != nil {
			return rep, err
		}
		thr[disable] = res.Throughput
		label := "on"
		if disable {
			label = "off"
		}
		rep.Rows = append(rep.Rows, []string{label, f2(res.Throughput / 1000), fmt.Sprintf("%d", res.Misses)})
	}
	rep.Checks = append(rep.Checks, check(thr[false] > thr[true],
		"Bloom filters speed up miss-heavy reads (%.0f vs %.0f ops/s)", thr[false], thr[true]))
	return rep, nil
}

// AblationBlockCache sweeps the LSM block cache on a read-heavy zipfian
// workload.
func AblationBlockCache(s Scale) (Report, error) {
	rep := Report{
		ID:     "ablate-cache",
		Title:  "LSM block cache sweep (aggregation workload)",
		Header: []string{"cache", "kops/s", "hit-rate"},
	}
	tr, err := syntheticGadgetTrace(s, core.Aggregation, 62)
	if err != nil {
		return rep, err
	}
	var rates []float64
	for _, mult := range []int64{1, 4, 16} {
		dir, cleanup, err := workDir(s, "ablate-cache")
		if err != nil {
			return rep, err
		}
		db, err := lsm.Open(lsm.Options{
			Dir:            filepath.Join(dir, "db"),
			MemtableSize:   s.StoreMemBytes / 4,
			BlockCacheSize: s.StoreMemBytes * mult / 4,
		})
		if err != nil {
			cleanup()
			return rep, err
		}
		res, err := replay.Run(db, tr, replay.Options{})
		hits, misses := db.CacheStats()
		db.Close()
		cleanup()
		if err != nil {
			return rep, err
		}
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		rates = append(rates, rate)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%dKiB", s.StoreMemBytes*mult/4/1024), f2(res.Throughput / 1000), f3(rate),
		})
	}
	rep.Checks = append(rep.Checks, check(rates[len(rates)-1] >= rates[0],
		"hit rate grows with cache size (%v -> %v)", f3(rates[0]), f3(rates[len(rates)-1])))
	return rep, nil
}

// AblationMemtable sweeps the LSM write buffer and reports write
// amplification (bytes flushed + compacted per user byte).
func AblationMemtable(s Scale) (Report, error) {
	rep := Report{
		ID:     "ablate-memtable",
		Title:  "LSM memtable sweep: write amplification (tumbling window)",
		Header: []string{"memtable", "kops/s", "write-amp", "compactions"},
	}
	tr, err := syntheticGadgetTrace(s, core.TumblingIncr, 63)
	if err != nil {
		return rep, err
	}
	var userBytes uint64
	for _, a := range tr {
		if a.Op == kv.OpPut || a.Op == kv.OpMerge {
			userBytes += uint64(a.Size) + 2*kv.KeyLen
		}
	}
	var amps []float64
	for _, div := range []int64{16, 4, 1} {
		dir, cleanup, err := workDir(s, "ablate-memtable")
		if err != nil {
			return rep, err
		}
		db, err := lsm.Open(lsm.Options{
			Dir:          filepath.Join(dir, "db"),
			MemtableSize: s.StoreMemBytes / div,
		})
		if err != nil {
			cleanup()
			return rep, err
		}
		res, err := replay.Run(db, tr, replay.Options{})
		st := db.StatsSnapshot()
		db.Close()
		cleanup()
		if err != nil {
			return rep, err
		}
		amp := float64(st.BytesFlushed+st.BytesCompacted) / float64(userBytes)
		amps = append(amps, amp)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%dKiB", s.StoreMemBytes/div/1024),
			f2(res.Throughput / 1000), f2(amp), fmt.Sprintf("%d", st.Compactions),
		})
	}
	rep.Checks = append(rep.Checks, check(amps[len(amps)-1] <= amps[0],
		"larger write buffers reduce write amplification (%.2f -> %.2f)", amps[0], amps[len(amps)-1]))
	return rep, nil
}

// AblationLetheThreshold sweeps Lethe's delete persistence threshold on
// a delete-heavy window workload.
func AblationLetheThreshold(s Scale) (Report, error) {
	rep := Report{
		ID:     "ablate-lethe",
		Title:  "Lethe delete persistence threshold (delete-heavy windows)",
		Header: []string{"threshold", "kops/s", "tombstones-dropped", "final-size-KiB"},
	}
	tr, err := syntheticGadgetTrace(s, core.TumblingIncr, 64)
	if err != nil {
		return rep, err
	}
	var dropped []uint64
	for _, th := range []time.Duration{time.Millisecond, 100 * time.Millisecond, time.Hour} {
		dir, cleanup, err := workDir(s, "ablate-lethe")
		if err != nil {
			return rep, err
		}
		db, err := lethe.Open(lethe.Options{
			LSM: lsm.Options{
				Dir:          filepath.Join(dir, "db"),
				MemtableSize: s.StoreMemBytes / 8,
			},
			DeleteThreshold: th,
		})
		if err != nil {
			cleanup()
			return rep, err
		}
		res, err := replay.Run(db, tr, replay.Options{})
		st := db.StatsSnapshot()
		size := db.ApproximateSize()
		db.Close()
		cleanup()
		if err != nil {
			return rep, err
		}
		dropped = append(dropped, st.TombstonesDropped)
		rep.Rows = append(rep.Rows, []string{
			th.String(), f2(res.Throughput / 1000),
			fmt.Sprintf("%d", st.TombstonesDropped), fmt.Sprintf("%d", size/1024),
		})
	}
	rep.Checks = append(rep.Checks, check(dropped[0] >= dropped[len(dropped)-1],
		"eager thresholds drop at least as many tombstones (%d vs %d)", dropped[0], dropped[len(dropped)-1]))
	return rep, nil
}

// AblationFasterMutable sweeps FASTER's in-place-update region fraction
// on an update-heavy workload.
func AblationFasterMutable(s Scale) (Report, error) {
	rep := Report{
		ID:     "ablate-faster",
		Title:  "FASTER mutable-region fraction (aggregation workload)",
		Header: []string{"mutable-fraction", "kops/s", "log-KiB"},
	}
	tr, err := syntheticGadgetTrace(s, core.Aggregation, 65)
	if err != nil {
		return rep, err
	}
	var logSizes []int64
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		dir, cleanup, err := workDir(s, "ablate-faster")
		if err != nil {
			return rep, err
		}
		st, err := faster.Open(faster.Options{
			Dir:             filepath.Join(dir, "db"),
			LogMemBudget:    s.StoreMemBytes,
			IndexBuckets:    4096,
			MutableFraction: frac,
		})
		if err != nil {
			cleanup()
			return rep, err
		}
		res, err := replay.Run(st, tr, replay.Options{})
		size := st.ApproximateSize()
		st.Close()
		cleanup()
		if err != nil {
			return rep, err
		}
		logSizes = append(logSizes, size)
		rep.Rows = append(rep.Rows, []string{
			f2(frac), f2(res.Throughput / 1000), fmt.Sprintf("%d", size/1024),
		})
	}
	rep.Checks = append(rep.Checks, check(logSizes[len(logSizes)-1] <= logSizes[0],
		"a larger mutable region appends less to the log (%dKiB vs %dKiB)",
		logSizes[len(logSizes)-1]/1024, logSizes[0]/1024))
	return rep, nil
}

// AblationExternalState compares embedded state against the paper §8
// external deployment: the same engine behind a loopback TCP server.
func AblationExternalState(s Scale) (Report, error) {
	rep := Report{
		ID:     "ablate-external",
		Title:  "Embedded vs external (TCP) state management (aggregation)",
		Header: []string{"deployment", "kops/s", "mean(us)", "p99.9(us)"},
	}
	tr, err := syntheticGadgetTrace(s, core.Aggregation, 66)
	if err != nil {
		return rep, err
	}
	dir, cleanup, err := workDir(s, "ablate-external")
	if err != nil {
		return rep, err
	}
	defer cleanup()

	embedded, err := openScaledStore(s, "rocksdb", filepath.Join(dir, "embedded"))
	if err != nil {
		return rep, err
	}
	embRes, err := replay.Run(embedded, tr, replay.Options{})
	embedded.Close()
	if err != nil {
		return rep, err
	}
	rep.Rows = append(rep.Rows, []string{"embedded", f2(embRes.Throughput / 1000), f2(embRes.MeanMicros()), f2(embRes.P999Micros())})

	backing, err := openScaledStore(s, "rocksdb", filepath.Join(dir, "external"))
	if err != nil {
		return rep, err
	}
	defer backing.Close()
	srv, err := remote.Serve(backing, "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	defer srv.Close()
	cli, err := remote.DialPipeline(srv.Addr(), remote.PipelineOptions{})
	if err != nil {
		return rep, err
	}
	defer cli.Close()
	extRes, err := replay.Run(cli, tr, replay.Options{})
	if err != nil {
		return rep, err
	}
	rep.Rows = append(rep.Rows, []string{"external", f2(extRes.Throughput / 1000), f2(extRes.MeanMicros()), f2(extRes.P999Micros())})

	rep.Checks = append(rep.Checks,
		check(embRes.Throughput > extRes.Throughput,
			"network hops cost throughput (%.0f vs %.0f ops/s) - the decoupling trade-off the paper's intro cites",
			embRes.Throughput, extRes.Throughput),
		check(extRes.MeanMicros() > embRes.MeanMicros(),
			"external state adds per-op latency (%.1fus vs %.1fus mean)",
			extRes.MeanMicros(), embRes.MeanMicros()),
	)
	return rep, nil
}
