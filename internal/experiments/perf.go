package experiments

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"

	"gadget/internal/analysis"
	"gadget/internal/core"
	"gadget/internal/dist"
	"gadget/internal/eventgen"
	"gadget/internal/kv"
	"gadget/internal/replay"
	"gadget/internal/ycsb"
)

// syntheticSource builds the synthetic input for store-performance runs
// (zipfian keys, paper-style watermarking; joins get a second stream
// with validity start/end pairs).
func syntheticSource(s Scale, op core.OperatorType, seed int64) (eventgen.Source, error) {
	mk := func(stream uint8, pairs bool) (eventgen.Source, error) {
		g, err := eventgen.NewSynthetic(eventgen.Config{
			Events:        s.PerfEvents,
			Keys:          1000,
			KeyDist:       dist.Zipfian,
			RatePerSec:    500,
			ValueSize:     64,
			Seed:          seed + int64(stream),
			Stream:        stream,
			StartEndPairs: pairs,
		})
		if err != nil {
			return nil, err
		}
		return eventgen.WithWatermarks(g, watermarkEvery, 0), nil
	}
	if op.IsJoin() {
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

func syntheticGadgetTrace(s Scale, op core.OperatorType, seed int64) ([]kv.Access, error) {
	src, err := syntheticSource(s, op, seed)
	if err != nil {
		return nil, err
	}
	o, err := core.New(paperConfig(op))
	if err != nil {
		return nil, err
	}
	return core.Generate(src, o), nil
}

// errNoRangeScans is replayOn's refusal to time a trace with range
// scans on an engine without native ones: kv.ScanRange would serve each
// scan with a stop-the-world copy of the store, and the cell would time
// the copy, not the engine.
var errNoRangeScans = errors.New("fallback (no range scans)")

// replayOn opens engine in a fresh directory and replays the trace.
func replayOn(s Scale, engine, label string, tr []kv.Access) (replay.Result, error) {
	dir, cleanup, err := workDir(s, engine+"-"+label)
	if err != nil {
		return replay.Result{}, err
	}
	defer cleanup()
	store, err := openScaledStore(s, engine, filepath.Join(dir, "db"))
	if err != nil {
		return replay.Result{}, err
	}
	defer store.Close()
	if !kv.CapsOf(store).RangeScans && slices.ContainsFunc(tr, func(a kv.Access) bool { return a.Op == kv.OpScan }) {
		return replay.Result{}, errNoRangeScans
	}
	return replay.Run(store, tr, replay.Options{})
}

// Figure10GadgetAccuracy reproduces Figure 10: Gadget traces exhibit the
// same temporal and spatial locality as the real (reference engine)
// traces.
func Figure10GadgetAccuracy(s Scale) (Report, error) {
	rep := Report{
		ID:     "fig10",
		Title:  "Gadget vs real trace locality (Borg)",
		Header: []string{"operator", "trace", "mean-stack-dist", "uniq-seq-10", "ops"},
	}
	ds := borg(s)
	for _, op := range representativeOps() {
		real, err := realTrace(ds, paperConfig(op))
		if err != nil {
			return rep, err
		}
		sim, err := gadgetTrace(ds, paperConfig(op))
		if err != nil {
			return rep, err
		}
		rIDs, gIDs := analysis.KeyIDs(real), analysis.KeyIDs(sim)
		rd, _ := analysis.StackDistances(rIDs)
		gd, _ := analysis.StackDistances(gIDs)
		rSeq := analysis.UniqueSequences(rIDs, 10)[9]
		gSeq := analysis.UniqueSequences(gIDs, 10)[9]
		rep.Rows = append(rep.Rows,
			[]string{string(op), "real", f2(meanOf(rd)), fmt.Sprintf("%d", rSeq), fmt.Sprintf("%d", len(real))},
			[]string{string(op), "gadget", f2(meanOf(gd)), fmt.Sprintf("%d", gSeq), fmt.Sprintf("%d", len(sim))},
		)
		sdErr := relErr(meanOf(gd), meanOf(rd))
		seqErr := relErr(float64(gSeq), float64(rSeq))
		rep.Checks = append(rep.Checks,
			check(sdErr < 0.05, "%s: Gadget matches real temporal locality within 5%% (err %.1f%%)", op, sdErr*100),
			check(seqErr < 0.05, "%s: Gadget matches real spatial locality within 5%% (err %.1f%%)", op, seqErr*100),
		)
	}
	return rep, nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Figure11TraceFidelity reproduces Figure 11: replaying Gadget traces
// yields store performance close to replaying real traces, while tuned
// YCSB traces can be off by large factors.
func Figure11TraceFidelity(s Scale) (Report, error) {
	rep := Report{
		ID:     "fig11",
		Title:  "Store performance: real vs Gadget vs tuned YCSB traces (Borg)",
		Header: []string{"operator", "engine", "trace", "kops/s", "p99.9(us)"},
	}
	ds := borg(s)
	for _, op := range representativeOps() {
		real, err := realTrace(ds, paperConfig(op))
		if err != nil {
			return rep, err
		}
		sim, err := gadgetTrace(ds, paperConfig(op))
		if err != nil {
			return rep, err
		}
		ycsbL, err := tunedYCSB(real, op, dist.Latest, 21)
		if err != nil {
			return rep, err
		}
		ycsbS, err := tunedYCSB(real, op, dist.Sequential, 22)
		if err != nil {
			return rep, err
		}
		traces := []struct {
			name string
			tr   []kv.Access
		}{{"real", real}, {"gadget", sim}, {"ycsb-latest", ycsbL}, {"ycsb-seq", ycsbS}}

		gadgetErrs, ycsbErrs := []float64{}, []float64{}
		for _, engine := range perfEngines() {
			thr := map[string]float64{}
			for _, t := range traces {
				res, err := replayOn(s, engine, "fig11", t.tr)
				if err != nil {
					return rep, fmt.Errorf("fig11 %s/%s/%s: %w", op, engine, t.name, err)
				}
				thr[t.name] = res.Throughput
				rep.Rows = append(rep.Rows, []string{
					string(op), engine, t.name, f2(res.Throughput / 1000), f2(res.P999Micros()),
				})
			}
			gadgetErrs = append(gadgetErrs, relErr(thr["gadget"], thr["real"]))
			ycsbErrs = append(ycsbErrs,
				relErr(thr["ycsb-latest"], thr["real"]), relErr(thr["ycsb-seq"], thr["real"]))
		}
		rep.Checks = append(rep.Checks,
			check(maxOf(gadgetErrs) < meanOf(ycsbErrs)+0.5,
				"%s: Gadget throughput error (max %.0f%%) below YCSB's (mean %.0f%%)",
				op, maxOf(gadgetErrs)*100, meanOf(ycsbErrs)*100),
		)
	}
	return rep, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Figure12YCSBCore reproduces Figure 12: the YCSB core workloads A, D, F
// across the four stores — what a developer without Gadget would run.
func Figure12YCSBCore(s Scale) (Report, error) {
	rep := Report{
		ID:     "fig12",
		Title:  "YCSB core workloads A/D/F across stores",
		Header: []string{"workload", "engine", "kops/s", "p99.9(us)"},
	}
	thr := map[string]float64{}
	for _, name := range []string{"A", "D", "F"} {
		w := ycsb.CoreWorkloads()[name]
		w.RecordCount = s.YCSBKeys
		w.OperationCount = s.YCSBOps
		w.Seed = 7
		load := w.LoadTrace()
		run, err := w.RunTrace()
		if err != nil {
			return rep, err
		}
		for _, engine := range perfEngines() {
			dir, cleanup, err := workDir(s, engine+"-fig12")
			if err != nil {
				return rep, err
			}
			store, err := openScaledStore(s, engine, filepath.Join(dir, "db"))
			if err != nil {
				cleanup()
				return rep, err
			}
			if _, err := replay.Run(store, load, replay.Options{}); err != nil {
				store.Close()
				cleanup()
				return rep, err
			}
			res, err := replay.Run(store, run, replay.Options{})
			store.Close()
			cleanup()
			if err != nil {
				return rep, err
			}
			thr[name+"/"+engine] = res.Throughput
			rep.Rows = append(rep.Rows, []string{
				name, engine, f2(res.Throughput / 1000), f2(res.P999Micros()),
			})
		}
	}
	fasterWins := 0
	for _, name := range []string{"A", "D", "F"} {
		best := ""
		bestThr := 0.0
		for _, engine := range perfEngines() {
			if t := thr[name+"/"+engine]; t > bestThr {
				best, bestThr = engine, t
			}
		}
		if best == "faster" {
			fasterWins++
		}
	}
	rep.Checks = append(rep.Checks,
		check(fasterWins >= 2, "FASTER has the top throughput on most core workloads (%d/3)", fasterWins),
		check(thr["A/berkeleydb"] > thr["A/rocksdb"],
			"BerkeleyDB beats RocksDB on update-heavy A (%.0f vs %.0f ops/s)", thr["A/berkeleydb"], thr["A/rocksdb"]),
	)
	return rep, nil
}

// Figure13StoreShootout reproduces Figure 13: the paper's eleven Gadget
// workloads across the four stores. The two scan-aware workloads get
// rows of their own, timed only on engines with native range scans.
func Figure13StoreShootout(s Scale) (Report, error) {
	rep := Report{
		ID:     "fig13",
		Title:  "Eleven Gadget workloads across the four stores (+ scan-aware workloads)",
		Header: []string{"workload", "engine", "kops/s", "p99.9(us)"},
	}
	thr := map[string]float64{}
	for _, op := range core.OperatorTypes() {
		tr, err := syntheticGadgetTrace(s, op, 31)
		if err != nil {
			return rep, err
		}
		for _, engine := range perfEngines() {
			res, err := replayOn(s, engine, "fig13", tr)
			if errors.Is(err, errNoRangeScans) {
				rep.Rows = append(rep.Rows, []string{string(op), engine, err.Error(), "-"})
				continue
			}
			if err != nil {
				return rep, fmt.Errorf("fig13 %s/%s: %w", op, engine, err)
			}
			thr[string(op)+"/"+engine] = res.Throughput
			rep.Rows = append(rep.Rows, []string{
				string(op), engine, f2(res.Throughput / 1000), f2(res.P999Micros()),
			})
		}
	}
	// The paper's headline: FASTER and BerkeleyDB outperform RocksDB on
	// six of eleven workloads; the holistic windows are where the LSM's
	// lazy merge wins.
	paper := core.PaperOperatorTypes()
	beaten := 0
	for _, op := range paper {
		r := thr[string(op)+"/rocksdb"]
		if thr[string(op)+"/faster"] > r && thr[string(op)+"/berkeleydb"] > r {
			beaten++
		}
	}
	holWins := 0
	for _, op := range []core.OperatorType{core.TumblingHol, core.SlidingHol} {
		r := thr[string(op)+"/rocksdb"]
		if r > thr[string(op)+"/faster"] && r > thr[string(op)+"/berkeleydb"] {
			holWins++
		}
	}
	aggFaster := thr["aggregation/faster"] / thr["aggregation/rocksdb"]
	rep.Checks = append(rep.Checks,
		check(beaten >= 4, "RocksDB is outperformed by both FASTER and BerkeleyDB on %d/%d workloads (paper: 6/11)", beaten, len(paper)),
		check(holWins >= 1, "the LSM merge operator wins holistic windows (%d/2)", holWins),
		check(aggFaster > 2, "FASTER's in-place updates dominate incremental aggregation (%.1fx RocksDB)", aggFaster),
	)
	return rep, nil
}

// Figure14Concurrent reproduces Figure 14: co-locating operators on one
// RocksDB instance costs each of them throughput.
func Figure14Concurrent(s Scale) (Report, error) {
	rep := Report{
		ID:     "fig14",
		Title:  "Concurrent operators sharing one RocksDB instance",
		Header: []string{"scenario", "operator", "kops/s", "p99.9(us)"},
	}
	incr, err := syntheticGadgetTrace(s, core.SlidingIncr, 41)
	if err != nil {
		return rep, err
	}
	hol, err := syntheticGadgetTrace(s, core.SlidingHol, 42)
	if err != nil {
		return rep, err
	}
	// Shift the holistic trace's key space so co-located operators do
	// not collide on state keys (distinct operators own distinct state).
	holShifted := make([]kv.Access, len(hol))
	for i, a := range hol {
		a.Key.Group |= 1 << 60
		holShifted[i] = a
	}
	incrShifted := make([]kv.Access, len(incr))
	for i, a := range incr {
		a.Key.Group |= 1 << 61
		incrShifted[i] = a
	}

	runIso := func(label string, tr []kv.Access) (replay.Result, error) {
		return replayOn(s, "rocksdb", "fig14-"+label, tr)
	}
	isoIncr, err := runIso("incr", incr)
	if err != nil {
		return rep, err
	}
	isoHol, err := runIso("hol", hol)
	if err != nil {
		return rep, err
	}
	rep.Rows = append(rep.Rows,
		[]string{"isolated", "sliding-incr", f2(isoIncr.Throughput / 1000), f2(isoIncr.P999Micros())},
		[]string{"isolated", "sliding-hol", f2(isoHol.Throughput / 1000), f2(isoHol.P999Micros())},
	)

	runPair := func(label string, a, b []kv.Access) ([]replay.Result, error) {
		dir, cleanup, err := workDir(s, "fig14-"+label)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		store, err := openScaledStore(s, "rocksdb", filepath.Join(dir, "db"))
		if err != nil {
			return nil, err
		}
		defer store.Close()
		return replay.RunConcurrent(store, [][]kv.Access{a, b}, replay.Options{})
	}
	// Concurrent-A: two operators of the same type.
	concA, err := runPair("a", incr, incrShifted)
	if err != nil {
		return rep, err
	}
	rep.Rows = append(rep.Rows,
		[]string{"concurrent-A", "sliding-incr", f2(concA[0].Throughput / 1000), f2(concA[0].P999Micros())},
		[]string{"concurrent-A", "sliding-incr#2", f2(concA[1].Throughput / 1000), f2(concA[1].P999Micros())},
	)
	// Concurrent-B: different operator types.
	concB, err := runPair("b", incr, holShifted)
	if err != nil {
		return rep, err
	}
	rep.Rows = append(rep.Rows,
		[]string{"concurrent-B", "sliding-incr", f2(concB[0].Throughput / 1000), f2(concB[0].P999Micros())},
		[]string{"concurrent-B", "sliding-hol", f2(concB[1].Throughput / 1000), f2(concB[1].P999Micros())},
	)
	slowdownA := isoIncr.Throughput / concA[0].Throughput
	rep.Checks = append(rep.Checks,
		check(slowdownA > 1.1,
			"co-locating a same-type operator costs throughput (%.2fx slowdown, paper: 1.7x)", slowdownA),
	)
	return rep, nil
}
