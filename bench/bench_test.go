package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gadget/internal/kv"
	"gadget/internal/stats"
)

// testRunner shrinks every workload to scale of its real size.
func testRunner(t *testing.T, scale float64) *runner {
	t.Helper()
	return &runner{seed: 1, seconds: 0.01, scale: scale, tmpRoot: t.TempDir(), outDir: t.TempDir(), log: io.Discard}
}

// Every workload, both passes, at 1/50 of its size: nothing fails, the
// oracle agrees, the end-to-end metrics the workload defines are in the
// record and the driver line carries every one of them non-zero, and the
// traced pass writes its trace file.
func TestWorkloadsAtSmallScale(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			r := testRunner(t, 0.02)
			wr := w.newRecord(r)
			if err := r.endToEnd(w, wr); err != nil {
				t.Fatal(err)
			}
			if err := r.tracedPass(w, wr); err != nil {
				t.Fatal(err)
			}
			if !wr.Correct || wr.Failed != 0 || wr.FailedFrac != 0 || wr.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d of %d: %v", wr.Correct, wr.Failed, wr.Attempted, wr.Problems)
			}
			defined := map[string]bool{"setup_s": true, "p50_us": true, "p95_us": true}
			defined["ops_per_s"] = w.closed
			defined["max_rate_ok"] = !w.closed
			defined["write_amp"] = w.engine == "rocksdb"
			for _, d := range endToEnd {
				s := wr.EndToEnd[d.Name]
				if (s != nil) != defined[d.Name] {
					t.Errorf("end-to-end metric %s: in the record %v, defined on this workload %v", d.Name, s != nil, defined[d.Name])
				}
				if s != nil && (!(s.Median > 0) || len(s.Samples) == 0) {
					t.Errorf("end-to-end metric %s: %+v", d.Name, s)
				}
			}
			for name := range wr.PerLayer {
				if !hasMetric(perLayer, name) {
					t.Errorf("per-layer metric %q is not in the table", name)
				}
			}
			if _, err := os.Stat(filepath.Join(r.outDir, w.name+".trace.json")); err != nil {
				t.Error(err)
			}
			for _, traced := range []bool{false, true} {
				var line struct {
					Correct   bool
					Attempted uint64
					Failed    uint64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(wr.contractLine(traced)), &line); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(line.Metrics) != len(want) || !line.Correct || line.Attempted == 0 {
					t.Errorf("traced=%v: %d metrics, want %d (correct=%v attempted=%d)", traced, len(line.Metrics), len(want), line.Correct, line.Attempted)
				}
				for _, d := range want {
					m, ok := line.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s missing or unit %q != %q", traced, d.Name, m.Unit, d.Unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s is %v in the driver line", d.Name, m.Value)
					}
				}
			}
		})
	}
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// BENCHMARK.json and the program name the same workloads and metrics,
// in the same order, with the same units and directions; every name
// meets the driver's rule.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			metricDef
			Bound float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %q/%q, program has %q/%q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if !validName(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.name, len(w.why))
		}
	}
	var e2e []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n prog %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n prog %v", bj.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is invalid or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, bad := range []string{"", "-x", "a b", "a/b", "µs"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// Wrapping a store in timedStore changes neither its capabilities nor
// the paths the kv helpers take through it.
func TestTimedStorePreservesCapabilities(t *testing.T) {
	for _, w := range workloads {
		st, err := w.openStack(t.TempDir(), instruments{timed: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := kv.CapsOf(st.top), kv.CapsOf(st.engine); got != want {
			t.Errorf("%s: caps through timedStore %+v, bare %+v", w.name, got, want)
		}
		key := kv.StateKey{Group: 7, Sub: 9}
		if err := st.top.Put(key.Bytes(), []byte("v")); err != nil {
			t.Fatal(err)
		}
		ents, err := kv.ScanAll(st.top)
		if err != nil || len(ents) != 1 || ents[0].Key != key {
			t.Errorf("%s: scan through timedStore: %v %v", w.name, ents, err)
		}
		snap, err := kv.SnapshotOf(st.top)
		if err != nil {
			t.Errorf("%s: snapshot through timedStore: %v", w.name, err)
		} else if err := snap.Close(); err != nil {
			t.Error(err)
		}
		if (kv.MetricsOf(st.top) == nil) != (kv.MetricsOf(st.engine) == nil) {
			t.Errorf("%s: metrics not forwarded", w.name)
		}
		if calls, _ := st.timed.totals(); calls != 2 {
			t.Errorf("%s: timedStore saw %d calls, want 2 (put, scan)", w.name, calls)
		}
		if err := st.close(); err != nil {
			t.Error(err)
		}
	}
}

// On the LSM the counting filesystem reconciles with the engine's own
// byte counters, and a seed fixes every count.
func TestCountingFSReconcilesAndCountsRepeat(t *testing.T) {
	w, _ := workloadByName("incr-lsm")
	r := testRunner(t, 0.2)
	exp, err := r.expectClosed(w, false)
	if err != nil {
		t.Fatal(err)
	}
	var rounds [2]*roundOut
	for i := range rounds {
		if rounds[i], err = r.closedRound(w, exp, instruments{}); err != nil {
			t.Fatal(err)
		}
		if rounds[i].failed != 0 {
			t.Fatal(rounds[i].problems)
		}
	}
	a, b := rounds[0], rounds[1]
	if a.res.Ops != b.res.Ops || a.res.Misses != b.res.Misses || a.e2e["write_amp"] != b.e2e["write_amp"] ||
		a.res.Engine["lsm.flushes"] != b.res.Engine["lsm.flushes"] || a.sizeEnd != b.sizeEnd || a.dev != b.dev {
		t.Errorf("same seed, different counts:\n %v %v %+v\n %v %v %+v", a.res.Ops, a.e2e["write_amp"], a.dev, b.res.Ops, b.e2e["write_amp"], b.dev)
	}
	eng := a.res.Engine
	if eng["lsm.flushes"] == 0 {
		t.Fatal("the round is too small to flush; raise the test scale")
	}
	// Tables: everything flushed was written through the FS, and
	// compaction output is at most its input.
	flushed, compacted := eng["lsm.bytes_flushed"], eng["lsm.bytes_compacted"]
	if a.dev.tableBytes < flushed || a.dev.tableBytes > flushed+compacted {
		t.Errorf("table bytes through the FS %d, lsm flushed %d + compacted (input) %d", a.dev.tableBytes, flushed, compacted)
	}
	if eng["lsm.compactions"] == 0 && a.dev.tableBytes != flushed {
		t.Errorf("no compaction ran, yet table bytes %d != bytes flushed %d", a.dev.tableBytes, flushed)
	}
	// Log: one record per write of header + internal key + value. The
	// internal key length is the engine's business, but it is one
	// constant of at least the user key's length; up to one buffer of
	// records has not reached the FS while the store is open.
	writes := int64(exp.perOp[kv.OpPut] + exp.perOp[kv.OpDelete])
	values := exp.putBytes - kv.KeyLen*int64(exp.perOp[kv.OpPut])
	perRecord := float64(a.dev.walBytes-values) / float64(writes)
	if perRecord < kv.KeyLen || perRecord > kv.KeyLen+64 {
		t.Errorf("WAL bytes %d for %d writes carrying %d value bytes: %.1f bytes of framing per record", a.dev.walBytes, writes, values, perRecord)
	}
	if got, want := a.e2e["write_amp"], float64(a.dev.written())/float64(exp.putBytes); got != want {
		t.Errorf("write_amp %v, want FS bytes over user bytes %v", got, want)
	}
}

// histQuantile interpolates inside the bucket Histogram.Quantile names
// and never leaves it.
func TestHistQuantileInterpolates(t *testing.T) {
	for _, v := range []int64{1, 31, 32, 100, 1000, 12345, 1 << 20, 987654321} {
		h := stats.NewHistogram()
		h.Record(v)
		if got := histQuantile(h, 0.5); got != float64(v) {
			t.Errorf("single value %d: quantile %v", v, got)
		}
	}
	h := stats.NewHistogram()
	for v := int64(1000); v < 2000; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 1} {
		got, want, coarse := histQuantile(h, q), 1000+1000*q, float64(h.Quantile(q))
		if math.Abs(got-want) > 2 {
			t.Errorf("uniform 1000..1999: q%v = %v, want about %v", q, got, want)
		}
		if got > coarse {
			t.Errorf("q%v: interpolated %v above the bucket bound %v", q, got, coarse)
		}
	}
	if got := histQuantile(stats.NewHistogram(), 0.5); got != 0 {
		t.Errorf("empty histogram: %v", got)
	}
}

// quartiles follows Python's statistics.quantiles(n=4), the driver's
// measure of spread.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	if q1, q3 := quartiles([]float64{10, 20, 30}); q1 != 10 || q3 != 30 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// The comparison refuses records from different experiments and calls a
// metric unresolved when its spread exceeds the bound.
func TestCompareVerdicts(t *testing.T) {
	a := &series{Median: 100, Q1: 99, Q3: 101}
	for _, c := range []struct {
		b      *series
		better string
		want   string
	}{
		{&series{Median: 103, Q1: 102, Q3: 104}, "lower", unchanged},
		{&series{Median: 120, Q1: 119, Q3: 121}, "lower", regressed},
		{&series{Median: 120, Q1: 119, Q3: 121}, "higher", improved},
		{&series{Median: 80, Q1: 79, Q3: 81}, "higher", regressed},
		{&series{Median: 120, Q1: 110, Q3: 125}, "lower", unresolved},
		{&series{Median: 101, Q1: 94, Q3: 106}, "lower", unresolved},
	} {
		if got, _ := verdict(a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("b=%+v better=%s: %s, want %s", c.b, c.better, got, c.want)
		}
	}
	dir := t.TempDir()
	write := func(name string, rec *record) string {
		path := filepath.Join(dir, name)
		if err := writeRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	r1, r2 := newRecord(1, 14), newRecord(2, 14)
	if code := compareFiles(write("a.json", r1), write("b.json", r2), io.Discard); code != 2 {
		t.Errorf("records with different seeds compared: exit %d", code)
	}
}

// validName reports whether s meets the driver's rule for a metric or
// workload name: at most 64 letters, digits, '_', '.' and '-', starting
// with a letter or a digit.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || !strings.ContainsRune("_.-", r)) {
			return false
		}
	}
	return true
}
