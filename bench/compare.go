package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, metric) pair.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads: the
// per-metric regression bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json in the
// current directory, the root of the checkout.
func loadBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("bounds come from BENCHMARK.json at the root of the checkout: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// verdict judges metric b against a. worse is the share of a's median by
// which b's median is worse (negative when it is better). A pair in
// which either side's spread is wider than the bound cannot resolve a
// change of the bound's size and is reported as unresolved, never as
// unchanged.
func verdict(a, b *series, better string, bound float64) (string, float64) {
	worse := ratio(b.Median-a.Median, a.Median)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case a.spread() > bound || b.spread() > bound:
		return unresolved, worse
	case worse > bound:
		return regressed, worse
	case worse < -bound:
		return improved, worse
	}
	return unchanged, worse
}

// compareFiles prints the verdict for every end-to-end metric of every
// workload both records hold, and returns the process exit code: 1 when
// anything regressed, 2 when the records cannot be compared.
func compareFiles(pathA, pathB string, out io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	}
	a, err := readRecord(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readRecord(pathB)
	if err != nil {
		return fail(err)
	}
	// Different processors, parallelism or inputs are different
	// experiments; a verdict between them would mean nothing.
	if a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS || a.Seed != b.Seed {
		return fail(fmt.Errorf("records differ in nproc (%d, %d), GOMAXPROCS (%d, %d) or seed (%d, %d)",
			a.NProc, b.NProc, a.GOMAXPROCS, b.GOMAXPROCS, a.Seed, b.Seed))
	}
	bounds, err := loadBounds()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(out, "a: %s  commit %s  %s\nb: %s  commit %s  %s\n", pathA, a.Commit, a.Date, pathB, b.Commit, b.Date)
	counts := map[string]int{}
	for _, wa := range a.Workloads {
		var wb *workloadRecord
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		fmt.Fprintf(out, "\n== %s\n", wa.Name)
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa == nil || sb == nil {
				continue
			}
			v, worse := verdict(sa, sb, d.Better, bounds[d.Name])
			counts[v]++
			fmt.Fprintf(out, "   %-12s %-10s a %14.4f [%.4f, %.4f]  b %14.4f [%.4f, %.4f]  %+6.1f%% worse, bound %.0f%%\n",
				d.Name, v, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, 100*worse, 100*bounds[d.Name])
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(out, "   failed ops: a %d of %d, b %d of %d\n", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
		if wb.FailedFrac > wa.FailedFrac {
			counts[regressed]++
			fmt.Fprintf(out, "   %-12s %-10s a %.6f  b %.6f  any increase is a regression\n", "failed_frac", regressed, wa.FailedFrac, wb.FailedFrac)
		}
		for k, va := range wa.Counts {
			if vb, ok := wb.Counts[k]; ok && va != vb {
				fmt.Fprintf(out, "   count %s differs: a %d, b %d\n", k, va, vb)
			}
		}
	}
	fmt.Fprintf(out, "\n%d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	if counts[regressed] > 0 {
		return 1
	}
	return 0
}
