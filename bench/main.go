// Command bench is Gadget-Go's own benchmark: five named workloads
// driven through the public run entry points, six end-to-end metrics
// measured with nothing attached, and a traced pass that attributes
// time and work to each layer. See README.md.
//
// bench/ is a module of its own; bench/run.sh builds and runs it from
// the root of a checkout:
//
//	bash bench/run.sh                         every workload, both passes, every metric
//	bash bench/run.sh -out rec.json           the same, plus a gadget.bench/v1 record
//	bash bench/run.sh -compare a.json b.json  noise-aware verdict between two records
//	bash bench/run.sh --workload incr-lsm --seed 1 --seconds 16 --trace 0
//	                                          one workload, one pass, one JSON line (BENCHMARK.json)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// Where the benchmark writes, relative to the checkout it runs in.
const (
	tmpDir   = ".bench_build/tmp"
	traceDir = "bench/out"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload and end with the driver's JSON line")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 16, "time one pass drives load for")
	traced := fs.Int("trace", 0, "with -workload: 0 measures end to end, 1 runs the traced pass")
	out := fs.String("out", "", "write the gadget.bench/v1 record here")
	compare := fs.Bool("compare", false, "compare two records: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two record files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -trace 0 or 1, and no other arguments")
		return 2
	}
	// One generator process on every processor the box reports, and never
	// more client goroutines or connections than that.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmpRoot, err := os.MkdirTemp(tmpDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmpRoot)
	r := &runner{seed: *seed, seconds: *seconds, scale: 1, tmpRoot: tmpRoot, outDir: traceDir, log: os.Stdout}
	rec := newRecord(*seed, *seconds)

	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	ok := true
	for _, w := range todo {
		wr := w.newRecord(r)
		rec.Workloads = append(rec.Workloads, wr)
		if *name == "" || *traced == 0 {
			if err := r.endToEnd(w, wr); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if *name == "" || *traced == 1 {
			if err := r.tracedPass(w, wr); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		wr.print(os.Stdout)
		ok = ok && wr.Correct
	}
	if *out != "" {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *name != "" {
		fmt.Println(rec.Workloads[0].contractLine(*traced == 1))
		return 0 // the line carries the verdict; the driver reads it
	}
	if !ok {
		return 1
	}
	return 0
}

// endToEnd runs w's untraced pass and files it in wr.
func (r *runner) endToEnd(w workload, wr *workloadRecord) error {
	var p *passResult
	var l *ladderResult
	var err error
	if w.closed {
		p, err = r.endToEndClosed(w)
	} else {
		p, l, err = r.endToEndOpen(w)
	}
	if err != nil {
		return err
	}
	wr.fill(p, l)
	return nil
}
