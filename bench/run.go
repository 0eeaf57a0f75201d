package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"gadget"
	"gadget/internal/kv"
)

// runner holds what every pass of one invocation shares.
type runner struct {
	seed    int64
	seconds float64 // time a pass drives load for
	scale   float64 // 1 for real runs; tests shrink the work
	tmpRoot string  // store directories live here
	outDir  string  // *.trace.json files land here
	log     io.Writer
}

// scaled applies the test scale to a count, keeping at least min.
func (r *runner) scaled(n, min int) int {
	if n = int(float64(n) * r.scale); n < min {
		return min
	}
	return n
}

// sample is one round's value of each metric it measured.
type sample map[string]float64

// roundOut is everything one measured round leaves behind.
type roundOut struct {
	events   int // input events the round was driven with
	setup    time.Duration
	wall     time.Duration
	res      gadget.Result
	e2e      sample
	failed   uint64
	problems []string

	// Read by the traced pass. The stack is closed, but its counters and
	// wrappers stay readable.
	st         *stack
	mem0, mem1 runtime.MemStats
	heapPeak   uint64    // highest live-heap reading during the measured run (traced pass only)
	dev        devCounts // what the engine asked of its device during the measured run alone
	sizeEnd    int64     // lsm.size_bytes when the run ended
	state      string
}

// opsPerSec is store ops completed over the wall time of the driven call.
func (o *roundOut) opsPerSec() float64 { return float64(o.res.Ops) / o.wall.Seconds() }

// drive runs the workload through the public entry point its load shape
// calls for: RunOnline for one client, RunPartitioned with every
// partition aliasing the same store for several.
func drive(wl *gadget.Workload, clients int, top kv.Store, opts gadget.ReplayOptions) (gadget.Result, error) {
	if clients == 1 {
		return wl.RunOnline(top, opts)
	}
	tops := make([]gadget.Store, clients)
	for i := range tops {
		tops[i] = top
	}
	rs, err := wl.RunPartitioned(tops, opts)
	return gadget.MergeResults(rs), err
}

// warm runs a tenth of a round on a scratch stack, so that the measured
// round starts with code paths, allocator and page cache warm. It is
// part of set-up time.
func (r *runner) warm(w workload) error {
	wl, err := gadget.NewWorkload(w.config(r.seed, r.scaled(w.events, 1000)/10))
	if err != nil {
		return err
	}
	st, err := w.openStack(r.tmpRoot, instruments{})
	if err != nil {
		return err
	}
	_, err = drive(wl, w.clients, st.top, gadget.ReplayOptions{})
	if cerr := st.close(); err == nil {
		err = cerr
	}
	return err
}

// closedRound sets up a fresh stack, drives one round of w through it
// and checks the outcome against exp.
func (r *runner) closedRound(w workload, exp *expectation, in instruments) (*roundOut, error) {
	out := &roundOut{events: exp.events}
	t0 := time.Now()
	if err := r.warm(w); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	wl, err := gadget.NewWorkload(w.config(r.seed, exp.events))
	if err != nil {
		return nil, err
	}
	st, err := w.openStack(r.tmpRoot, in)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out.st = st
	runtime.GC()
	out.setup = time.Since(t0)

	var dev0 devCounts
	if st.fs != nil {
		dev0 = st.fs.counts()
	}
	t1 := time.Now()
	res, err := r.measure(out, in, func() (gadget.Result, error) {
		return drive(wl, w.clients, st.top, gadget.ReplayOptions{Tracer: in.tracer})
	})
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.name, err)
	}

	out.e2e = sample{
		"setup_s":   out.setup.Seconds(),
		"ops_per_s": out.opsPerSec(),
		"p50_us":    quantileMicros(res.Latency, 0.50),
		"p95_us":    quantileMicros(res.Latency, 0.95),
	}
	if st.fs != nil {
		out.dev = st.fs.counts().sub(dev0)
		out.sizeEnd = kv.MetricsOf(st.top)["lsm.size_bytes"]
		out.e2e["write_amp"] = ratio(float64(out.dev.written()), float64(exp.putBytes))
	}

	// Correctness gate: the state through the full stack, then (for
	// stores with a directory) the state after a restart.
	t2 := time.Now()
	state, err := kv.ScanAll(st.top)
	if err != nil {
		return nil, fmt.Errorf("%s: scan final state: %w", w.name, err)
	}
	out.state = digest(state)
	out.failed, out.problems = exp.check(res, state, w.name)
	if st.dir != "" {
		if err := st.reopen(); err != nil {
			return nil, fmt.Errorf("%s: reopen: %w", w.name, err)
		}
		again, err := kv.ScanAll(st.top)
		if err != nil {
			return nil, fmt.Errorf("%s: scan reopened state: %w", w.name, err)
		}
		if n := diffEntries(again, exp.final); n != 0 {
			out.failed += uint64(n)
			out.problems = append(out.problems, fmt.Sprintf("%s: %d keys differ from the oracle after reopen", w.name, n))
		}
	}
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	in.spans.addRound(t0, t1, t2, time.Now())
	return out, nil
}

// measure runs one driven call with everything that is read around it:
// allocator statistics on both sides, the wall clock, and the heap
// watcher when asked for.
func (r *runner) measure(out *roundOut, in instruments, run func() (gadget.Result, error)) (gadget.Result, error) {
	stopHeap := watchHeap(in.heap)
	runtime.ReadMemStats(&out.mem0)
	t0 := time.Now()
	res, err := run()
	out.wall = time.Since(t0)
	runtime.ReadMemStats(&out.mem1)
	out.heapPeak = stopHeap()
	out.res = res
	return res, err
}

// expectClosed generates the round's trace once, times the generator
// and builds the oracle expectation. Every round of one invocation
// replays the same inputs, so one expectation serves them all.
func (r *runner) expectClosed(w workload, keepTrace bool) (*expectation, error) {
	events := r.scaled(w.events, 1000)
	tr, gen, err := generate(w.config(r.seed, events))
	if err != nil {
		return nil, err
	}
	exp, err := expect(tr, events)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	exp.gen = gen
	if keepTrace {
		exp.trace = tr
	}
	return exp, nil
}

// minRounds is the least number of sampled rounds of an end-to-end
// pass, however short --seconds is: a median needs three values.
const minRounds = 3

// warmRounds is the number of rounds a closed-loop pass drives before it
// takes samples. The first two rounds of a process read slow on every
// closed loop (incr-mem: 1.4–1.6 M ops/s against 1.8 M, p99 1.0–2.5 µs
// against 0.75 µs) while the heap grows to its working size. They are
// driven and checked like every other round and count towards --seconds
// and the ops attempted; only their timings are left out of the medians.
const warmRounds = 2

// passResult is the outcome of one pass over one workload.
type passResult struct {
	rounds    []*roundOut // the sampled rounds
	warmed    int         // warm-up rounds driven before them
	warmWall  float64     // seconds the warm-up rounds were driven for
	attempted uint64
	failed    uint64
	problems  []string
	e2e       map[string][]float64 // per-round samples by metric
	counts    map[string]int64     // counts that must repeat exactly with a seed
	state     string
}

// addWarm counts a warm-up round: checked, attempted, never sampled.
func (p *passResult) addWarm(out *roundOut) {
	p.warmed++
	p.warmWall += out.wall.Seconds()
	p.check(out)
}

func (p *passResult) check(out *roundOut) {
	p.attempted += out.res.Ops
	p.failed += out.failed
	p.problems = append(p.problems, out.problems...)
}

func (p *passResult) add(out *roundOut) {
	p.rounds = append(p.rounds, out)
	p.check(out)
	if p.e2e == nil {
		p.e2e = map[string][]float64{}
	}
	for k, v := range out.e2e {
		p.e2e[k] = append(p.e2e[k], v)
	}
}

// standIns gives the end-to-end metrics a workload does not define the
// value the driver line carries for them: the input events per second a
// closed loop sustained as its max_rate_ok, the ops per second the open
// loop served at its reference rate as its ops_per_s, and a write_amp of
// 1 for a store that keeps every byte in memory once and writes nothing
// below its API.
func (p *passResult) standIns() map[string]float64 {
	var evRate, opRate []float64
	for _, out := range p.rounds {
		evRate = append(evRate, float64(out.events)/out.wall.Seconds())
		opRate = append(opRate, out.opsPerSec())
	}
	return map[string]float64{"max_rate_ok": median(evRate), "ops_per_s": median(opRate), "write_amp": 1}
}

// measured is the time the pass has driven load for, warm-up included.
func (p *passResult) measured() float64 {
	s := p.warmWall
	for _, out := range p.rounds {
		s += out.wall.Seconds()
	}
	return s
}

// endToEndClosed measures a closed-loop workload with nothing attached:
// fixed-size rounds on fresh stacks until --seconds of driven time, the
// first warmRounds of them unsampled.
func (r *runner) endToEndClosed(w workload) (*passResult, error) {
	exp, err := r.expectClosed(w, false)
	if err != nil {
		return nil, err
	}
	p := &passResult{}
	for len(p.rounds) < minRounds || p.measured() < r.seconds {
		out, err := r.closedRound(w, exp, instruments{})
		if err != nil {
			return nil, err
		}
		if p.warmed < warmRounds {
			p.addWarm(out)
			fmt.Fprintf(r.log, "# %s warm-up round %d: setup %.3fs run %.3fs %s\n", w.name, p.warmed, out.setup.Seconds(), out.wall.Seconds(), out.res)
			continue
		}
		p.add(out)
		fmt.Fprintf(r.log, "# %s round %d: setup %.3fs run %.3fs %s\n", w.name, len(p.rounds), out.setup.Seconds(), out.wall.Seconds(), out.res)
	}
	last := p.rounds[len(p.rounds)-1]
	p.state = last.state
	p.counts = exactCounts(exp, last)
	return p, nil
}

// exactCounts picks the numbers of a round that depend on the seed
// alone when one client drives the store.
func exactCounts(exp *expectation, out *roundOut) map[string]int64 {
	c := map[string]int64{
		"events": int64(exp.events), "ops": int64(out.res.Ops), "misses": int64(out.res.Misses),
		"user_bytes_put": exp.putBytes,
	}
	for i, n := range exp.perOp {
		if n > 0 {
			c["ops."+kv.Op(i).String()] = int64(n)
		}
	}
	if out.st != nil && out.st.fs != nil {
		c["vfs.bytes_written"] = out.dev.written()
		c["lsm.size_bytes_end"] = out.sizeEnd
		for _, k := range []string{"lsm.flushes", "lsm.compactions", "lsm.bytes_flushed", "lsm.bytes_compacted", "lsm.iter_ops"} {
			c[k] = out.res.Engine[k]
		}
	}
	return c
}
