package main

import (
	"fmt"
	"runtime"
	"time"

	"gadget"
	"gadget/internal/kv"
)

// openTrace pre-generates n accesses of w's stream. Two accesses per
// event is the floor of tumbling-incr, so n/2 events always suffice;
// the surplus is cut off, which leaves live windows in the final state
// and makes the oracle comparison a non-empty one.
func (r *runner) openTrace(w workload, n int) ([]gadget.Access, genCost, error) {
	tr, gen, err := generate(w.config(r.seed, n/2+1))
	if err != nil {
		return nil, gen, err
	}
	if len(tr) < n {
		return nil, gen, fmt.Errorf("%s: generated %d accesses, need %d", w.name, len(tr), n)
	}
	return tr[:n], gen, nil
}

func (r *runner) expectOpen(w workload) (*expectation, error) {
	n := r.scaled(w.events, 2000)
	tr, gen, err := r.openTrace(w, n)
	if err != nil {
		return nil, err
	}
	exp, err := expect(tr, n/2+1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	exp.gen, exp.trace = gen, tr
	return exp, nil
}

func openOptions(rate float64, seed int64, in instruments) gadget.OpenLoopOptions {
	return gadget.OpenLoopOptions{
		Arrivals: gadget.PoissonArrivals(rate, seed), MaxInFlight: maxInFlight, Tracer: in.tracer,
	}
}

// openRound is one reference step: a fresh memstore, the pre-generated
// trace offered at refRate on a Poisson schedule, latency charged from
// intended arrival. Set-up generates the trace again, because trace
// generation is what a user of the open loop waits for.
func (r *runner) openRound(w workload, exp *expectation, in instruments) (*roundOut, error) {
	out := &roundOut{events: exp.events}
	t0 := time.Now()
	tr, _, err := r.openTrace(w, len(exp.trace))
	if err != nil {
		return nil, err
	}
	warm, err := w.openStack(r.tmpRoot, instruments{})
	if err != nil {
		return nil, err
	}
	_, err = gadget.ReplayOpenLoop(warm.top, tr[:len(tr)/10], openOptions(refRate, r.seed, instruments{}))
	if cerr := warm.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	st, err := w.openStack(r.tmpRoot, in)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out.st = st
	runtime.GC()
	out.setup = time.Since(t0)

	t1 := time.Now()
	res, err := r.measure(out, in, func() (gadget.Result, error) {
		return gadget.ReplayOpenLoop(st.top, tr, openOptions(refRate, r.seed, in))
	})
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.name, err)
	}
	out.e2e = sample{
		"setup_s": out.setup.Seconds(),
		"p50_us":  quantileMicros(res.IntendedLatency, 0.50),
		"p95_us":  quantileMicros(res.IntendedLatency, 0.95),
	}
	t2 := time.Now()
	state, err := kv.ScanAll(st.top)
	if err != nil {
		return nil, fmt.Errorf("%s: scan final state: %w", w.name, err)
	}
	out.state = digest(state)
	out.failed, out.problems = exp.check(res, state, w.name)
	if err := st.close(); err != nil {
		return nil, err
	}
	in.spans.addRound(t0, t1, t2, time.Now())
	return out, nil
}

// trial is one open-loop run at one ladder rate.
type trial struct {
	Rate         float64 `json:"rate"`
	P99Micros    float64 `json:"p99_us"`
	OverloadFrac float64 `json:"overload_frac"`
	AchievedFrac float64 `json:"achieved_frac"`
	Pass         bool    `json:"pass"`
}

// ladderResult is the outcome of the sustainable-rate search.
type ladderResult struct {
	best      float64
	trials    []trial
	attempted uint64
	failed    uint64
	problems  []string
}

// p99At is the median intended-arrival p99 of the trials run at rate,
// or 0 when the search never went there.
func (l *ladderResult) p99At(rate float64) float64 {
	var vs []float64
	for _, t := range l.trials {
		if t.Rate == rate {
			vs = append(vs, t.P99Micros)
		}
	}
	return median(vs)
}

// ladderSearch finds the highest ladder rate that passes, by bisection
// over the fixed ladder. Each probe is the majority of up to three
// trials on fresh stores: one scheduling hiccup of the sandbox fails
// one trial, not the step. A rate past saturation fails every trial.
func (r *runner) ladderSearch(w workload) (*ladderResult, error) {
	top := ladder[len(ladder)-1]
	dur := trialSeconds * r.scale
	tr, _, err := r.openTrace(w, int(top*dur)+1)
	if err != nil {
		return nil, err
	}
	l := &ladderResult{best: refRate}
	seq := int64(0)
	runTrial := func(rate float64) (bool, error) {
		st, err := w.openStack(r.tmpRoot, instruments{})
		if err != nil {
			return false, err
		}
		defer st.close()
		seq++
		n := int(rate * dur)
		runtime.GC()
		res, err := gadget.ReplayOpenLoop(st.top, tr[:n], openOptions(rate, r.seed+seq, instruments{}))
		if err != nil {
			return false, fmt.Errorf("%s: ladder %.0f: %w", w.name, rate, err)
		}
		l.attempted += res.Ops
		if res.Errors != 0 || res.Ops != uint64(n) {
			l.failed += res.Errors + absDiff(res.Ops, uint64(n))
			l.problems = append(l.problems, fmt.Sprintf("%s: ladder %.0f: ops %d of %d, %d errors", w.name, rate, res.Ops, n, res.Errors))
		}
		t := trial{
			Rate:         rate,
			P99Micros:    quantileMicros(res.IntendedLatency, 0.99),
			OverloadFrac: ratio(float64(res.Overload), float64(res.Offered)),
			AchievedFrac: ratio(res.AchievedRate, rate),
		}
		t.Pass = t.P99Micros <= sloP99Micros && t.OverloadFrac <= sloOverload && t.AchievedFrac >= sloAchievedMin
		l.trials = append(l.trials, t)
		fmt.Fprintf(r.log, "# %s ladder %.0f acc/s: p99 %.0fus overload %.4f achieved %.4f pass=%v\n",
			w.name, rate, t.P99Micros, t.OverloadFrac, t.AchievedFrac, t.Pass)
		return t.Pass, nil
	}
	probe := func(rate float64) (bool, error) {
		passes, fails := 0, 0
		for passes < 2 && fails < 2 {
			ok, err := runTrial(rate)
			if err != nil {
				return false, err
			}
			if ok {
				passes++
			} else {
				fails++
			}
		}
		return passes == 2, nil
	}
	lo, hi := -1, len(ladder) // highest known pass, lowest known fail
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := probe(ladder[mid])
		if err != nil {
			return nil, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo >= 0 {
		l.best = ladder[lo]
	}
	return l, nil
}

// endToEndOpen measures the open-loop workload with nothing attached:
// reference rounds for half of --seconds, then the ladder search, whose
// length is fixed by the ladder.
func (r *runner) endToEndOpen(w workload) (*passResult, *ladderResult, error) {
	exp, err := r.expectOpen(w)
	if err != nil {
		return nil, nil, err
	}
	p := &passResult{}
	for len(p.rounds) < minRounds || p.measured() < r.seconds/2 {
		out, err := r.openRound(w, exp, instruments{})
		if err != nil {
			return nil, nil, err
		}
		p.add(out)
		fmt.Fprintf(r.log, "# %s round %d: setup %.3fs run %.3fs %s\n", w.name, len(p.rounds), out.setup.Seconds(), out.wall.Seconds(), out.res)
	}
	l, err := r.ladderSearch(w)
	if err != nil {
		return nil, nil, err
	}
	p.attempted += l.attempted
	p.failed += l.failed
	p.problems = append(p.problems, l.problems...)
	p.e2e["max_rate_ok"] = []float64{l.best}
	last := p.rounds[len(p.rounds)-1]
	p.state = last.state
	p.counts = exactCounts(exp, last)
	return p, l, nil
}
