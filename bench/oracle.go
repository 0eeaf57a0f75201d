package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"gadget"
	"gadget/internal/kv"
	"gadget/internal/stores"
)

// expectation is what one seed's inputs must produce on any correct
// stack: the same trace applied to a fresh memstore oracle. Windowed
// operators end a run with every key deleted, so the final state alone
// proves little; the op, miss and per-type counts are part of it, and
// the traced pass also compares the non-empty state after a prefix.
type expectation struct {
	events   int
	ops      uint64
	misses   uint64
	perOp    [kv.NumOps]uint64
	final    []kv.Entry
	putBytes int64 // key + value bytes of every put and merge: the user bytes of write_amp

	gen   genCost
	trace []gadget.Access // kept for the traced pass only
}

// genCost is what eventgen and core spent producing one access stream.
type genCost struct {
	nsPerAccess, allocsPerAccess, accessesPerEvent float64
}

// generate builds the workload's access stream and times the generator.
func generate(cfg gadget.Config) ([]gadget.Access, genCost, error) {
	wl, err := gadget.NewWorkload(cfg)
	if err != nil {
		return nil, genCost{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	tr, err := wl.Generate()
	nanos := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	n := float64(len(tr))
	return tr, genCost{
		nsPerAccess:      ratio(float64(nanos), n),
		allocsPerAccess:  ratio(float64(m1.Mallocs-m0.Mallocs), n),
		accessesPerEvent: ratio(n, float64(cfg.Source.Events)),
	}, err
}

// expect applies tr to a fresh memstore and records the outcome.
func expect(tr []gadget.Access, events int) (*expectation, error) {
	exp := &expectation{events: events}
	res, final, err := oracleState(tr)
	if err != nil {
		return nil, err
	}
	exp.ops, exp.misses, exp.final = res.Ops, res.Misses, final
	for i, h := range res.PerOp {
		exp.perOp[i] = h.Count()
	}
	for _, a := range tr {
		if a.Op == kv.OpPut || a.Op == kv.OpMerge {
			exp.putBytes += kv.KeyLen + int64(a.Size)
		}
	}
	return exp, nil
}

// oracleState replays tr on a fresh memstore and returns its result and
// every live entry.
func oracleState(tr []gadget.Access) (gadget.Result, []kv.Entry, error) {
	mem, err := stores.Open(stores.Config{Engine: "memstore"})
	if err != nil {
		return gadget.Result{}, nil, err
	}
	defer mem.Close()
	res, err := gadget.Replay(mem, tr, gadget.ReplayOptions{})
	if err != nil {
		return res, nil, fmt.Errorf("oracle replay: %w", err)
	}
	if res.Errors != 0 {
		return res, nil, fmt.Errorf("oracle replay: %d store errors", res.Errors)
	}
	ents, err := kv.ScanAll(mem)
	return res, ents, err
}

// check compares one run's result and final state with the
// expectation. It returns the number of operations or keys that are
// wrong, and one line per kind of disagreement.
func (e *expectation) check(res gadget.Result, state []kv.Entry, where string) (failed uint64, problems []string) {
	note := func(n uint64, format string, args ...any) {
		failed += n
		problems = append(problems, where+": "+fmt.Sprintf(format, args...))
	}
	if res.Errors != 0 {
		note(res.Errors, "%d store errors", res.Errors)
	}
	if res.Degraded {
		note(1, "run degraded")
	}
	if res.Ops != e.ops {
		note(absDiff(res.Ops, e.ops), "ops %d, oracle %d", res.Ops, e.ops)
	}
	if res.Misses != e.misses {
		note(absDiff(res.Misses, e.misses), "misses %d, oracle %d", res.Misses, e.misses)
	}
	for i, h := range res.PerOp {
		if n := h.Count(); n != e.perOp[i] {
			note(absDiff(n, e.perOp[i]), "%s count %d, oracle %d", kv.Op(i), n, e.perOp[i])
		}
	}
	if n := diffEntries(state, e.final); n != 0 {
		note(uint64(n), "%d keys differ from the oracle state (%d entries, oracle %d)", n, len(state), len(e.final))
	}
	return failed, problems
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// diffEntries counts the keys on which two ascending entry lists
// disagree: present on one side only, or present with different values.
func diffEntries(got, want []kv.Entry) int {
	n, i, j := 0, 0, 0
	for i < len(got) && j < len(want) {
		switch {
		case got[i].Key.Less(want[j].Key):
			n, i = n+1, i+1
		case want[j].Key.Less(got[i].Key):
			n, j = n+1, j+1
		default:
			if !bytes.Equal(got[i].Value, want[j].Value) {
				n++
			}
			i, j = i+1, j+1
		}
	}
	return n + len(got) - i + len(want) - j
}

// digest names a state in the record, so two records can be compared by
// eye: the entry count and an FNV-1a hash of keys and values.
func digest(ents []kv.Entry) string {
	h := fnv.New64a()
	var kb [kv.KeyLen]byte
	for _, e := range ents {
		h.Write(e.Key.Encode(kb[:0]))
		h.Write(e.Value)
	}
	return fmt.Sprintf("%d:%016x", len(ents), h.Sum64())
}
