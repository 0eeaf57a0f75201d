package core

import (
	"gadget/internal/eventgen"
	"gadget/internal/kv"
)

// windowOp implements tumbling and sliding windows under the W-ID
// strategy the paper describes: each (key, window) pair is one KV entry
// whose key is the window start timestamp. Incremental variants issue a
// get-put pair per assigned window; holistic variants issue a single
// merge. On trigger, the operator issues the final get (FGet) and a
// delete per expiring window.
type windowOp struct {
	driver
	typ      OperatorType
	holistic bool
	length   int64
	slide    int64
	windows  []int64 // assignedWindows' buffer, reused per event
}

func newWindowOp(cfg Config, holistic bool, length, slide int64) *windowOp {
	typ := TumblingIncr
	switch {
	case holistic && length == slide:
		typ = TumblingHol
	case holistic:
		typ = SlidingHol
	case length != slide:
		typ = SlidingIncr
	}
	return &windowOp{driver: newDriver(cfg), typ: typ, holistic: holistic, length: length, slide: slide}
}

func (w *windowOp) Type() OperatorType { return w.typ }

// assignedWindows appends to dst the start timestamps of every window
// containing t, latest first. Operators pass their own buffer, emptied,
// so assigning windows allocates nothing in steady state.
func assignedWindows(dst []int64, t, length, slide int64) []int64 {
	for start := t - t%slide; start > t-length; start -= slide {
		if start < 0 {
			break
		}
		dst = append(dst, start)
	}
	return dst
}

func (w *windowOp) OnEvent(e eventgen.Event, emit Emit) {
	w.stats.Events++
	w.windows = assignedWindows(w.windows[:0], e.Time, w.length, w.slide)
	for _, start := range w.windows {
		expire := start + w.length + w.cfg.AllowedLatenessMs
		if expire <= w.watermark {
			// The window already fired and its lateness horizon passed.
			w.stats.LateDropped++
			continue
		}
		sk := kv.StateKey{Group: e.Key, Sub: uint64(start)}
		m, _ := w.getMachine(sk, expire)
		m.elements++
		m.bytes += e.Size
		if w.holistic {
			// State machine: MergeState -> done (bucket append).
			emit(kv.Access{Op: kv.OpMerge, Key: sk, Size: e.Size, Time: e.Time})
		} else {
			// State machine: GetState -> PutState -> done (figure 9).
			emit(kv.Access{Op: kv.OpGet, Key: sk, Time: e.Time})
			emit(kv.Access{Op: kv.OpPut, Key: sk, Size: w.cfg.AggStateSize, Time: e.Time})
		}
	}
}

func (w *windowOp) OnWatermark(wm int64, emit Emit) {
	if wm <= w.watermark {
		return
	}
	w.watermark = wm
	w.vindex.drain(wm, w.machines, func(m *machine) {
		// Trigger: FGet retrieves the window contents, delete clears it.
		emit(kv.Access{Op: kv.OpFGet, Key: m.key, Time: wm})
		emit(kv.Access{Op: kv.OpDelete, Key: m.key, Time: wm})
		w.stats.WindowsFired++
		w.terminate(m)
	})
}

// aggregationOp implements continuous per-key rolling aggregation: a
// get-put pair per event on the event key itself. State never expires
// (the paper: "their state requirements increase over time as the
// keyspace size of the input stream grows").
type aggregationOp struct {
	driver
}

func newAggregationOp(cfg Config) *aggregationOp {
	return &aggregationOp{driver: newDriver(cfg)}
}

func (a *aggregationOp) Type() OperatorType { return Aggregation }

func (a *aggregationOp) OnEvent(e eventgen.Event, emit Emit) {
	a.stats.Events++
	sk := kv.StateKey{Group: e.Key}
	m, _ := a.getMachine(sk, -1)
	m.elements++
	emit(kv.Access{Op: kv.OpGet, Key: sk, Time: e.Time})
	emit(kv.Access{Op: kv.OpPut, Key: sk, Size: a.cfg.AggStateSize, Time: e.Time})
}

func (a *aggregationOp) OnWatermark(wm int64, emit Emit) {
	if wm > a.watermark {
		a.watermark = wm
	}
}
