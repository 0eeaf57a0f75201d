package core

import (
	"gadget/internal/eventgen"
	"gadget/internal/kv"
)

// streamGroup namespaces an event key by input stream so that the two
// sides of a join keep separate buckets in the same store.
func streamGroup(key uint64, stream uint8) uint64 {
	return key<<1 | uint64(stream)
}

// windowJoinOp implements tumbling and sliding window joins: both inputs
// buffer their events into per-(key, stream, window) buckets (a merge per
// assigned window — window joins collect contents like holistic windows),
// and on trigger the operator retrieves both buckets to produce matches,
// then clears them.
type windowJoinOp struct {
	driver
	typ     OperatorType
	length  int64
	slide   int64
	windows []int64 // assignedWindows' buffer, reused per event
}

func newWindowJoinOp(cfg Config, length, slide int64) *windowJoinOp {
	typ := TumblingJoin
	if length != slide {
		typ = SlidingJoin
	}
	return &windowJoinOp{driver: newDriver(cfg), typ: typ, length: length, slide: slide}
}

func (w *windowJoinOp) Type() OperatorType { return w.typ }

func (w *windowJoinOp) OnEvent(e eventgen.Event, emit Emit) {
	w.stats.Events++
	w.windows = assignedWindows(w.windows[:0], e.Time, w.length, w.slide)
	for _, start := range w.windows {
		expire := start + w.length + w.cfg.AllowedLatenessMs
		if expire <= w.watermark {
			w.stats.LateDropped++
			continue
		}
		sk := kv.StateKey{Group: streamGroup(e.Key, e.Stream), Sub: uint64(start)}
		m, _ := w.getMachine(sk, expire)
		m.elements++
		m.bytes += e.Size
		m.sides[e.Stream&1]++
		emit(kv.Access{Op: kv.OpMerge, Key: sk, Size: e.Size, Time: e.Time})
	}
}

func (w *windowJoinOp) OnWatermark(wm int64, emit Emit) {
	if wm <= w.watermark {
		return
	}
	w.watermark = wm
	w.vindex.drain(wm, w.machines, func(m *machine) {
		emit(kv.Access{Op: kv.OpFGet, Key: m.key, Time: wm})
		emit(kv.Access{Op: kv.OpDelete, Key: m.key, Time: wm})
		w.stats.WindowsFired++
		w.terminate(m)
	})
}

// bufferRootSub is the namespace of a join buffer's map-state root,
// distinct from any event-timestamp namespace.
const bufferRootSub = ^uint64(0)

// intervalJoinOp implements the interval join: an event from one stream
// matches events of the other stream within [t+lower, t+upper]. Each
// event is stored under its own (key, timestamp) state entry (a put) and
// probes the opposite stream's buffer (a get) — the equal get/put mix of
// the paper's Table 1. Events are deleted when the watermark passes their
// validity horizon.
type intervalJoinOp struct {
	driver
	lower, upper int64
}

func newIntervalJoinOp(cfg Config) *intervalJoinOp {
	return &intervalJoinOp{driver: newDriver(cfg), lower: cfg.IntervalLowerMs, upper: cfg.IntervalUpperMs}
}

func (ij *intervalJoinOp) Type() OperatorType { return IntervalJoin }

func (ij *intervalJoinOp) OnEvent(e eventgen.Event, emit Emit) {
	ij.stats.Events++
	if e.Time+ij.upper+ij.cfg.AllowedLatenessMs <= ij.watermark {
		ij.stats.LateDropped++
		return
	}
	// Buffer own event under its timestamp; probe the opposite stream's
	// per-key buffer root (one map-state read per event, as Flink's
	// interval join issues — hence the equal get/put mix of Table 1).
	own := kv.StateKey{Group: streamGroup(e.Key, e.Stream), Sub: uint64(e.Time)}
	other := kv.StateKey{Group: streamGroup(e.Key, 1-e.Stream&1), Sub: bufferRootSub}
	m, _ := ij.getMachine(own, e.Time+ij.upper+ij.cfg.AllowedLatenessMs)
	m.elements++
	m.bytes += e.Size
	emit(kv.Access{Op: kv.OpPut, Key: own, Size: e.Size, Time: e.Time})
	emit(kv.Access{Op: kv.OpGet, Key: other, Time: e.Time})
}

func (ij *intervalJoinOp) OnWatermark(wm int64, emit Emit) {
	if wm <= ij.watermark {
		return
	}
	ij.watermark = wm
	ij.vindex.drain(wm, ij.machines, func(m *machine) {
		emit(kv.Access{Op: kv.OpDelete, Key: m.key, Time: wm})
		ij.stats.WindowsFired++
		ij.terminate(m)
	})
}

// continuousJoinOp implements the continuous join of §2.2: the stream
// encodes validity intervals (KindStart opens one, KindEnd closes it).
// Start events put the build record; record events probe it (a get) and,
// when the interval is open, fold the match into a per-key result
// accumulator (a merge); end events delete the build record and the
// accumulator. The Borg stream thus "triggers a state cleanup per job
// completed" and the Taxi stream "a delete for every passenger drop-off".
type continuousJoinOp struct {
	driver
	// open tracks keys with an open validity interval and whether any
	// match was accumulated (the hIndex role).
	open map[uint64]*contState
}

type contState struct {
	accumulated bool
}

const (
	contBuildSub = 0
	contAccumSub = 1
)

func newContinuousJoinOp(cfg Config) *continuousJoinOp {
	return &continuousJoinOp{driver: newDriver(cfg), open: make(map[uint64]*contState)}
}

func (cj *continuousJoinOp) Type() OperatorType { return ContinJoin }

func (cj *continuousJoinOp) OnEvent(e eventgen.Event, emit Emit) {
	cj.stats.Events++
	buildKey := kv.StateKey{Group: e.Key, Sub: contBuildSub}
	accumKey := kv.StateKey{Group: e.Key, Sub: contAccumSub}
	switch e.Kind {
	case eventgen.KindStart:
		// A start on an already-open interval refreshes the build record
		// but keeps any accumulated matches.
		if _, ok := cj.open[e.Key]; !ok {
			cj.open[e.Key] = &contState{}
		}
		m, _ := cj.getMachine(buildKey, -1)
		m.elements++
		m.bytes = e.Size
		emit(kv.Access{Op: kv.OpPut, Key: buildKey, Size: e.Size, Time: e.Time})
	case eventgen.KindEnd:
		st, ok := cj.open[e.Key]
		if !ok {
			return // end without a matching start: nothing buffered
		}
		// Emit the joined result and clean up state.
		if st.accumulated {
			emit(kv.Access{Op: kv.OpFGet, Key: accumKey, Time: e.Time})
			emit(kv.Access{Op: kv.OpDelete, Key: accumKey, Time: e.Time})
			if m, ok := cj.machines[accumKey]; ok {
				cj.terminate(m)
			}
		}
		emit(kv.Access{Op: kv.OpDelete, Key: buildKey, Time: e.Time})
		if m, ok := cj.machines[buildKey]; ok {
			cj.terminate(m)
		}
		delete(cj.open, e.Key)
		cj.stats.WindowsFired++
	default: // KindRecord probes
		emit(kv.Access{Op: kv.OpGet, Key: buildKey, Time: e.Time})
		if st, ok := cj.open[e.Key]; ok {
			st.accumulated = true
			m, _ := cj.getMachine(accumKey, -1)
			m.elements++
			m.bytes += e.Size
			emit(kv.Access{Op: kv.OpMerge, Key: accumKey, Size: e.Size, Time: e.Time})
		}
	}
}

func (cj *continuousJoinOp) OnWatermark(wm int64, emit Emit) {
	if wm > cj.watermark {
		cj.watermark = wm
	}
}
