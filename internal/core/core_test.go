package core

import (
	"testing"

	"gadget/internal/eventgen"
	"gadget/internal/kv"
)

// fixedSource emits a scripted sequence of items.
type fixedSource struct {
	items []eventgen.Item
	i     int
}

func (f *fixedSource) Next() (eventgen.Item, bool) {
	if f.i >= len(f.items) {
		return eventgen.Item{}, false
	}
	it := f.items[f.i]
	f.i++
	return it, true
}

func ev(t int64, key uint64) eventgen.Item {
	return eventgen.Item{Kind: eventgen.ItemEvent, Event: eventgen.Event{Time: t, Key: key, Size: 10}}
}

func wm(t int64) eventgen.Item {
	return eventgen.Item{Kind: eventgen.ItemWatermark, WM: t}
}

func opCounts(trace []kv.Access) map[kv.Op]int {
	out := map[kv.Op]int{}
	for _, a := range trace {
		out[a.Op]++
	}
	return out
}

func mustOp(t *testing.T, typ OperatorType, cfg Config) Operator {
	t.Helper()
	cfg.Operator = typ
	op, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestNewAllTypes(t *testing.T) {
	for _, typ := range OperatorTypes() {
		op, err := New(Config{Operator: typ})
		if err != nil {
			t.Fatalf("New(%s): %v", typ, err)
		}
		if op.Type() != typ {
			t.Fatalf("Type() = %s, want %s", op.Type(), typ)
		}
	}
	if _, err := New(Config{Operator: "bogus"}); err == nil {
		t.Fatal("unknown operator should error")
	}
}

func TestAggregation(t *testing.T) {
	op := mustOp(t, Aggregation, Config{})
	src := &fixedSource{items: []eventgen.Item{
		ev(1, 7), ev(2, 8), ev(3, 7), wm(10), ev(11, 7),
	}}
	trace := Generate(src, op)
	// Exactly get-put per event, nothing on watermark.
	if len(trace) != 8 {
		t.Fatalf("trace len = %d, want 8", len(trace))
	}
	c := opCounts(trace)
	if c[kv.OpGet] != 4 || c[kv.OpPut] != 4 || c[kv.OpDelete] != 0 {
		t.Fatalf("counts = %v", c)
	}
	// State keys are the event keys (keyspace amplification 1).
	for _, a := range trace {
		if a.Key.Group != 7 && a.Key.Group != 8 || a.Key.Sub != 0 {
			t.Fatalf("unexpected state key %v", a.Key)
		}
	}
	if op.Stats().Events != 4 {
		t.Fatalf("stats = %+v", op.Stats())
	}
}

func TestTumblingIncremental(t *testing.T) {
	op := mustOp(t, TumblingIncr, Config{WindowLengthMs: 10})
	src := &fixedSource{items: []eventgen.Item{
		ev(1, 1), ev(5, 1), ev(12, 1), // windows [0,10) and [10,20)
		wm(10), // fires [0,10)
		ev(15, 1),
		wm(25), // fires [10,20)
	}}
	trace := Generate(src, op)
	c := opCounts(trace)
	// 4 events * (get+put) + 2 windows * (fget+delete).
	if c[kv.OpGet] != 4 || c[kv.OpPut] != 4 || c[kv.OpFGet] != 2 || c[kv.OpDelete] != 2 {
		t.Fatalf("counts = %v", c)
	}
	if op.Stats().WindowsFired != 2 {
		t.Fatalf("fired = %d", op.Stats().WindowsFired)
	}
	// Window state keys use the window start timestamp.
	if trace[0].Key != (kv.StateKey{Group: 1, Sub: 0}) {
		t.Fatalf("first key = %v", trace[0].Key)
	}
}

func TestTumblingHolistic(t *testing.T) {
	op := mustOp(t, TumblingHol, Config{WindowLengthMs: 10})
	src := &fixedSource{items: []eventgen.Item{
		ev(1, 1), ev(2, 1), ev(3, 1), wm(10),
	}}
	trace := Generate(src, op)
	c := opCounts(trace)
	if c[kv.OpMerge] != 3 || c[kv.OpPut] != 0 || c[kv.OpFGet] != 1 || c[kv.OpDelete] != 1 {
		t.Fatalf("counts = %v", c)
	}
	// Merge sizes carry the event payload.
	if trace[0].Size != 10 {
		t.Fatalf("merge size = %d", trace[0].Size)
	}
}

func TestSlidingAmplification(t *testing.T) {
	// length/slide = 5: each event is assigned to up to 5 windows.
	op := mustOp(t, SlidingIncr, Config{WindowLengthMs: 50, WindowSlideMs: 10})
	src := &fixedSource{items: []eventgen.Item{ev(100, 1)}}
	trace := Generate(src, op)
	c := opCounts(trace)
	if c[kv.OpGet] != 5 || c[kv.OpPut] != 5 {
		t.Fatalf("counts = %v (want 5 windows)", c)
	}
	// Early events near t=0 get fewer windows (no negative starts).
	op2 := mustOp(t, SlidingIncr, Config{WindowLengthMs: 50, WindowSlideMs: 10})
	trace2 := Generate(&fixedSource{items: []eventgen.Item{ev(5, 1)}}, op2)
	if n := len(trace2) / 2; n != 1 {
		t.Fatalf("t=5 assigned to %d windows, want 1", n)
	}
}

func TestLateEventsDropped(t *testing.T) {
	op := mustOp(t, TumblingIncr, Config{WindowLengthMs: 10})
	src := &fixedSource{items: []eventgen.Item{
		ev(1, 1), wm(20), ev(2, 1), // event for window [0,10) after it fired
	}}
	trace := Generate(src, op)
	if op.Stats().LateDropped != 1 {
		t.Fatalf("late dropped = %d", op.Stats().LateDropped)
	}
	// No accesses for the dropped event beyond the original window ops.
	c := opCounts(trace)
	if c[kv.OpGet] != 1 || c[kv.OpPut] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestAllowedLatenessKeepsWindowsAlive(t *testing.T) {
	op := mustOp(t, TumblingIncr, Config{WindowLengthMs: 10, AllowedLatenessMs: 100})
	src := &fixedSource{items: []eventgen.Item{
		ev(1, 1), wm(20), ev(2, 1), // within allowed lateness: accepted
	}}
	Generate(src, op)
	if op.Stats().LateDropped != 0 {
		t.Fatal("event within allowed lateness was dropped")
	}
}

func TestWatermarkMonotonicity(t *testing.T) {
	op := mustOp(t, TumblingIncr, Config{WindowLengthMs: 10})
	src := &fixedSource{items: []eventgen.Item{
		ev(1, 1), wm(15), wm(5), ev(22, 1), wm(15), wm(40),
	}}
	trace := Generate(src, op)
	c := opCounts(trace)
	// Both windows fire exactly once despite regressing watermarks.
	if c[kv.OpFGet] != 2 || c[kv.OpDelete] != 2 {
		t.Fatalf("counts = %v", c)
	}
}

func TestSessionWindowLifecycle(t *testing.T) {
	op := mustOp(t, SessionIncr, Config{SessionGapMs: 10})
	src := &fixedSource{items: []eventgen.Item{
		ev(1, 1), ev(5, 1), // one session, extended
		ev(30, 1), // second session (gap passed)
		wm(25),    // fires session 1 (ends at 5+10=15)
		wm(50),    // fires session 2
	}}
	trace := Generate(src, op)
	c := opCounts(trace)
	if c[kv.OpGet] != 3 || c[kv.OpPut] != 3 || c[kv.OpFGet] != 2 || c[kv.OpDelete] != 2 {
		t.Fatalf("counts = %v", c)
	}
	st := op.Stats()
	if st.WindowsFired != 2 || st.SessionMerges != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ActiveMachines != 0 {
		t.Fatalf("machines leaked: %d", st.ActiveMachines)
	}
}

func TestSessionMerge(t *testing.T) {
	op := mustOp(t, SessionIncr, Config{SessionGapMs: 10})
	src := &fixedSource{items: []eventgen.Item{
		ev(0, 1),  // session A [0, 10)
		ev(25, 1), // session B [25, 35)
		ev(18, 1), // bridges A (ends 10... 18 > 10): extends B? 18+10=28 >= 25 and 18 <= 35: overlaps B; 18 <= A.end(10)? no
	}}
	trace := Generate(src, op)
	// Event at 18 overlaps only B (A ended at 10 < 18): extension, no merge.
	if op.Stats().SessionMerges != 0 {
		t.Fatal("unexpected merge")
	}
	// Now a true bridge: sessions [0,10) and [12,22); event at 8 overlaps
	// both ([8,18) touches A and B).
	op2 := mustOp(t, SessionIncr, Config{SessionGapMs: 10})
	src2 := &fixedSource{items: []eventgen.Item{
		ev(0, 1), ev(12, 1), ev(8, 1), wm(100),
	}}
	trace2 := Generate(src2, op2)
	if op2.Stats().SessionMerges != 1 {
		t.Fatalf("merges = %d", op2.Stats().SessionMerges)
	}
	c := opCounts(trace2)
	// Merge emits get+merge+delete; only the surviving session fires.
	if c[kv.OpMerge] != 1 || c[kv.OpDelete] != 2 || c[kv.OpFGet] != 1 {
		t.Fatalf("counts = %v", c)
	}
	_ = trace
}

func TestSessionHolistic(t *testing.T) {
	op := mustOp(t, SessionHol, Config{SessionGapMs: 10})
	src := &fixedSource{items: []eventgen.Item{
		ev(0, 1), ev(2, 1), wm(100),
	}}
	trace := Generate(src, op)
	c := opCounts(trace)
	if c[kv.OpMerge] != 2 || c[kv.OpPut] != 0 || c[kv.OpFGet] != 1 || c[kv.OpDelete] != 1 {
		t.Fatalf("counts = %v", c)
	}
	_ = trace
}

func TestWindowJoin(t *testing.T) {
	op := mustOp(t, TumblingJoin, Config{WindowLengthMs: 10})
	mkEv := func(t int64, key uint64, stream uint8) eventgen.Item {
		return eventgen.Item{Kind: eventgen.ItemEvent, Event: eventgen.Event{Time: t, Key: key, Size: 10, Stream: stream}}
	}
	src := &fixedSource{items: []eventgen.Item{
		mkEv(1, 1, 0), mkEv(2, 1, 1), mkEv(3, 1, 0), wm(10),
	}}
	trace := Generate(src, op)
	c := opCounts(trace)
	// 3 merges buffering; both sides' buckets fire: 2 fgets + 2 deletes.
	if c[kv.OpMerge] != 3 || c[kv.OpFGet] != 2 || c[kv.OpDelete] != 2 {
		t.Fatalf("counts = %v", c)
	}
	// The two streams' buckets must be distinct state keys.
	if trace[0].Key == trace[1].Key {
		t.Fatal("streams share a bucket")
	}
}

func TestIntervalJoin(t *testing.T) {
	op := mustOp(t, IntervalJoin, Config{IntervalLowerMs: 5, IntervalUpperMs: 10})
	mkEv := func(t int64, key uint64, stream uint8) eventgen.Item {
		return eventgen.Item{Kind: eventgen.ItemEvent, Event: eventgen.Event{Time: t, Key: key, Size: 10, Stream: stream}}
	}
	src := &fixedSource{items: []eventgen.Item{
		mkEv(1, 1, 0), mkEv(3, 1, 1), wm(20),
	}}
	trace := Generate(src, op)
	c := opCounts(trace)
	// Each event: put (buffer) + get (probe); each expires: delete.
	if c[kv.OpPut] != 2 || c[kv.OpGet] != 2 || c[kv.OpDelete] != 2 {
		t.Fatalf("counts = %v", c)
	}
	if op.Stats().ActiveMachines != 0 {
		t.Fatal("interval join leaked buffered events")
	}
}

func TestContinuousJoin(t *testing.T) {
	op := mustOp(t, ContinJoin, Config{})
	start := eventgen.Item{Kind: eventgen.ItemEvent, Event: eventgen.Event{Time: 1, Key: 9, Size: 32, Kind: eventgen.KindStart, Stream: 1}}
	probe1 := ev(2, 9)
	probe2 := ev(3, 9)
	probeMiss := ev(4, 55) // no open interval: get only
	end := eventgen.Item{Kind: eventgen.ItemEvent, Event: eventgen.Event{Time: 5, Key: 9, Kind: eventgen.KindEnd, Stream: 1}}
	probeAfter := ev(6, 9) // interval closed: get only
	src := &fixedSource{items: []eventgen.Item{start, probe1, probe2, probeMiss, end, probeAfter}}
	trace := Generate(src, op)
	c := opCounts(trace)
	// put(start) + 4 gets (probes) + 2 merges (matched probes)
	// + fget+delete (accumulator) + delete (build record).
	if c[kv.OpPut] != 1 || c[kv.OpGet] != 4 || c[kv.OpMerge] != 2 || c[kv.OpDelete] != 2 || c[kv.OpFGet] != 1 {
		t.Fatalf("counts = %v", c)
	}
	if op.Stats().ActiveMachines != 0 {
		t.Fatal("continuous join leaked machines")
	}
	// End without start is a no-op.
	op2 := mustOp(t, ContinJoin, Config{})
	endOnly := eventgen.Item{Kind: eventgen.ItemEvent, Event: eventgen.Event{Time: 1, Key: 3, Kind: eventgen.KindEnd}}
	if n := len(Generate(&fixedSource{items: []eventgen.Item{endOnly}}, op2)); n != 0 {
		t.Fatalf("end-only trace len = %d", n)
	}
}

func TestAssignedWindows(t *testing.T) {
	// t=100, len=50, slide=10: starts 100,90,80,70,60.
	ws := assignedWindows(nil, 100, 50, 10)
	if len(ws) != 5 || ws[0] != 100 || ws[4] != 60 {
		t.Fatalf("windows = %v", ws)
	}
	// Tumbling: one window.
	ws = assignedWindows(ws[:0], 17, 10, 10)
	if len(ws) != 1 || ws[0] != 10 {
		t.Fatalf("tumbling windows = %v", ws)
	}
	// Clamp at zero.
	ws = assignedWindows(ws[:0], 3, 50, 10)
	if len(ws) != 1 || ws[0] != 0 {
		t.Fatalf("early windows = %v", ws)
	}
}

func TestDriveWithGeneratedStream(t *testing.T) {
	// End-to-end: synthetic source through a sliding window; invariants
	// on the resulting trace.
	gen, err := eventgen.NewSynthetic(eventgen.Config{Events: 5000, Keys: 20, Seed: 1, RatePerSec: 1000})
	if err != nil {
		t.Fatal(err)
	}
	src := eventgen.WithWatermarks(gen, 100, 0)
	op := mustOp(t, SlidingIncr, Config{WindowLengthMs: 5000, WindowSlideMs: 1000})
	trace := Generate(src, op)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	c := opCounts(trace)
	// Every fired window pairs FGet with Delete.
	if c[kv.OpFGet] != c[kv.OpDelete] {
		t.Fatalf("fget %d != delete %d", c[kv.OpFGet], c[kv.OpDelete])
	}
	// Incremental windows: same number of gets and puts.
	if c[kv.OpGet] != c[kv.OpPut] {
		t.Fatalf("get %d != put %d", c[kv.OpGet], c[kv.OpPut])
	}
	// The closing watermark must fire all windows.
	if op.Stats().ActiveMachines != 0 {
		t.Fatalf("machines alive at end: %d", op.Stats().ActiveMachines)
	}
	// Event amplification ~ 2 * length/slide for sliding incremental.
	amp := float64(len(trace)) / 5000
	if amp < 5 || amp > 14 {
		t.Fatalf("amplification = %v, want ~10-12", amp)
	}
}
