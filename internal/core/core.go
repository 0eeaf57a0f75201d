// Package core implements the Gadget benchmark harness itself — the
// paper's primary contribution. It simulates the state access logic of
// streaming operators without materializing operator state: a driver
// (Algorithm 1 in the paper) maps input events to per-state-key finite
// state machines through an hIndex (event key -> state keys) and a vIndex
// (expiration time -> state keys), and the state machines emit the state
// access stream (get/put/merge/delete tuples) that the performance
// evaluator replays against a KV store.
//
// Eleven predefined workloads cover the operators of the paper's §2.2:
// tumbling/sliding/session windows in incremental and holistic variants,
// tumbling/sliding window joins, interval and continuous joins, and
// continuous aggregation. Two scan-aware workloads (windowed top-K
// drain and range-join probe) extend the set with range-scan accesses.
// New operators implement the Operator interface (the paper's
// assignStateMachines/run/terminate extension points).
package core

import (
	"container/heap"
	"fmt"

	"gadget/internal/eventgen"
	"gadget/internal/kv"
)

// OperatorType names one of the predefined workloads.
type OperatorType string

// The eleven predefined workloads (paper §6.1).
const (
	TumblingIncr OperatorType = "tumbling-incr"
	TumblingHol  OperatorType = "tumbling-hol"
	SlidingIncr  OperatorType = "sliding-incr"
	SlidingHol   OperatorType = "sliding-hol"
	SessionIncr  OperatorType = "session-incr"
	SessionHol   OperatorType = "session-hol"
	TumblingJoin OperatorType = "tumbling-join"
	SlidingJoin  OperatorType = "sliding-join"
	IntervalJoin OperatorType = "interval-join"
	ContinJoin   OperatorType = "continuous-join"
	Aggregation  OperatorType = "aggregation"
)

// Scan-aware workloads (see scans.go): these exercise range scans over
// the store (kv.OpScan) in addition to point operations.
const (
	TopKDrain      OperatorType = "windowed-topk"
	RangeJoinProbe OperatorType = "range-join-probe"
)

// PaperOperatorTypes lists the paper's eleven workloads.
func PaperOperatorTypes() []OperatorType {
	return []OperatorType{
		TumblingIncr, TumblingHol, SlidingIncr, SlidingHol,
		SessionIncr, SessionHol, TumblingJoin, SlidingJoin,
		IntervalJoin, ContinJoin, Aggregation,
	}
}

// OperatorTypes lists all predefined workloads: the paper's eleven,
// then the two scan-aware ones.
func OperatorTypes() []OperatorType {
	return append(PaperOperatorTypes(), TopKDrain, RangeJoinProbe)
}

// IsJoin reports whether the operator consumes two input streams.
func (t OperatorType) IsJoin() bool {
	switch t {
	case TumblingJoin, SlidingJoin, IntervalJoin, ContinJoin, RangeJoinProbe:
		return true
	}
	return false
}

// Config parameterizes an operator, mirroring the paper's defaults:
// 5s windows, 1s slide, 2min session gap, interval join bounds [2min,
// 3min], watermark every 100 events.
type Config struct {
	Operator OperatorType `json:"type"`

	// WindowLengthMs is the tumbling/sliding window length (default 5000).
	WindowLengthMs int64 `json:"window_length_ms"`
	// WindowSlideMs is the sliding window slide (default 1000).
	WindowSlideMs int64 `json:"window_slide_ms"`
	// SessionGapMs is the session window inactivity gap (default 120000).
	SessionGapMs int64 `json:"session_gap_ms"`
	// IntervalLowerMs/IntervalUpperMs bound the interval join (defaults
	// 120000 and 180000).
	IntervalLowerMs int64 `json:"interval_lower_ms"`
	IntervalUpperMs int64 `json:"interval_upper_ms"`
	// AllowedLatenessMs extends window lifetime past the watermark.
	AllowedLatenessMs int64 `json:"allowed_lateness_ms"`
	// AggStateSize is the byte size of incremental aggregates (default 16).
	AggStateSize uint32 `json:"agg_state_size"`
}

func (c Config) withDefaults() Config {
	if c.WindowLengthMs <= 0 {
		c.WindowLengthMs = 5000
	}
	if c.WindowSlideMs <= 0 {
		c.WindowSlideMs = 1000
	}
	if c.SessionGapMs <= 0 {
		c.SessionGapMs = 120000
	}
	if c.IntervalLowerMs <= 0 {
		c.IntervalLowerMs = 120000
	}
	if c.IntervalUpperMs <= 0 {
		c.IntervalUpperMs = 180000
	}
	if c.AggStateSize == 0 {
		c.AggStateSize = 16
	}
	return c
}

// Emit receives each generated state access in order.
type Emit func(kv.Access)

// Operator simulates one streaming operator's state access logic. The
// driver feeds it events and watermarks; it emits state accesses.
type Operator interface {
	// Type returns the operator's workload type.
	Type() OperatorType
	// OnEvent processes one input event (assignStateMachines + run in
	// the paper's Algorithm 1).
	OnEvent(e eventgen.Event, emit Emit)
	// OnWatermark advances event time, firing and terminating expired
	// state machines (Algorithm 1's onWatermark).
	OnWatermark(wm int64, emit Emit)
	// Stats reports counters accumulated since construction.
	Stats() Stats
}

// Stats counts driver-level activity.
type Stats struct {
	Events         uint64
	LateDropped    uint64
	WindowsFired   uint64
	SessionMerges  uint64
	ActiveMachines int
}

// New constructs one of the predefined operators.
func New(cfg Config) (Operator, error) {
	c := cfg.withDefaults()
	switch c.Operator {
	case TumblingIncr:
		return newWindowOp(c, false, c.WindowLengthMs, c.WindowLengthMs), nil
	case TumblingHol:
		return newWindowOp(c, true, c.WindowLengthMs, c.WindowLengthMs), nil
	case SlidingIncr:
		return newWindowOp(c, false, c.WindowLengthMs, c.WindowSlideMs), nil
	case SlidingHol:
		return newWindowOp(c, true, c.WindowLengthMs, c.WindowSlideMs), nil
	case SessionIncr:
		return newSessionOp(c, false), nil
	case SessionHol:
		return newSessionOp(c, true), nil
	case TumblingJoin:
		return newWindowJoinOp(c, c.WindowLengthMs, c.WindowLengthMs), nil
	case SlidingJoin:
		return newWindowJoinOp(c, c.WindowLengthMs, c.WindowSlideMs), nil
	case IntervalJoin:
		return newIntervalJoinOp(c), nil
	case ContinJoin:
		return newContinuousJoinOp(c), nil
	case Aggregation:
		return newAggregationOp(c), nil
	case TopKDrain:
		return newTopKOp(c), nil
	case RangeJoinProbe:
		return newRangeJoinOp(c), nil
	default:
		return nil, fmt.Errorf("core: unknown operator %q", cfg.Operator)
	}
}

// machine is the metadata the driver keeps per state key — enough to
// regenerate accurate accesses without materializing operator state
// (paper §5.2: "it does not generate the actual operator state").
type machine struct {
	key      kv.StateKey
	expireAt int64
	elements int
	bytes    uint32
	// aux distinguishes per-stream buckets in window joins and session
	// bounds in session windows.
	sessionStart int64
	sessionEnd   int64
	sides        [2]int
}

// vIndex maps expiration times to state keys (a min-heap with lazy
// invalidation: entries whose machine moved its expiry are skipped).
type vIndex struct {
	h expHeap
}

type expEntry struct {
	at  int64
	key kv.StateKey
}

type expHeap []expEntry

func (h expHeap) Len() int            { return len(h) }
func (h expHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h expHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *expHeap) Push(x interface{}) { *h = append(*h, x.(expEntry)) }
func (h *expHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (v *vIndex) add(at int64, key kv.StateKey) {
	heap.Push(&v.h, expEntry{at: at, key: key})
}

// drain pops every entry with at <= wm, calling fire for entries that
// still match their machine's current expiry (stale entries are skipped).
func (v *vIndex) drain(wm int64, machines map[kv.StateKey]*machine, fire func(*machine)) {
	for len(v.h) > 0 && v.h[0].at <= wm {
		e := heap.Pop(&v.h).(expEntry)
		m, ok := machines[e.key]
		if !ok || m.expireAt != e.at {
			continue // terminated or re-registered with a later expiry
		}
		fire(m)
	}
}

// driver bundles the shared state every built-in operator uses.
type driver struct {
	cfg       Config
	machines  map[kv.StateKey]*machine
	vindex    vIndex
	watermark int64
	stats     Stats
}

func newDriver(cfg Config) driver {
	return driver{cfg: cfg, machines: make(map[kv.StateKey]*machine), watermark: -1}
}

func (d *driver) Stats() Stats {
	s := d.stats
	s.ActiveMachines = len(d.machines)
	return s
}

// getMachine returns the machine for key, creating it if needed.
func (d *driver) getMachine(key kv.StateKey, expireAt int64) (*machine, bool) {
	if m, ok := d.machines[key]; ok {
		return m, false
	}
	m := &machine{key: key, expireAt: expireAt}
	d.machines[key] = m
	if expireAt >= 0 {
		d.vindex.add(expireAt, key)
	}
	return m, true
}

// terminate removes a machine from both indexes (lazily from vIndex).
func (d *driver) terminate(m *machine) {
	delete(d.machines, m.key)
}
