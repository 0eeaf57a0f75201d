package gadget

import (
	"gadget/internal/config"
	"gadget/internal/core"
	"gadget/internal/eventgen"
	"gadget/internal/replay"
)

// Custom operator support — the paper's §5.4 extension API. A user
// operator implements Operator: it receives events and watermarks and
// emits state accesses; the harness drives it exactly like the built-in
// workloads.

// Operator is the streaming-operator simulation interface. Built-in
// operators come from NewOperator; custom operators implement it
// directly (typically ~30 lines: a state-machine switch in OnEvent plus
// cleanup in OnWatermark).
type Operator = core.Operator

// EmitFunc receives each generated state access in order.
type EmitFunc = core.Emit

// NewOperator constructs one of the thirteen predefined operators.
func NewOperator(cfg OperatorConfig) (Operator, error) { return core.New(cfg) }

// NewEventSource builds an event source from a source configuration.
// twoStream selects a merged two-input source for join-style operators.
func NewEventSource(sc SourceConfig, twoStream bool) (EventSource, error) {
	return config.BuildEventSource(sc, twoStream)
}

// Drive pulls src to exhaustion through op, passing every state access
// to emit — the raw harness loop (paper Algorithm 1) for custom setups.
func Drive(src EventSource, op Operator, emit EmitFunc) {
	core.DriveUntil(src, op, emit, nil)
}

// GenerateCustom materializes the state access stream of a custom
// operator over src (offline mode).
func GenerateCustom(src EventSource, op Operator) []Access {
	return core.Generate(src, op)
}

// RunCustomOnline drives a custom operator over src, issuing every state
// access to store and measuring latency and throughput (online mode).
// src and op are called from one goroutine that is not the caller's,
// never concurrently, a bounded few blocks of accesses ahead of the
// store. A panic in either is raised again on the goroutine that issues
// the store calls: the caller's, unless StallTimeout is set.
// With ReplayOptions.StallTimeout set, a stalled run returns its partial
// Result (Degraded=true) with ErrStalled instead of hanging.
func RunCustomOnline(src EventSource, op Operator, store Store, opts ReplayOptions) (Result, error) {
	res, err := replay.Drive([]Store{store}, opts, func(_ int, c *replay.Collector) error {
		return online(src, op, c)
	})
	if len(res) == 0 {
		return Result{}, err
	}
	return res[0], err
}

// online issues every state access op produces over src to c. The
// generator runs a bounded few blocks ahead on a goroutine of its own
// (core.DriveAhead), so the calling goroutine does only the store calls
// and their measurement; generation stops once c gives up on a failing
// store.
func online(src EventSource, op Operator, c *replay.Collector) error {
	return core.DriveAhead(src, op, c.Do)
}

// Watermark items and event kinds, re-exported for custom sources and
// operators.
const (
	// KindRecord tags ordinary events.
	KindRecord = eventgen.KindRecord
	// KindStart opens a validity interval (continuous joins).
	KindStart = eventgen.KindStart
	// KindEnd closes a validity interval.
	KindEnd = eventgen.KindEnd
)

// PartitionSource splits a source into n key-disjoint sub-streams
// (watermarks broadcast), modelling the data-parallel task model of the
// paper's §2.1: each task processes a disjoint key partition with its
// own state store. The source is drained eagerly.
func PartitionSource(src EventSource, n int) []EventSource {
	parts := eventgen.Partition(src, n)
	out := make([]EventSource, len(parts))
	for i, p := range parts {
		out[i] = p
	}
	return out
}
