package core

import (
	"gadget/internal/eventgen"
	"gadget/internal/kv"
)

// DriveUntil is the paper's Algorithm 1: it pulls the source, assigning
// events to state machines (OnEvent) and terminating expired machines
// on watermarks (OnWatermark). Every state access the operator produces
// is passed to emit in order. In online mode emit applies the access to
// a live store; in offline mode it appends to a trace. It runs until the
// source is exhausted or stop, checked between source items, returns
// true; a nil stop runs to the end. Online runners use stop to halt
// event generation when the store has started failing instead of
// grinding through the rest of the workload.
func DriveUntil(src eventgen.Source, op Operator, emit Emit, stop func() bool) {
	for stop == nil || !stop() {
		it, ok := src.Next()
		if !ok {
			return
		}
		switch it.Kind {
		case eventgen.ItemEvent:
			op.OnEvent(it.Event, emit)
		case eventgen.ItemWatermark:
			op.OnWatermark(it.WM, emit)
		}
	}
}

// Generate runs DriveUntil to the end in offline mode, materializing the
// state access stream.
func Generate(src eventgen.Source, op Operator) []kv.Access {
	var out []kv.Access
	DriveUntil(src, op, func(a kv.Access) { out = append(out, a) }, nil)
	return out
}
