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

// Online runs generate ahead of the store in fixed blocks on a bounded
// ring, so the generator's work overlaps the store calls instead of
// running between them.
const (
	// blockLen is the number of accesses handed from the generator to
	// the store side at once: one channel hand-off per 256 accesses.
	blockLen = 256
	// blockDepth is the number of recycled blocks on the ring. The
	// generator runs at most blockDepth*blockLen accesses ahead of the
	// store, which bounds what it produces past a store that fails.
	blockDepth = 3
)

// DriveAhead is DriveUntil split across two goroutines: a producer runs
// src through op on a goroutine of its own, and do receives every
// access on the caller's goroutine, in order. The producer fills blocks
// of blockLen accesses from a ring of blockDepth, so it is at most
// blockDepth*blockLen accesses ahead of do, and src and op are called
// from that one goroutine only. The first error do returns stops
// generation and is returned. DriveAhead returns only once the producer
// has exited, on every path, and then re-raises a panic of src or op on
// the caller's goroutine.
func DriveAhead(src eventgen.Source, op Operator, do func(kv.Access) error) error {
	full := make(chan []kv.Access, blockDepth)
	free := make(chan []kv.Access, blockDepth)
	for range blockDepth {
		free <- make([]kv.Access, 0, blockLen)
	}
	quit := make(chan struct{})
	var panicked any
	go func() {
		defer close(full)
		defer func() { panicked = recover() }()
		produce(src, op, full, free, quit)
	}()
	defer func() {
		close(quit)
		for range full {
			// Drop what the producer hands off until it has exited.
		}
		if panicked != nil {
			panic(panicked)
		}
	}()
	for blk := range full {
		for _, a := range blk {
			if err := do(a); err != nil {
				return err
			}
		}
		free <- blk[:0]
	}
	return nil
}

// produce runs DriveUntil into blocks taken from free and handed to
// full, until src ends or quit closes. It never touches a block after
// handing it off. Neither send blocks: the ring holds only blockDepth
// blocks and each channel has room for all of them.
func produce(src eventgen.Source, op Operator, full chan<- []kv.Access, free <-chan []kv.Access, quit <-chan struct{}) {
	blk := <-free
	emit := func(a kv.Access) {
		if blk == nil {
			return // the consumer has gone
		}
		blk = append(blk, a)
		if len(blk) == blockLen {
			full <- blk
			select {
			case blk = <-free:
			case <-quit:
				blk = nil
			}
		}
	}
	DriveUntil(src, op, emit, func() bool {
		select {
		case <-quit:
			return true
		default:
			return false
		}
	})
	if len(blk) > 0 {
		full <- blk
	}
}
