package kv

import (
	"fmt"

	"gadget/internal/tracing"
)

// TracedOp describes one operation: a uniform envelope so a single
// method covers the whole Store vocabulary. Fields an operation does not
// use are ignored.
type TracedOp struct {
	// Op selects the operation.
	Op Op
	// Key is the encoded key for point operations.
	Key []byte
	// Val is the value (OpPut) or merge operand (OpMerge).
	Val []byte
	// Lo, Hi are the scan bounds for OpScan.
	Lo, Hi StateKey
}

// TracedResult carries the result of an operation: Val for point reads,
// Entries for scans.
type TracedResult struct {
	Val     []byte
	Entries []Entry
}

// Traceable is the single op entry point of a store that can attribute
// its internal phases to a tracing.Ctx: engines, middleware, remote
// clients. tc may be nil — every Ctx method is a no-op on nil (Now reads
// no clock, Add adds nothing) — so one DoTraced body serves sampled and
// unsampled operations alike, and a wrapper's Get/Put/Merge/Delete/
// ScanRange are sugar over DoTraced(nil, op). Whatever tc is, DoTraced
// behaves exactly like the corresponding Store call; with a Ctx it also
// stamps the stages the layer adds. Implementations that wrap an inner
// store descend with DoTraced(inner, tc, op) so attribution composes
// through middleware stacks.
type Traceable interface {
	DoTraced(tc *tracing.Ctx, op TracedOp) (TracedResult, error)
}

// DoTraced dispatches op against s: the one way an operation enters a
// store, sampled or not. A sampled op takes s's Traceable path when
// implemented. Otherwise — an unsampled op, or an opaque leaf (memstore,
// the B+Tree, ...) — it is the plain Store call bracketed by the
// Ctx: with one, the whole inner duration goes to StageEngine, so the
// leaf still accounts in the stage sum; with none, the bracket is two
// inlined nil checks, so an unsampled op pays no interface assertion,
// clock read or allocation. It is one body filling its result in place,
// not a call to a helper returning one: TracedOp and TracedResult are
// wider than Go passes in registers, and each frame that hands them on
// costs an unsampled op about 10 ns.
func DoTraced(s Store, tc *tracing.Ctx, op TracedOp) (res TracedResult, err error) {
	if tc != nil {
		if t, ok := s.(Traceable); ok {
			return t.DoTraced(tc, op)
		}
	}
	t0 := tc.Now()
	switch op.Op {
	case OpGet, OpFGet:
		res.Val, err = s.Get(op.Key)
	case OpPut:
		err = s.Put(op.Key, op.Val)
	case OpMerge:
		err = s.Merge(op.Key, op.Val)
	case OpDelete:
		err = s.Delete(op.Key)
	case OpScan:
		res.Entries, err = ScanRange(s, op.Lo, op.Hi)
	default:
		err = fmt.Errorf("kv: dispatch: unsupported op %v", op.Op)
	}
	tc.Add(tracing.StageEngine, tc.Now()-t0)
	return res, err
}
