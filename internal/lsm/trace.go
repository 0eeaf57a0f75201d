package lsm

import (
	"fmt"

	"gadget/internal/kv"
	"gadget/internal/tracing"
)

var _ kv.Traceable = (*DB)(nil)

// enginePhases sums the LSM's refined engine stages on tc, used to
// compute how much of a traced call was explicitly attributed.
func enginePhases(tc *tracing.Ctx) int64 {
	return tc.Dur(tracing.StageEngineMem) +
		tc.Dur(tracing.StageEngineSST) +
		tc.Dur(tracing.StageEngineWAL)
}

// DoTraced implements kv.Traceable: operations behave exactly like the
// plain Store calls, with engine-internal phases attributed — memtable
// probe/insert (StageEngineMem), SSTable reads (StageEngineSST), WAL
// append/fsync (StageEngineWAL) — and everything else the call spent
// (locking, merge folding, waits for the worker, scans) charged to
// StageEngine so the stage sum still covers the whole call.
func (db *DB) DoTraced(tc *tracing.Ctx, op kv.TracedOp) (kv.TracedResult, error) {
	t0 := tc.Now()
	pre := enginePhases(tc)
	var res kv.TracedResult
	var err error
	switch op.Op {
	case kv.OpGet, kv.OpFGet:
		res.Val, err = db.get(op.Key, tc)
	case kv.OpPut:
		err = db.write(op.Key, op.Val, kindPut, tc)
	case kv.OpMerge:
		err = db.write(op.Key, op.Val, kindMerge, tc)
	case kv.OpDelete:
		err = db.write(op.Key, nil, kindDelete, tc)
	case kv.OpScan:
		res.Entries, err = kv.ScanRange(db, op.Lo, op.Hi)
	default:
		return kv.TracedResult{}, fmt.Errorf("lsm: traced dispatch: unsupported op %v", op.Op)
	}
	explicit := enginePhases(tc) - pre
	tc.Add(tracing.StageEngine, tc.Now()-t0-explicit)
	return res, err
}
