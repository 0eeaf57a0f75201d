package lsm

import (
	"gadget/internal/kv"
)

// MVCC snapshots. A snapshot pins the structures that can serve its
// view: the current sequence number, the active memtable pointer, the
// immutable memtable list, and a referenced copy of every live table.
// Nothing is frozen or copied — memtables are insert-only, so writes
// after the snapshot only add entries with higher sequences, which the
// rangeIter's seq filter hides (a newer version of a key takes over the
// skiplist node of the version before it, which moves one step back: an
// iterator parked there meets the newer one first and skips it, see
// skiplist.List.Add); tables flushed or compacted afterwards
// never enter the snapshot's file set, and its referenced inputs stay
// open (and on disk) until the snapshot releases them. Reads take the
// DB lock per operation, so writers keep making progress between
// iterator steps. A snapshot even survives DB.Close: the fallback keeps
// the pinned table handles open until the snapshot itself is closed.
type lsmSnapshot struct {
	db     *DB
	seq    uint64
	mems   []*memtable // active memtable at snapshot time + immutables
	files  []*fileMeta // referenced; released on Close
	closed bool        // guarded by db.mu
}

var _ kv.Snapshot = (*lsmSnapshot)(nil)

// Snapshot implements kv.Snapshotter.
func (db *DB) Snapshot() (kv.Snapshot, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, kv.ErrClosed
	}
	sn := &lsmSnapshot{
		db:   db,
		seq:  db.seq,
		mems: append([]*memtable{db.mem}, db.imm...),
	}
	for _, lvl := range db.version.levels {
		for _, fm := range lvl {
			fm.ref()
			sn.files = append(sn.files, fm)
		}
	}
	db.snapshots.Add(1)
	return sn, nil
}

// Get implements kv.Snapshot via a bounded single-key scan, resolving
// merges and tombstones at or below the snapshot sequence.
func (sn *lsmSnapshot) Get(key []byte) ([]byte, error) {
	sn.db.mu.RLock()
	defer sn.db.mu.RUnlock()
	if sn.closed {
		return nil, kv.ErrClosed
	}
	it := newRangeIter(sn.mems, sn.files, key, key, sn.seq)
	if it.nextLocked() {
		return it.outVal, nil
	}
	return nil, kv.ErrNotFound
}

// Iter implements kv.Snapshot.
func (sn *lsmSnapshot) Iter(lo, hi kv.StateKey) kv.Iterator {
	it := &lsmIter{sn: sn}
	sn.db.mu.RLock()
	defer sn.db.mu.RUnlock()
	if sn.closed {
		it.err = kv.ErrClosed
	} else if !hi.Less(lo) {
		it.ri = newRangeIter(sn.mems, sn.files, lo.Bytes(), hi.Bytes(), sn.seq)
	}
	return it
}

// Close releases the snapshot's table references. Obsolete tables the
// snapshot was the last owner of are uncached and deleted here.
func (sn *lsmSnapshot) Close() error {
	sn.db.mu.Lock()
	if sn.closed {
		sn.db.mu.Unlock()
		return nil
	}
	sn.closed = true
	files := sn.files
	sn.files = nil
	sn.mems = nil
	sn.db.mu.Unlock()
	var firstErr error
	for _, fm := range files {
		if err := fm.unref(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// lsmIter adapts a rangeIter to kv.Iterator, taking the DB read lock
// per step and surfacing only StateKey-encoded user keys.
type lsmIter struct {
	sn   *lsmSnapshot
	ri   *rangeIter // nil for an inverted range
	key  kv.StateKey
	val  []byte
	done bool
	err  error
}

func (it *lsmIter) Next() bool {
	if it.done || it.err != nil || it.ri == nil {
		return false
	}
	it.sn.db.mu.RLock()
	defer it.sn.db.mu.RUnlock()
	if it.sn.closed {
		it.err = kv.ErrClosed
		return false
	}
	for it.ri.nextLocked() {
		it.sn.db.iterOps.Add(1)
		sk, err := kv.DecodeStateKey(it.ri.outKey)
		if err != nil {
			continue // non-StateKey keyspace is not scannable
		}
		it.key = sk
		it.val = it.ri.outVal
		return true
	}
	it.done = true
	return false
}

func (it *lsmIter) Key() kv.StateKey { return it.key }
func (it *lsmIter) Value() []byte    { return it.val }
func (it *lsmIter) Err() error       { return it.err }
func (it *lsmIter) Close() error     { it.done = true; return nil }
