package lsm

import (
	"bytes"
	"container/heap"
	"encoding/binary"

	"gadget/internal/kv"
)

// internalIter is the common surface of memtable and table iterators.
type internalIter interface {
	Valid() bool
	Next()
	Key() []byte
	Value() []byte
}

// scanHeap merge-sorts internal iterators by internal key. Internal keys
// are unique, so no tie-breaking is needed.
type scanHeap []internalIter

func (h scanHeap) Len() int            { return len(h) }
func (h scanHeap) Less(i, j int) bool  { return bytes.Compare(h[i].Key(), h[j].Key()) < 0 }
func (h scanHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scanHeap) Push(x interface{}) { *h = append(*h, x.(internalIter)) }
func (h *scanHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// rangeIter is a pull-style merge iterator over a set of memtables and
// tables: it resolves one live user key per nextLocked call (merges
// applied newest-last, tombstones and shadowed entries skipped),
// restricted to raw user keys in [lo, hi] (hi inclusive; nil hiFence =
// unbounded) and to entries with sequence <= maxSeq. The seq filter is
// what makes a pinned memtable set read as of snapshot time: memtables
// are insert-only, so entries written after the snapshot merely carry
// higher sequences.
//
// The caller owns locking: every nextLocked call must run under the
// DB's lock (the active memtable may receive inserts between calls).
// Such an insert can make the Key() of the active memtable's iterator
// smaller while it sits in the heap — a newer version of the user key it
// is parked on — but never past another source's key: the other sources
// are older and hold only lower sequences of that user key, so the heap
// order stands (skiplist.List.Add has the argument).
type rangeIter struct {
	h       scanHeap
	hiFence []byte // escaped prefix of hi; nil = unbounded
	maxSeq  uint64

	// Per-user-key resolution state.
	curPrefix []byte
	operands  [][]byte // newest first
	base      []byte
	resolved  bool
	haveKey   bool

	outKey []byte
	outVal []byte
	done   bool
}

// newRangeIter seeks every source to lo (nil = first key) and builds the
// merge heap. hi bounds the scan by raw user key, inclusive; nil means
// unbounded.
func newRangeIter(mems []*memtable, files []*fileMeta, lo, hi []byte, maxSeq uint64) *rangeIter {
	it := &rangeIter{maxSeq: maxSeq}
	if hi != nil {
		it.hiFence = appendEscaped(nil, hi)
	}
	var seek []byte
	if lo != nil {
		seek = appendLookupKey(nil, lo)
	}
	add := func(s internalIter) {
		if s.Valid() {
			it.h = append(it.h, s)
		}
	}
	for _, m := range mems {
		si := m.sl.Iter()
		if seek != nil {
			si.SeekGE(seek)
		} else {
			si.First()
		}
		add(&si)
	}
	for _, fm := range files {
		ti := fm.reader.Iter()
		if seek != nil {
			ti.SeekGE(seek)
		} else {
			ti.First()
		}
		add(&ti)
	}
	heap.Init(&it.h)
	return it
}

// emitPending resolves the buffered user-key group into outKey/outVal,
// reporting whether the key is live. State is reset either way.
func (it *rangeIter) emitPending() bool {
	defer func() {
		it.operands = it.operands[:0]
		it.base = nil
		it.resolved = false
		it.haveKey = false
	}()
	if !it.haveKey {
		return false
	}
	if !it.resolved && len(it.operands) == 0 {
		return false // only too-new or shadowed entries: nothing live
	}
	if it.resolved && it.base == nil && len(it.operands) == 0 {
		return false // newest visible entry was a tombstone
	}
	userKey, _, err := decodeEscaped(it.curPrefix)
	if err != nil {
		return false
	}
	it.outKey = userKey
	it.outVal = combineMerge(it.base, it.operands)
	return true
}

// nextLocked advances to the next live user key in range. The caller
// must hold the DB lock (read or write) across the call.
func (it *rangeIter) nextLocked() bool {
	if it.done {
		return false
	}
	for len(it.h) > 0 {
		top := it.h[0]
		ikey := top.Key()
		prefix := ikeyUserPrefix(ikey)
		if it.hiFence != nil && bytes.Compare(prefix, it.hiFence) > 0 {
			// The heap yields ascending prefixes: nothing further is in
			// range. Escaped-prefix order equals raw-key order, so the
			// fence comparison is exact.
			it.done = true
			return it.emitPending()
		}
		if it.haveKey && !bytes.Equal(prefix, it.curPrefix) {
			if it.emitPending() {
				// top is the first entry of the NEXT group and stays in
				// the heap; the next call resumes with it.
				return true
			}
			// Dead group discarded; fall through to start a new one.
		}
		it.haveKey = true
		it.curPrefix = append(it.curPrefix[:0], prefix...)
		trailer := ikey[len(ikey)-trailerLen:]
		seq := ^binary.BigEndian.Uint64(trailer[:8])
		if seq <= it.maxSeq && !it.resolved {
			switch trailer[8] {
			case kindPut:
				it.base = append([]byte(nil), top.Value()...)
				it.resolved = true
			case kindDelete:
				it.resolved = true
				if len(it.operands) > 0 {
					// Merges above a tombstone resolve against an empty
					// base; mark it as a live (possibly empty) value.
					it.base = []byte{}
				} else {
					it.base = nil
				}
			case kindMerge:
				it.operands = append(it.operands, append([]byte(nil), top.Value()...))
			}
		}
		top.Next()
		if top.Valid() {
			heap.Fix(&it.h, 0)
		} else {
			heap.Pop(&it.h)
		}
	}
	it.done = true
	return it.emitPending()
}

// Scan calls fn for every live user key in ascending order with its
// fully resolved value (merges applied, tombstones skipped) until fn
// returns false. The iteration observes a consistent point-in-time view:
// the database is read-locked for the duration of the scan.
func (db *DB) Scan(fn func(key, value []byte) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return kv.ErrClosed
	}
	mems := append([]*memtable{db.mem}, db.imm...)
	var files []*fileMeta
	for _, lvl := range db.version.levels {
		files = append(files, lvl...)
	}
	it := newRangeIter(mems, files, nil, nil, ^uint64(0))
	for it.nextLocked() {
		if !fn(it.outKey, it.outVal) {
			return nil
		}
	}
	return nil
}
