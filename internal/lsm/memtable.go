package lsm

import (
	"bytes"
	"time"

	"gadget/internal/skiplist"
)

// memtable is an in-memory write buffer of internal-key entries. Entries
// are unique (the sequence number is part of the key), so the skiplist's
// overwrite semantics are never exercised.
type memtable struct {
	sl *skiplist.List
	// filter admits every user key with an entry in sl (see memFilter).
	filter    memFilter
	createdAt time.Time
	// earliestTombstone is the wall-clock time the first delete was
	// buffered, used by the Lethe delete-aware compaction picker.
	earliestTombstone time.Time
	deletes           int
	merges            int
}

// newMemtable returns an empty write buffer whose filter is sized for
// the flush threshold memtableSize.
func newMemtable(memtableSize int64) *memtable {
	return &memtable{sl: skiplist.New(), filter: newMemFilter(memtableSize), createdAt: time.Now()}
}

// add is the only way entries enter a memtable (writes and WAL replay
// alike), so the filter can never miss a key the skiplist holds.
func (m *memtable) add(ikey, value []byte, kind byte) {
	m.sl.Put(ikey, value)
	m.filter.add(memHash(ikeyUserPrefix(ikey)))
	switch kind {
	case kindDelete:
		if m.deletes == 0 {
			m.earliestTombstone = time.Now()
		}
		m.deletes++
	case kindMerge:
		m.merges++
	}
}

func (m *memtable) approxBytes() int64 { return m.sl.ApproxBytes() }
func (m *memtable) len() int           { return m.sl.Len() }

// lookupResult is the outcome of probing one layer of the store for a
// user key while resolving a read.
type lookupResult int

const (
	lookupMissing  lookupResult = iota // key not present in this layer
	lookupFound                        // base value found (resolution done)
	lookupDeleted                      // tombstone found (resolution done)
	lookupContinue                     // merge operands found; keep descending
)

// get probes the memtable for the user key whose lookup key is lk, the
// caller having checked the filter. Merge operands discovered on the way
// down (newest first) are appended to *operands. When the newest visible
// entry chain resolves inside this memtable, it returns lookupFound with
// the base value or lookupDeleted.
func (m *memtable) get(lk []byte, operands *[][]byte) ([]byte, lookupResult) {
	prefix := ikeyUserPrefix(lk)
	it := m.sl.Iter()
	it.SeekGE(lk)
	res := lookupMissing
	for ; it.Valid(); it.Next() {
		ik := it.Key()
		if !bytes.HasPrefix(ik, prefix) || len(ik) != len(prefix)+trailerLen {
			break
		}
		kind := ik[len(ik)-1]
		switch kind {
		case kindPut:
			return it.Value(), lookupFound
		case kindDelete:
			return nil, lookupDeleted
		case kindMerge:
			*operands = append(*operands, it.Value())
			res = lookupContinue
		}
	}
	return nil, res
}
