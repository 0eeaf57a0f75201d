package lsm

import (
	"bytes"
	"encoding/binary"
	"time"

	"gadget/internal/skiplist"
)

// memtable is an in-memory write buffer of internal-key entries: a
// skiplist.List whose groups are escaped user keys, so that the list's
// exact index leads from memHash(user key) to the key's newest version.
// The index and the list's arena are memory, not flush-threshold charge:
// approxBytes stays len(ikey)+len(value)+48 per entry.
type memtable struct {
	sl        *skiplist.List
	createdAt time.Time
	// earliestTombstone is the wall-clock time the first delete was
	// buffered, used by the Lethe delete-aware compaction picker.
	earliestTombstone time.Time
	deletes           int
	merges            int
}

func newMemtable() *memtable {
	return &memtable{sl: skiplist.New(trailerLen), createdAt: time.Now()}
}

// memHash hashes an escaped user key for the memtable index: eight bytes
// a step with a multiply-xorshift mix, finished with an avalanche so
// that the half the index uses depends on every input byte. Nothing is
// persisted, so the hash is free to differ from the tables'. It is
// deterministic, so the memfilter counters repeat exactly for a seed.
func memHash(b []byte) uint64 {
	const m = 0x9E3779B97F4A7C15
	h := uint64(len(b)) * m
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * m
		h ^= h >> 32
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * uint(i))
		}
		h = (h ^ tail) * m
		h ^= h >> 32
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// add is the only way entries enter a memtable (writes and WAL replay
// alike), so the index can never miss a key the skiplist holds. The
// list copies ikey and value. Sequences only grow, which is what lets
// the list link a newer version of a resident key without a search; see
// skiplist.List.Add for why snapshot iterators parked on the active
// memtable stay correct.
func (m *memtable) add(ikey, value []byte, kind byte) {
	m.sl.Add(ikey, value, memHash(ikeyUserPrefix(ikey)))
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

// get probes the memtable for the user key whose lookup key is lk and
// whose memHash is h: the index leads to the key's newest entry, and the
// older ones follow it at level 0. Merge operands discovered on the way
// down (newest first) are appended to *operands. When the newest visible
// entry chain resolves inside this memtable, it returns lookupFound with
// the base value or lookupDeleted; lookupMissing means the memtable has
// no entry for the key.
func (m *memtable) get(lk []byte, h uint64, operands *[][]byte) ([]byte, lookupResult) {
	prefix := ikeyUserPrefix(lk)
	it := m.sl.Iter()
	if !it.SeekGroup(prefix, h) {
		return nil, lookupMissing
	}
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
