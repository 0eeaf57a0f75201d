package kv

import (
	"errors"
	"sort"
	"sync/atomic"
)

// This file defines the snapshot-and-iterator surface of the store API:
// consistent point-in-time reads and ordered range scans over the
// StateKey-encoded keyspace. Engines with a naturally ordered,
// versionable structure (LSM, B+Tree) implement Snapshotter natively;
// hash-shaped engines (FASTER) and the remote client satisfy it through
// the shared stop-the-world FallbackSnapshot so every registered engine
// supports the same API.

// MaxStateKey is the largest possible StateKey; {k.Group, MaxSub} is the
// inclusive upper bound of key group k.
var MaxStateKey = StateKey{Group: ^uint64(0), Sub: ^uint64(0)}

// MaxSub is the largest Sub value; see MaxStateKey.
const MaxSub = ^uint64(0)

// GroupEnd returns the last key of k's group, the inclusive upper bound
// of an OpScan starting at k.
func (k StateKey) GroupEnd() StateKey { return StateKey{Group: k.Group, Sub: MaxSub} }

// Iterator walks a set of entries in ascending StateKey order. The usual
// loop is:
//
//	for it.Next() {
//		use(it.Key(), it.Value())
//	}
//	if err := it.Err(); err != nil { ... }
//	it.Close()
//
// Key and Value are only valid until the next call to Next; Value's
// backing array must not be modified. Iterators surface only entries
// whose raw key decodes as a 16-byte StateKey — entries stored under
// other keys (legacy byte-string keys) are skipped, not errors.
type Iterator interface {
	// Next advances to the next entry, reporting whether one exists.
	// Once Next returns false the iterator is exhausted (or failed: check
	// Err) and stays false.
	Next() bool
	// Key returns the current entry's key.
	Key() StateKey
	// Value returns the current entry's value.
	Value() []byte
	// Err returns the first error the iteration hit, or nil. A non-nil
	// Err means the iteration ended early and its output is incomplete.
	Err() error
	// Close releases the iterator. Close is idempotent and must be
	// called before the owning snapshot is closed.
	Close() error
}

// Snapshot is a frozen, consistent point-in-time view of a store.
// Writes issued after the snapshot was taken are invisible through it.
// A snapshot must be closed when no longer needed: native snapshots pin
// engine resources (immutable memtables, table files, pre-images of
// copy-on-write pages) until released.
//
// Get serves arbitrary byte keys on engines with native snapshots; the
// shared FallbackSnapshot only indexes StateKey-encoded keys. Iter is
// defined over the StateKey keyspace on every engine.
type Snapshot interface {
	// Get returns the value stored under key at snapshot time, or
	// ErrNotFound.
	Get(key []byte) ([]byte, error)
	// Iter returns an iterator over the live entries in [lo, hi], both
	// bounds inclusive (so StateKey extremes are reachable). An empty or
	// inverted range (hi < lo) yields an exhausted iterator, not an
	// error.
	Iter(lo, hi StateKey) Iterator
	// Close releases the snapshot. Iterators obtained from it must not
	// be used afterwards.
	Close() error
}

// Snapshotter is the capability interface for stores that can produce a
// Snapshot. All registered engines implement it — natively or via the
// documented FallbackSnapshot path; Capabilities.Snapshots distinguishes
// the two.
type Snapshotter interface {
	Snapshot() (Snapshot, error)
}

// RangeScanner is implemented by stores that can serve one bounded,
// consistent range scan directly, without the caller materializing a
// Snapshot (the remote client pushes the scan to the server in a single
// frame). ScanRange prefers this path when present.
type RangeScanner interface {
	// ScanRange returns the live entries in [lo, hi] (inclusive) in
	// ascending key order, read from a consistent point-in-time view.
	ScanRange(lo, hi StateKey) ([]Entry, error)
}

// ErrNoSnapshots is returned by SnapshotOf for stores that implement
// neither Snapshotter nor the fallback path.
var ErrNoSnapshots = errors.New("kv: store does not support snapshots")

// SnapshotOf returns a point-in-time snapshot of s, or ErrNoSnapshots
// when s does not implement Snapshotter.
func SnapshotOf(s Store) (Snapshot, error) {
	if sn, ok := s.(Snapshotter); ok {
		return sn.Snapshot()
	}
	return nil, ErrNoSnapshots
}

// Entry is one key-value pair surfaced by a snapshot or scan.
type Entry struct {
	Key   StateKey
	Value []byte
}

// ScanRange collects the live entries of s in [lo, hi] (inclusive), in
// ascending key order, from a consistent view: a native RangeScanner
// when the store offers one, otherwise a snapshot taken for the duration
// of the scan. It is the translation replay uses for OpScan.
func ScanRange(s Store, lo, hi StateKey) ([]Entry, error) {
	if rs, ok := s.(RangeScanner); ok {
		return rs.ScanRange(lo, hi)
	}
	snap, err := SnapshotOf(s)
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	return CollectIter(snap.Iter(lo, hi))
}

// ScanAll collects every live StateKey-encoded entry of s in ascending
// key order from a consistent view.
func ScanAll(s Store) ([]Entry, error) {
	return ScanRange(s, StateKey{}, MaxStateKey)
}

// IterOf takes a snapshot of s and returns an iterator over [lo, hi]
// whose Close also releases the snapshot — a one-shot scan without
// explicit snapshot management.
func IterOf(s Store, lo, hi StateKey) (Iterator, error) {
	snap, err := SnapshotOf(s)
	if err != nil {
		return nil, err
	}
	return &snapIter{Iterator: snap.Iter(lo, hi), snap: snap}, nil
}

// snapIter couples an iterator to the snapshot backing it.
type snapIter struct {
	Iterator
	snap Snapshot
}

func (it *snapIter) Close() error {
	err := it.Iterator.Close()
	if cerr := it.snap.Close(); err == nil {
		err = cerr
	}
	return err
}

// CollectIter drains it into a slice, closing it afterwards. The
// iterator's first error, if any, is returned with the (partial) output
// discarded.
func CollectIter(it Iterator) ([]Entry, error) {
	var out []Entry
	for it.Next() {
		out = append(out, Entry{Key: it.Key(), Value: append([]byte(nil), it.Value()...)})
	}
	err := it.Err()
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FallbackBuilder accumulates a stop-the-world dump of a store into a
// FallbackSnapshot. Engines without native snapshots walk their records
// under their own lock, Add every live pair, and hand out the result.
type FallbackBuilder struct {
	entries []Entry
}

// Add appends one live record. Keys that do not decode as StateKeys are
// skipped (the fallback view indexes only the StateKey keyspace); both
// key and value are copied.
func (b *FallbackBuilder) Add(key, value []byte) {
	sk, err := DecodeStateKey(key)
	if err != nil {
		return
	}
	b.entries = append(b.entries, Entry{Key: sk, Value: append([]byte(nil), value...)})
}

// Snapshot sorts the accumulated entries and seals them into a
// FallbackSnapshot. The builder must not be reused afterwards.
func (b *FallbackBuilder) Snapshot() *FallbackSnapshot {
	return NewFallbackSnapshot(b.entries)
}

// FallbackSnapshot is the shared stop-the-world Snapshot implementation:
// a sorted copy of a store's live entries taken at a single point in
// time under the engine's lock. It is what engines without native
// snapshot machinery (FASTER's hash log, the remote client) return, and
// also serves as the memstore oracle's sorted view in differential
// tests. Reads never touch the origin store again, so a fallback
// snapshot stays valid after the store is closed.
type FallbackSnapshot struct {
	entries []Entry
	iterOps *atomic.Int64 // optional owner counter for <engine>.iter_ops
	closed  bool
}

var _ Snapshot = (*FallbackSnapshot)(nil)

// NewFallbackSnapshot seals entries (not copied, sorted in place) into a
// snapshot. Duplicate keys must not occur.
func NewFallbackSnapshot(entries []Entry) *FallbackSnapshot {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.Less(entries[j].Key) })
	return &FallbackSnapshot{entries: entries}
}

// CountIterOps directs per-Next accounting into c, letting the owning
// engine surface "<engine>.iter_ops" through its Introspector.
func (s *FallbackSnapshot) CountIterOps(c *atomic.Int64) { s.iterOps = c }

// Len returns the number of entries in the snapshot.
func (s *FallbackSnapshot) Len() int { return len(s.entries) }

// Get implements Snapshot. Only StateKey-encoded keys are visible.
func (s *FallbackSnapshot) Get(key []byte) ([]byte, error) {
	if s.closed {
		return nil, ErrClosed
	}
	sk, err := DecodeStateKey(key)
	if err != nil {
		return nil, ErrNotFound
	}
	i := sort.Search(len(s.entries), func(i int) bool { return !s.entries[i].Key.Less(sk) })
	if i < len(s.entries) && s.entries[i].Key == sk {
		return s.entries[i].Value, nil
	}
	return nil, ErrNotFound
}

// Iter implements Snapshot.
func (s *FallbackSnapshot) Iter(lo, hi StateKey) Iterator {
	if s.closed {
		return &sliceIter{err: ErrClosed}
	}
	i := sort.Search(len(s.entries), func(i int) bool { return !s.entries[i].Key.Less(lo) })
	return &sliceIter{snap: s, i: i, hi: hi}
}

// Close implements Snapshot.
func (s *FallbackSnapshot) Close() error {
	s.closed = true
	s.entries = nil
	return nil
}

// sliceIter iterates a FallbackSnapshot's sorted entries through [.., hi].
type sliceIter struct {
	snap *FallbackSnapshot
	i    int
	hi   StateKey
	cur  Entry
	done bool
	err  error
}

func (it *sliceIter) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	if it.snap.closed {
		it.err = ErrClosed
		return false
	}
	if it.snap.iterOps != nil {
		it.snap.iterOps.Add(1)
	}
	if it.i >= len(it.snap.entries) || it.hi.Less(it.snap.entries[it.i].Key) {
		it.done = true
		return false
	}
	it.cur = it.snap.entries[it.i]
	it.i++
	return true
}

func (it *sliceIter) Key() StateKey { return it.cur.Key }
func (it *sliceIter) Value() []byte { return it.cur.Value }
func (it *sliceIter) Err() error    { return it.err }
func (it *sliceIter) Close() error  { it.done = true; return nil }
