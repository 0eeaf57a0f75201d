// Package skiplist implements an ordered in-memory map from byte-slice
// keys to byte-slice values, used as the LSM engine's memtable. It is a
// classic Pugh skip list with randomized tower heights and supports exact
// lookups, ordered iteration, and seek-to-first-greater-or-equal.
//
// The zero value is not usable; call New. A skiplist is not safe for
// concurrent mutation; the LSM engine serializes writers and freezes
// memtables before sharing them with readers.
package skiplist

import "bytes"

const maxHeight = 16

type node struct {
	key, value []byte
	next       [maxHeight]*node
	height     int
}

// List is an ordered byte-key map.
type List struct {
	head     *node
	height   int
	length   int
	bytes    int64
	rngState uint64
}

// New returns an empty list.
func New() *List {
	return &List{head: &node{height: maxHeight}, height: 1, rngState: 0x9E3779B97F4A7C15}
}

// randomHeight draws a height with geometric distribution (p = 1/4) from
// an embedded xorshift generator, keeping the list self-contained and
// deterministic for a given insertion order.
func (l *List) randomHeight() int {
	x := l.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	l.rngState = x
	h := 1
	for h < maxHeight && x&3 == 0 {
		h++
		x >>= 2
	}
	return h
}

// Len returns the number of entries.
func (l *List) Len() int { return l.length }

// ApproxBytes returns the approximate memory held by keys and values.
func (l *List) ApproxBytes() int64 { return l.bytes }

// findGE returns the first node with key >= target, filling prev with the
// rightmost node before target at every level when prev != nil.
func (l *List) findGE(target []byte, prev *[maxHeight]*node) *node {
	x := l.head
	for level := l.height - 1; level >= 0; level-- {
		for x.next[level] != nil && bytes.Compare(x.next[level].key, target) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Put inserts key/value, overwriting the value if key already exists.
// The list keeps references to key and value; callers must not mutate
// them afterwards.
func (l *List) Put(key, value []byte) {
	var prev [maxHeight]*node
	if n := l.findGE(key, &prev); n != nil && bytes.Equal(n.key, key) {
		l.bytes += int64(len(value) - len(n.value))
		n.value = value
		return
	}
	h := l.randomHeight()
	if h > l.height {
		for level := l.height; level < h; level++ {
			prev[level] = l.head
		}
		l.height = h
	}
	n := &node{key: key, value: value, height: h}
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	l.length++
	l.bytes += int64(len(key) + len(value) + 48) // 48 ~ node overhead
}

// Get returns the value stored under key and whether it was found.
func (l *List) Get(key []byte) ([]byte, bool) {
	n := l.findGE(key, nil)
	if n != nil && bytes.Equal(n.key, key) {
		return n.value, true
	}
	return nil, false
}

// Iterator walks the list in ascending key order.
type Iterator struct {
	list *List
	n    *node
}

// Iter returns an iterator positioned before the first entry; call First
// or SeekGE to position it. It is returned by value so a point probe
// keeps it on its own stack; a caller that stores the iterator takes its
// address.
func (l *List) Iter() Iterator { return Iterator{list: l} }

// SeekGE positions the iterator at the first entry with key >= target.
func (it *Iterator) SeekGE(target []byte) {
	it.n = it.list.findGE(target, nil)
}

// First positions the iterator at the smallest key.
func (it *Iterator) First() { it.n = it.list.head.next[0] }

// Next advances to the following entry (or positions at First if the
// iterator was never positioned).
func (it *Iterator) Next() {
	if it.n == nil {
		return
	}
	it.n = it.n.next[0]
}

// Valid reports whether the iterator points at an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Key returns the current key; only valid when Valid() is true.
func (it *Iterator) Key() []byte { return it.n.key }

// Value returns the current value; only valid when Valid() is true.
func (it *Iterator) Value() []byte { return it.n.value }
