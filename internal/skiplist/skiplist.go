// Package skiplist implements the LSM engine's write buffer: an ordered,
// insert-only map from byte-slice keys to byte-slice values whose keys
// come in groups, with an exact hash index from a group to its first
// entry.
//
// A key is group‖suffix, the suffix having the fixed length given to
// New. No group may be a proper prefix of another, so the keys of one
// group are adjacent in key order. For the LSM the group is the escaped
// user key and the suffix the sequence/kind trailer: the first entry of
// a group is that user key's newest version, SeekGroup reaches it with
// one hash probe instead of a descent, and Add of a newer version links
// it in front of the group without a search.
//
// Nothing in a List is a Go pointer into the list. Nodes live in one
// []uint32 and name each other by word index; keys and values are
// copied into two chunked byte arenas and named by 32-bit refs, so the
// garbage collector has nothing to scan and a seek walks a dense node
// array and a dense key store. Entry bytes never move or change once
// written: slices handed out stay valid for as long as the caller keeps
// them. A list holds at most 4 GiB of keys and 4 GiB of values.
//
// The zero value is not usable; call New. A List is not safe for
// concurrent mutation: the LSM engine runs Add under its write lock and
// every read, including each step of a parked Iterator, under its read
// lock.
package skiplist

import (
	"bytes"
	"encoding/binary"
)

const (
	maxHeight = 16

	// A node is key record ref, height, next[height], in uint32 words
	// of List.nodes: 8 + 4*height bytes. Node 0 is the head, which nothing
	// points at, so a next of 0 ends a level.
	nodeHeight = 1
	nodeNext   = 2

	// Arena geometry, see arena.
	chunkShift    = 20
	minChunkShift = 14
	maxChunk      = 1 << chunkShift
	maxChunks     = 1 << (32 - chunkShift)

	// keyHeader is the fixed part of a key record, see store.
	keyHeader = 12

	// entryCharge is what ApproxBytes adds per entry on top of its key
	// and value lengths.
	entryCharge = 48

	// A version that draws a tower taller than this is inserted the
	// ordinary way (see Add).
	headInsertMaxHeight = 2

	minIndexSlots = 64
)

// List is an ordered, insert-only, group-indexed byte-key map.
type List struct {
	suffixLen int
	nodes     []uint32
	// Keys and values live apart: a descent compares keys only, and a
	// buffer's keys and nodes together are a fraction of its values, small
	// enough to stay cached.
	keys, vals arena
	// index is open-addressed with linear probing. A slot is the high
	// half of the group's hash << 32 | the node holding the group's
	// first entry; 0 is empty. The low bits of that same half pick the
	// home slot, so growing rehashes from the slots alone.
	index    []uint64
	groups   int
	height   int
	length   int
	bytes    int64
	rngState uint64
}

// New returns an empty list for keys that end in a suffix of suffixLen
// bytes.
func New(suffixLen int) *List {
	l := &List{
		suffixLen: suffixLen,
		nodes:     make([]uint32, nodeNext+maxHeight, 256),
		index:     make([]uint64, minIndexSlots),
		height:    1,
		rngState:  0x9E3779B97F4A7C15,
	}
	l.nodes[nodeHeight] = maxHeight
	return l
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

// ApproxBytes returns the flush-threshold charge of the entries: key and
// value lengths plus a fixed 48 bytes each. It is an accounting figure,
// independent of how the list lays entries out; MemBytes is the memory.
func (l *List) ApproxBytes() int64 { return l.bytes }

// MemBytes returns the bytes the list holds: arena chunks, node array
// and index, at their allocated sizes.
func (l *List) MemBytes() int64 {
	return int64(cap(l.nodes))*4 + int64(len(l.index))*8 + l.keys.memBytes() + l.vals.memBytes()
}

// arena is an append-only byte store in chunks that never move. A ref
// is chunk index << chunkShift | offset in the chunk: ordinary chunks
// are at most maxChunk bytes, so the offset fits, and a larger
// allocation gets a chunk of its own at offset 0.
type arena struct {
	chunks [][]byte // len = bytes used, cap = chunk size
}

// alloc returns n fresh bytes and their ref.
func (a *arena) alloc(n int) (uint32, []byte) {
	last := len(a.chunks) - 1
	if last < 0 || cap(a.chunks[last])-len(a.chunks[last]) < n {
		if len(a.chunks) == maxChunks {
			panic("skiplist: arena full (4 GiB in one list)")
		}
		// Chunks double from 16 KiB to maxChunk so that a list holding a
		// handful of entries stays small.
		size := 1 << min(minChunkShift+len(a.chunks), chunkShift)
		a.chunks = append(a.chunks, make([]byte, 0, max(size, n)))
		last++
	}
	c := a.chunks[last]
	off := len(c)
	a.chunks[last] = c[:off+n]
	return uint32(last)<<chunkShift | uint32(off), c[off : off+n]
}

// at returns the bytes from ref to the end of its chunk.
func (a *arena) at(ref uint32) []byte {
	return a.chunks[ref>>chunkShift][ref&(maxChunk-1):]
}

func (a *arena) memBytes() (n int64) {
	for _, c := range a.chunks {
		n += int64(cap(c))
	}
	return n
}

// store copies key and value into the arenas and returns the ref of the
// key record: key length, value length, value ref (u32 each,
// little-endian), key bytes.
func (l *List) store(key, value []byte) uint32 {
	var vref uint32
	if len(value) > 0 {
		var v []byte
		vref, v = l.vals.alloc(len(value))
		copy(v, value)
	}
	p, b := l.keys.alloc(keyHeader + len(key))
	binary.LittleEndian.PutUint32(b, uint32(len(key)))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(value)))
	binary.LittleEndian.PutUint32(b[8:], vref)
	copy(b[keyHeader:], key)
	return p
}

// key returns the key of record p, with cap == len so that an append by
// whoever holds it cannot reach the record stored behind it.
func (l *List) key(p uint32) []byte {
	b := l.keys.at(p)
	end := keyHeader + int(binary.LittleEndian.Uint32(b))
	return b[keyHeader:end:end]
}

// value returns the value of record p, cap == len like key. An empty
// value is nil.
func (l *List) value(p uint32) []byte {
	b := l.keys.at(p)
	vlen := int(binary.LittleEndian.Uint32(b[4:]))
	if vlen == 0 {
		return nil
	}
	return l.vals.at(binary.LittleEndian.Uint32(b[8:]))[:vlen:vlen]
}

// newNode appends a node of the given height for key record p and
// returns its ref. It may move l.nodes.
func (l *List) newNode(p uint32, height int) uint32 {
	var zero [maxHeight]uint32
	n := uint32(len(l.nodes))
	l.nodes = append(l.nodes, p, uint32(height))
	l.nodes = append(l.nodes, zero[:height]...)
	return n
}

// findGE returns the first node with key >= target (0 if none), filling
// prev with the rightmost node before target at every level when
// prev != nil.
func (l *List) findGE(target []byte, prev *[maxHeight]uint32) uint32 {
	nodes := l.nodes
	var x, notLess uint32
	for level := uint32(l.height); level > 0; level-- {
		for {
			next := nodes[x+nodeNext+level-1]
			// A node found >= target one level up is often the next node
			// here as well; its key is not read again.
			if next == 0 || next == notLess || bytes.Compare(l.key(nodes[next]), target) >= 0 {
				notLess = next
				break
			}
			x = next
		}
		if prev != nil {
			prev[level-1] = x
		}
	}
	return nodes[x+nodeNext]
}

// lookup probes the index for group, whose hash is h. It returns the
// node holding the group's first entry, or 0 and the empty slot where
// the group would go.
func (l *List) lookup(group []byte, h uint64) (slot int, n uint32) {
	mask := len(l.index) - 1
	tag := h >> 32
	for slot = int(tag) & mask; ; slot = (slot + 1) & mask {
		s := l.index[slot]
		if s == 0 {
			return slot, 0
		}
		if s>>32 != tag {
			continue
		}
		k := l.key(l.nodes[uint32(s)])
		if len(k) == len(group)+l.suffixLen && bytes.Equal(k[:len(group)], group) {
			return slot, uint32(s)
		}
	}
}

func indexSlot(h uint64, n uint32) uint64 { return h>>32<<32 | uint64(n) }

// growIndex doubles the index.
func (l *List) growIndex() {
	old := l.index
	l.index = make([]uint64, 2*len(old))
	mask := len(l.index) - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := int(s>>32) & mask
		for l.index[i] != 0 {
			i = (i + 1) & mask
		}
		l.index[i] = s
	}
}

// Add inserts key/value, copying both; h is the hash of key's group
// (key without its suffix) under whatever function the caller also
// hands SeekGroup. Keys are expected to be unique.
//
// When the group is already indexed and key sorts at or before its first
// entry — the LSM's case: a newer version of a resident user key — no
// search happens. The node n that holds the group's first entry keeps
// its place and its tower and takes the new entry; the old entry moves
// to a fresh node linked directly behind n, at as many levels as it drew
// and n has. Every node before n holds a smaller group and every
// node after it a key no smaller than the old one, so order holds at
// each level, and the index entry stays as it is.
//
// An Iterator parked on n therefore sees n's key get smaller, and finds
// the key it was parked on one Next further: it skips nothing. The LSM's
// snapshot iterators sit in a heap ordered by Key() across lock
// releases; that heap stays valid because every other source of a
// snapshot is older than the active memtable and so holds only older
// sequences of the user key — no key of theirs lies between the old
// first entry of the group and the new one, and n compares to each of
// them as it did before.
//
// One version in 16 draws a tower above headInsertMaxHeight and is
// inserted the ordinary way, by descent, becoming the group's indexed
// first entry. Without that a key rewritten many times would grow a run
// of low nodes that a seek to the following key has to walk end to end;
// with it the run carries towers of height 3 and up at the usual density
// and is passed in logarithmic time.
func (l *List) Add(key, value []byte, h uint64) {
	p := l.store(key, value)
	l.length++
	l.bytes += int64(len(key) + len(value) + entryCharge)
	height := l.randomHeight()
	group := key[:len(key)-l.suffixLen]
	slot, n := l.lookup(group, h)
	if n != 0 && height <= headInsertMaxHeight && bytes.Compare(key, l.key(l.nodes[n])) <= 0 {
		height = min(height, int(l.nodes[n+nodeHeight]))
		m := l.newNode(l.nodes[n], height)
		for i := uint32(0); i < uint32(height); i++ {
			l.nodes[m+nodeNext+i] = l.nodes[n+nodeNext+i]
			l.nodes[n+nodeNext+i] = m
		}
		l.nodes[n] = p
		return
	}

	var prev [maxHeight]uint32
	next := l.findGE(key, &prev)
	l.height = max(l.height, height) // prev is the head (0) above the old height
	x := l.newNode(p, height)
	for i := uint32(0); i < uint32(height); i++ {
		l.nodes[x+nodeNext+i] = l.nodes[prev[i]+nodeNext+i]
		l.nodes[prev[i]+nodeNext+i] = x
	}
	switch {
	case n == 0:
		if (l.groups+1)*4 > len(l.index)*3 {
			l.growIndex()
			slot, _ = l.lookup(group, h)
		}
		l.index[slot] = indexSlot(h, x)
		l.groups++
	case next == n:
		// x landed directly in front of the group's first entry.
		l.index[slot] = indexSlot(h, x)
	}
}

// Iterator walks the list in ascending key order. It holds a node ref,
// not memory, so it stays usable across Adds made while it is parked.
type Iterator struct {
	list *List
	n    uint32
}

// Iter returns an iterator positioned before the first entry; call
// First, SeekGE or SeekGroup to position it. It is returned by value so
// a point probe keeps it on its own stack; a caller that stores the
// iterator takes its address.
func (l *List) Iter() Iterator { return Iterator{list: l} }

// SeekGE positions the iterator at the first entry with key >= target.
func (it *Iterator) SeekGE(target []byte) {
	it.n = it.list.findGE(target, nil)
}

// SeekGroup positions the iterator at the first entry of group, whose
// hash under the function Add was given is h, and reports whether the
// list holds the group; if not, the iterator is left invalid. It is one
// index probe, never a descent.
func (it *Iterator) SeekGroup(group []byte, h uint64) bool {
	_, it.n = it.list.lookup(group, h)
	return it.n != 0
}

// First positions the iterator at the smallest key.
func (it *Iterator) First() { it.n = it.list.nodes[nodeNext] }

// Next advances to the following entry; on an iterator that was never
// positioned it does nothing.
func (it *Iterator) Next() {
	if it.n == 0 {
		return
	}
	it.n = it.list.nodes[it.n+nodeNext]
}

// Valid reports whether the iterator points at an entry.
func (it *Iterator) Valid() bool { return it.n != 0 }

// Key returns the current key; only valid when Valid() is true. The
// slice has cap == len and is never written again.
func (it *Iterator) Key() []byte { return it.list.key(it.list.nodes[it.n]) }

// Value returns the current value (nil when empty); only valid when
// Valid() is true. The slice has cap == len and is never written again.
func (it *Iterator) Value() []byte { return it.list.value(it.list.nodes[it.n]) }
