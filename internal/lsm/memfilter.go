package lsm

import (
	"encoding/binary"
	"math/bits"
)

// memFilter is the whole-key filter every memtable carries: a blocked
// Bloom filter over escaped user keys, consulted before the skiplist
// seek so a read of a key the write buffer never saw costs one cache
// line instead of a descent. Blocks are one cache line (512 bits); a
// key sets memFilterProbes bits inside the single block its hash picks.
// Nothing is persisted, so the hash is free to differ from the tables'.
type memFilter struct {
	blocks [][8]uint64 // a power-of-two number of them
}

const memFilterProbes = 4

// newMemFilter sizes the filter from the memtable's flush threshold: the
// largest power-of-two number of blocks within 1/64 of it (64 KiB for a
// 4 MiB buffer, 512 KiB for the default 32 MiB one). An entry charges
// its escaped key, a 9-byte trailer, its value and 48 bytes of node
// overhead against the threshold, at least ~70 bytes, so a full memtable
// of c-byte entries leaves the filter c/8 bits per entry: ~9 at worst,
// 18 to 42 for a streaming state store's 150-340 byte entries (false
// positives 0.2 % down to 0.01 %). Larger buys nothing measurable and
// costs a cache miss per write once the filter outgrows L2.
func newMemFilter(memtableSize int64) memFilter {
	n := memtableSize / 64 / 64
	if n < 1 {
		n = 1
	}
	n = 1 << (bits.Len64(uint64(n)) - 1) // round down to a power of two
	return memFilter{blocks: make([][8]uint64, n)}
}

// memHash hashes an escaped user key for memFilter: eight bytes a step
// with a multiply-xorshift mix, finished with an avalanche so both the
// block index (high bits) and the in-block positions (low bits) depend
// on every input byte. It is deterministic, so filter outcomes — and the
// memfilter counters — repeat exactly for a seed.
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

// block picks h's block from the hash bits the in-block positions
// (the low 4x9) do not use.
func (f *memFilter) block(h uint64) *[8]uint64 {
	return &f.blocks[(h>>36)&uint64(len(f.blocks)-1)]
}

// add sets the bits for hash h.
func (f *memFilter) add(h uint64) {
	blk := f.block(h)
	for i := 0; i < memFilterProbes; i++ {
		bit := h & 511
		blk[bit>>6] |= 1 << (bit & 63)
		h >>= 9
	}
}

// mayContain reports whether a key hashing to h may have been added.
// False means it definitely was not.
func (f *memFilter) mayContain(h uint64) bool {
	blk := f.block(h)
	for i := 0; i < memFilterProbes; i++ {
		bit := h & 511
		if blk[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
		h >>= 9
	}
	return true
}
