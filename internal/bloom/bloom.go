// Package bloom implements the Bloom filter SSTables use to skip files
// that cannot contain a key. It is a plain (unblocked) filter: one bit
// array for the whole table, k probe positions per key derived by double
// hashing (Kirsch-Mitzenmacher) from a 64-bit FNV-1a base hash, each
// reduced with a 64-bit modulo by the array size. The base hash is part
// of the on-disk format: a persisted filter is only valid for the hash
// that built it.
//
// Hash and MayContainHash split a probe in two so a caller consulting
// many filters for one key (an LSM point read) hashes the key once.
package bloom

import "encoding/binary"

// Filter is an immutable Bloom filter. Build one with NewBuilder, or
// reconstruct a persisted one with FromBytes.
type Filter struct {
	bits []byte
	k    uint32
}

// Builder accumulates key hashes and then freezes them into a Filter.
type Builder struct {
	hashes []uint64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Add registers a key with the builder.
func (b *Builder) Add(key []byte) { b.hashes = append(b.hashes, Hash(key)) }

// Len returns the number of keys added so far.
func (b *Builder) Len() int { return len(b.hashes) }

// Build freezes the builder into a Filter with the given bits per key
// (10 gives ~1% false positives). The builder may be reused after.
func (b *Builder) Build(bitsPerKey int) *Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	// k = bitsPerKey * ln(2), clamped to a sane range.
	k := uint32(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	nBits := len(b.hashes) * bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	nBytes := (nBits + 7) / 8
	nBits = nBytes * 8
	f := &Filter{bits: make([]byte, nBytes), k: k}
	for _, h := range b.hashes {
		delta := h>>33 | h<<31
		for i := uint32(0); i < k; i++ {
			pos := h % uint64(nBits)
			f.bits[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return f
}

// MayContain reports whether key may be in the set. False means the key
// is definitely absent.
func (f *Filter) MayContain(key []byte) bool { return f.MayContainHash(Hash(key)) }

// MayContainHash is MayContain for a key already hashed with Hash.
func (f *Filter) MayContainHash(h uint64) bool {
	if len(f.bits) == 0 {
		return true
	}
	nBits := uint64(len(f.bits)) * 8
	delta := h>>33 | h<<31
	for i := uint32(0); i < f.k; i++ {
		pos := h % nBits
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// Bytes serializes the filter (4-byte little-endian k, then the bit array).
func (f *Filter) Bytes() []byte {
	out := make([]byte, 4+len(f.bits))
	binary.LittleEndian.PutUint32(out[:4], f.k)
	copy(out[4:], f.bits)
	return out
}

// FromBytes reconstructs a filter serialized by Bytes. An empty or
// malformed input yields a filter that admits everything, which is safe.
func FromBytes(b []byte) *Filter {
	if len(b) < 4 {
		return &Filter{}
	}
	return &Filter{k: binary.LittleEndian.Uint32(b[:4]), bits: b[4:]}
}

// Hash returns the filter's base hash of key (64-bit FNV-1a), the value
// MayContainHash takes. Every filter, built or reloaded, uses this hash.
func Hash(key []byte) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x100000001B3
	)
	h := uint64(offset)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime
	}
	return h
}
