// Package sstable implements the immutable sorted-table file format used
// by the LSM engine: 4 KiB data blocks of length-prefixed entries, a
// Bloom filter block, a block index, a small numeric properties block,
// and a fixed footer. Readers serve block reads through a shared LRU
// cache.
//
// The format stores opaque byte keys in ascending order; the LSM layer
// encodes its internal keys (user key, sequence, kind) on top.
package sstable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"gadget/internal/bloom"
	"gadget/internal/cache"
)

const (
	// TargetBlockSize is the uncompressed size at which a data block is cut.
	TargetBlockSize = 4 << 10

	footerLen = 8 * 6
	magic     = 0x47414447_45545342 // "GADGETSB"
)

// ErrCorrupt indicates a structurally invalid table file.
var ErrCorrupt = errors.New("sstable: corrupt table")

// Writer builds an SSTable. Keys must be Added in strictly ascending
// order. The writer owns neither the file nor its lifetime; callers close
// the file after Close returns.
type Writer struct {
	w       *bufio.Writer
	off     uint64
	block   bytes.Buffer
	index   []indexEntry
	filter  *bloom.Builder
	props   map[string]uint64
	lastKey []byte
	first   []byte
	count   uint64
	// FilterKey extracts the bloom filter key from an entry key; defaults
	// to the identity. The LSM sets it to strip sequence suffixes so that
	// point lookups by user key can consult the filter.
	FilterKey func(key []byte) []byte
	// BloomBitsPerKey sizes the Bloom filter (0 = default of 10;
	// negative disables the filter entirely, so MayContain admits all).
	BloomBitsPerKey int
}

type indexEntry struct {
	lastKey []byte
	off     uint64
	length  uint32
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{
		w:         bufio.NewWriterSize(w, 64<<10),
		filter:    bloom.NewBuilder(),
		props:     make(map[string]uint64),
		FilterKey: func(k []byte) []byte { return k },
	}
}

// SetProperty records a numeric property persisted in the table (e.g.
// tombstone counts used by the Lethe compaction picker).
func (w *Writer) SetProperty(name string, v uint64) { w.props[name] = v }

// Add appends an entry. Keys must arrive in strictly ascending order.
func (w *Writer) Add(key, value []byte) error {
	if w.lastKey != nil && bytes.Compare(key, w.lastKey) <= 0 {
		return fmt.Errorf("sstable: keys out of order: %x after %x", key, w.lastKey)
	}
	if w.first == nil {
		w.first = append([]byte(nil), key...)
	}
	w.lastKey = append(w.lastKey[:0], key...)
	w.filter.Add(w.FilterKey(key))
	w.count++

	var hdr [2 * binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(value)))
	w.block.Write(hdr[:n])
	w.block.Write(key)
	w.block.Write(value)

	if w.block.Len() >= TargetBlockSize {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if w.block.Len() == 0 {
		return nil
	}
	data := w.block.Bytes()
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(data))
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	if _, err := w.w.Write(crc[:]); err != nil {
		return err
	}
	w.index = append(w.index, indexEntry{
		lastKey: append([]byte(nil), w.lastKey...),
		off:     w.off,
		length:  uint32(len(data)),
	})
	w.off += uint64(len(data)) + 4
	w.block.Reset()
	return nil
}

// Count returns the number of entries added so far.
func (w *Writer) Count() uint64 { return w.count }

// EstimatedSize returns the bytes written so far plus the pending block.
func (w *Writer) EstimatedSize() uint64 { return w.off + uint64(w.block.Len()) }

// Close flushes the final block and writes filter, index, properties and
// footer. It does not close the underlying file.
func (w *Writer) Close() error {
	if err := w.flushBlock(); err != nil {
		return err
	}
	// Filter block. A disabled filter persists as a zero-length block,
	// which readers treat as admit-all.
	filterOff := w.off
	var fb []byte
	if w.BloomBitsPerKey >= 0 {
		bits := w.BloomBitsPerKey
		if bits == 0 {
			bits = 10
		}
		fb = w.filter.Build(bits).Bytes()
	}
	if _, err := w.w.Write(fb); err != nil {
		return err
	}
	w.off += uint64(len(fb))

	// Index block: count, then (klen, key, off, len) entries.
	indexOff := w.off
	var ib bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(w.index)))
	ib.Write(tmp[:n])
	for _, e := range w.index {
		n = binary.PutUvarint(tmp[:], uint64(len(e.lastKey)))
		ib.Write(tmp[:n])
		ib.Write(e.lastKey)
		n = binary.PutUvarint(tmp[:], e.off)
		ib.Write(tmp[:n])
		n = binary.PutUvarint(tmp[:], uint64(e.length))
		ib.Write(tmp[:n])
	}
	// Properties appended to the index block, sorted for determinism.
	names := make([]string, 0, len(w.props))
	for k := range w.props {
		names = append(names, k)
	}
	sort.Strings(names)
	n = binary.PutUvarint(tmp[:], uint64(len(names)))
	ib.Write(tmp[:n])
	for _, name := range names {
		n = binary.PutUvarint(tmp[:], uint64(len(name)))
		ib.Write(tmp[:n])
		ib.WriteString(name)
		n = binary.PutUvarint(tmp[:], w.props[name])
		ib.Write(tmp[:n])
	}
	if _, err := w.w.Write(ib.Bytes()); err != nil {
		return err
	}
	w.off += uint64(ib.Len())

	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[0:], filterOff)
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(fb)))
	binary.LittleEndian.PutUint64(footer[16:], indexOff)
	binary.LittleEndian.PutUint64(footer[24:], uint64(ib.Len()))
	binary.LittleEndian.PutUint64(footer[32:], w.count)
	binary.LittleEndian.PutUint64(footer[40:], magic)
	if _, err := w.w.Write(footer[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// ReadableFile is the random access a Reader needs from its backing
// file; *os.File and vfs.File both satisfy it.
type ReadableFile interface {
	io.ReaderAt
	Stat() (os.FileInfo, error)
}

// Reader serves lookups and scans over one SSTable file.
type Reader struct {
	f      ReadableFile
	id     uint64 // cache namespace
	cache  *cache.Cache
	filter *bloom.Filter
	index  []indexEntry
	props  map[string]uint64
	count  uint64
	first  []byte
	// FilterKey must match the writer's; defaults to identity.
	FilterKey func(key []byte) []byte
}

// Open opens the table in file f. id must be unique per live file and is
// used to namespace blocks in c. c may be nil to disable caching.
func Open(f ReadableFile, id uint64, c *cache.Cache) (*Reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < footerLen {
		return nil, ErrCorrupt
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerLen); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[40:]) != magic {
		return nil, ErrCorrupt
	}
	filterOff := binary.LittleEndian.Uint64(footer[0:])
	filterLen := binary.LittleEndian.Uint64(footer[8:])
	indexOff := binary.LittleEndian.Uint64(footer[16:])
	indexLen := binary.LittleEndian.Uint64(footer[24:])
	count := binary.LittleEndian.Uint64(footer[32:])

	if int64(filterOff+filterLen) > st.Size() || int64(indexOff+indexLen) > st.Size() {
		return nil, ErrCorrupt
	}
	fb := make([]byte, filterLen)
	if _, err := f.ReadAt(fb, int64(filterOff)); err != nil {
		return nil, err
	}
	ib := make([]byte, indexLen)
	if _, err := f.ReadAt(ib, int64(indexOff)); err != nil {
		return nil, err
	}
	r := &Reader{
		f:         f,
		id:        id,
		cache:     c,
		filter:    bloom.FromBytes(fb),
		props:     make(map[string]uint64),
		count:     count,
		FilterKey: func(k []byte) []byte { return k },
	}
	if err := r.parseIndex(ib); err != nil {
		return nil, err
	}
	if len(r.index) > 0 {
		// The first key is read past the cache: a table is opened when a
		// flush or compaction installs it, which is no sign that its
		// first block is about to be read.
		blk, err := r.readBlockInto(0, nil)
		if err != nil {
			return nil, err
		}
		k, _, _, err := decodeEntry(blk)
		if err != nil {
			return nil, err
		}
		r.first = append([]byte(nil), k...)
	}
	return r, nil
}

func (r *Reader) parseIndex(ib []byte) error {
	buf := bytes.NewBuffer(ib)
	nEntries, err := binary.ReadUvarint(buf)
	if err != nil {
		return ErrCorrupt
	}
	r.index = make([]indexEntry, 0, nEntries)
	for i := uint64(0); i < nEntries; i++ {
		klen, err := binary.ReadUvarint(buf)
		if err != nil {
			return ErrCorrupt
		}
		key := make([]byte, klen)
		if _, err := io.ReadFull(buf, key); err != nil {
			return ErrCorrupt
		}
		off, err := binary.ReadUvarint(buf)
		if err != nil {
			return ErrCorrupt
		}
		length, err := binary.ReadUvarint(buf)
		if err != nil {
			return ErrCorrupt
		}
		r.index = append(r.index, indexEntry{lastKey: key, off: off, length: uint32(length)})
	}
	nProps, err := binary.ReadUvarint(buf)
	if err != nil {
		return ErrCorrupt
	}
	for i := uint64(0); i < nProps; i++ {
		nlen, err := binary.ReadUvarint(buf)
		if err != nil {
			return ErrCorrupt
		}
		name := make([]byte, nlen)
		if _, err := io.ReadFull(buf, name); err != nil {
			return ErrCorrupt
		}
		v, err := binary.ReadUvarint(buf)
		if err != nil {
			return ErrCorrupt
		}
		r.props[string(name)] = v
	}
	return nil
}

// Count returns the number of entries in the table.
func (r *Reader) Count() uint64 { return r.count }

// Property returns a numeric property written by the writer.
func (r *Reader) Property(name string) (uint64, bool) {
	v, ok := r.props[name]
	return v, ok
}

// Smallest returns the first key in the table (nil for an empty table).
func (r *Reader) Smallest() []byte { return r.first }

// Largest returns the last key in the table (nil for an empty table).
func (r *Reader) Largest() []byte {
	if len(r.index) == 0 {
		return nil
	}
	return r.index[len(r.index)-1].lastKey
}

// MayContain consults the Bloom filter with the filter key of key.
func (r *Reader) MayContain(key []byte) bool {
	return r.filter.MayContain(r.FilterKey(key))
}

// MayContainHash is MayContain for a caller that probes several tables
// for one key: h is bloom.Hash of the key's filter key, computed once.
func (r *Reader) MayContainHash(h uint64) bool { return r.filter.MayContainHash(h) }

func (r *Reader) readBlock(i int) ([]byte, error) {
	ck := cache.Key{File: r.id, Off: r.index[i].off}
	if r.cache != nil {
		if b := r.cache.Get(ck); b != nil {
			return b, nil
		}
	}
	data, err := r.readBlockInto(i, nil)
	if err == nil && r.cache != nil {
		r.cache.Put(ck, data)
	}
	return data, err
}

// readBlockInto reads and checks block i from the file, reusing buf when
// it is large enough. It never consults the cache.
func (r *Reader) readBlockInto(i int, buf []byte) ([]byte, error) {
	e := r.index[i]
	if n := int(e.length) + 4; cap(buf) >= n {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := r.f.ReadAt(buf, int64(e.off)); err != nil {
		return nil, err
	}
	data := buf[:e.length]
	want := binary.LittleEndian.Uint32(buf[e.length:])
	if crc32.ChecksumIEEE(data) != want {
		return nil, ErrCorrupt
	}
	return data, nil
}

func decodeEntry(b []byte) (key, value, rest []byte, err error) {
	klen, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, nil, ErrCorrupt
	}
	b = b[n:]
	vlen, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, nil, ErrCorrupt
	}
	b = b[n:]
	if uint64(len(b)) < klen+vlen {
		return nil, nil, nil, ErrCorrupt
	}
	return b[:klen], b[klen : klen+vlen], b[klen+vlen:], nil
}

// Iterator scans a table in ascending key order.
type Iterator struct {
	r        *Reader
	blockIdx int
	block    []byte // remaining undecoded bytes of the current block
	key, val []byte
	err      error
	valid    bool
	// seqBuf is the one block buffer of a sequential iterator, which
	// reads past the cache; nil for an iterator that reads through it.
	seqBuf []byte
}

// Iter returns an unpositioned iterator; call First or SeekGE. It is
// returned by value so a point probe keeps it on its own stack; a caller
// that stores the iterator takes its address.
func (r *Reader) Iter() Iterator { return Iterator{r: r, blockIdx: -1} }

// SeqIter returns an unpositioned iterator for one pass over a table
// that is about to be dropped, as a compaction reads its inputs. It
// reads every block into one buffer it reuses and leaves the cache
// alone: no lookups, no insertions, so the blocks live readers use stay
// cached. Key and Value alias that buffer and are valid only until the
// next positioning call.
func (r *Reader) SeqIter() Iterator {
	return Iterator{r: r, blockIdx: -1, seqBuf: make([]byte, 0, TargetBlockSize+4)}
}

// load reads block i the way the iterator reads: through the cache, or
// into its own buffer for a sequential iterator.
func (it *Iterator) load(i int) ([]byte, error) {
	if it.seqBuf == nil {
		return it.r.readBlock(i)
	}
	blk, err := it.r.readBlockInto(i, it.seqBuf)
	if err == nil {
		it.seqBuf = blk[:0]
	}
	return blk, err
}

// First positions at the smallest entry.
func (it *Iterator) First() {
	it.blockIdx = -1
	it.block = nil
	it.valid = false
	it.err = nil
	it.Next()
}

// SeekGE positions at the first entry with key >= target.
func (it *Iterator) SeekGE(target []byte) {
	it.err = nil
	it.valid = false
	it.block = nil
	// Find the first block whose lastKey >= target.
	index := it.r.index
	i, j := 0, len(index)
	for i < j {
		m := int(uint(i+j) >> 1)
		if bytes.Compare(index[m].lastKey, target) < 0 {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == len(index) {
		it.blockIdx = len(index)
		return
	}
	it.blockIdx = i
	blk, err := it.load(i)
	if err != nil {
		it.err = err
		return
	}
	it.block = blk
	// Scan within the block.
	for {
		if !it.decodeNext() {
			return
		}
		if bytes.Compare(it.key, target) >= 0 {
			return
		}
	}
}

// decodeNext decodes one entry from the current block into key/val.
func (it *Iterator) decodeNext() bool {
	if len(it.block) == 0 {
		it.valid = false
		return false
	}
	k, v, rest, err := decodeEntry(it.block)
	if err != nil {
		it.err = err
		it.valid = false
		return false
	}
	it.key, it.val, it.block = k, v, rest
	it.valid = true
	return true
}

// Next advances to the following entry, loading the next block as needed.
func (it *Iterator) Next() {
	if it.err != nil {
		return
	}
	if it.decodeNext() {
		return
	}
	// Advance to the next block.
	for {
		it.blockIdx++
		if it.blockIdx >= len(it.r.index) {
			it.valid = false
			return
		}
		blk, err := it.load(it.blockIdx)
		if err != nil {
			it.err = err
			it.valid = false
			return
		}
		it.block = blk
		if it.decodeNext() {
			return
		}
	}
}

// Valid reports whether the iterator points at an entry.
func (it *Iterator) Valid() bool { return it.valid }

// Err returns the first I/O or corruption error encountered.
func (it *Iterator) Err() error { return it.err }

// Key returns the current key. The slice aliases an internal buffer and
// is only valid until the next positioning call.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value, with the same aliasing rules as Key.
func (it *Iterator) Value() []byte { return it.val }
