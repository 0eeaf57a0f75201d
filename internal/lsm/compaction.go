package lsm

import (
	"bytes"
	"container/heap"
	"time"

	"gadget/internal/sstable"
)

// FileInfo is the picker-visible summary of a live table.
type FileInfo struct {
	Num         uint64
	Size        int64
	Entries     uint64
	Deletes     uint64
	TombstoneAt time.Time
}

// LevelInfo summarizes one level for the compaction picker.
type LevelInfo struct {
	Files []FileInfo
	Size  int64
}

// CompactionRequest names the files at Level that should be merged into
// Level+1 (the DB adds the overlapping next-level files itself).
type CompactionRequest struct {
	Level    int
	FileNums []uint64
}

// CompactionPicker decides what to compact next. Pick returns nil when
// the tree is in shape. Implementations must be pure functions of their
// inputs; the DB serializes calls.
type CompactionPicker interface {
	Pick(levels []LevelInfo, opts Options) *CompactionRequest
}

// LeveledPicker is the default policy: flush-heavy L0 is merged into L1
// when it accumulates L0CompactionTrigger files, and each deeper level is
// compacted into the next when it exceeds its size target.
type LeveledPicker struct{}

// Pick implements CompactionPicker.
func (LeveledPicker) Pick(levels []LevelInfo, opts Options) *CompactionRequest {
	if len(levels[0].Files) >= opts.L0CompactionTrigger {
		nums := make([]uint64, len(levels[0].Files))
		for i, f := range levels[0].Files {
			nums[i] = f.Num
		}
		return &CompactionRequest{Level: 0, FileNums: nums}
	}
	target := opts.BaseLevelSize
	for lvl := 1; lvl < len(levels)-1; lvl++ {
		if levels[lvl].Size > target {
			// Compact the largest file to reclaim the most headroom.
			best := levels[lvl].Files[0]
			for _, f := range levels[lvl].Files[1:] {
				if f.Size > best.Size {
					best = f
				}
			}
			return &CompactionRequest{Level: lvl, FileNums: []uint64{best.Num}}
		}
		target *= int64(opts.LevelMultiplier)
	}
	return nil
}

func (db *DB) levelInfosLocked() []LevelInfo {
	out := make([]LevelInfo, numLevels)
	for lvl, files := range db.version.levels {
		for _, fm := range files {
			out[lvl].Files = append(out[lvl].Files, FileInfo{
				Num:         fm.num,
				Size:        fm.size,
				Entries:     fm.reader.Count(),
				Deletes:     fm.deletes,
				TombstoneAt: fm.tombstoneAt,
			})
			out[lvl].Size += fm.size
		}
	}
	return out
}

// maybeCompact runs picker-selected compactions to quiescence. Called
// with work held; mu is taken only to pick.
func (db *DB) maybeCompact() error {
	for rounds := 0; rounds < 32; rounds++ {
		db.mu.RLock()
		req := db.opts.Picker.Pick(db.levelInfosLocked(), db.opts)
		db.mu.RUnlock()
		if req == nil {
			return nil
		}
		if err := db.compact(req); err != nil {
			return err
		}
	}
	return nil
}

// compact merges the requested files (plus overlapping files one level
// down) into new tables at Level+1. The merge and the MANIFEST of the
// new layout are written outside mu, which is held only to swap the
// level slices. Called with work held.
func (db *DB) compact(req *CompactionRequest) error {
	if req.Level < 0 || req.Level >= numLevels-1 {
		return nil
	}
	cur := db.version.levels
	want := make(map[uint64]bool, len(req.FileNums))
	for _, n := range req.FileNums {
		want[n] = true
	}
	var upper []*fileMeta
	for _, fm := range cur[req.Level] {
		if want[fm.num] {
			upper = append(upper, fm)
		}
	}
	if len(upper) == 0 {
		return nil
	}
	// Key range of the upper inputs (escaped user-key prefixes).
	var lo, hi []byte
	for _, fm := range upper {
		s, l := ikeyUserPrefix(fm.smallest), ikeyUserPrefix(fm.largest)
		if lo == nil || bytes.Compare(s, lo) < 0 {
			lo = s
		}
		if hi == nil || bytes.Compare(l, hi) > 0 {
			hi = l
		}
	}
	outLevel := req.Level + 1
	var lower []*fileMeta
	for _, fm := range cur[outLevel] {
		if fm.overlaps(lo, hi) {
			lower = append(lower, fm)
		}
	}

	// Bottommost if no deeper level holds any data.
	bottommost := true
	for lvl := outLevel + 1; lvl < numLevels; lvl++ {
		if len(cur[lvl]) > 0 {
			bottommost = false
			break
		}
	}

	inputs := append(append([]*fileMeta(nil), upper...), lower...)
	outputs, dropped, err := db.mergeTables(inputs, outLevel, bottommost)
	if err != nil {
		return err
	}

	// The new layout: inputs out, outputs in. Readers may hold the
	// current level slices, so the two that change are built afresh.
	remove := make(map[uint64]bool, len(inputs))
	var inBytes uint64
	for _, fm := range inputs {
		remove[fm.num] = true
		inBytes += uint64(fm.size)
	}
	filter := func(files []*fileMeta) []*fileMeta {
		out := make([]*fileMeta, 0, len(files)+len(outputs))
		for _, fm := range files {
			if !remove[fm.num] {
				out = append(out, fm)
			}
		}
		return out
	}
	next := cur
	next[req.Level] = filter(cur[req.Level])
	next[outLevel] = append(filter(cur[outLevel]), outputs...)
	sortLevel(req.Level, next[req.Level])
	sortLevel(outLevel, next[outLevel])
	// Commit the new layout before installing it and deleting inputs: a
	// crash between the manifest rename and the removals leaves the old
	// tables as orphans, which the next open cleans up; a crash before it
	// leaves the outputs as orphans instead. Either way exactly one
	// layout survives.
	if err := db.writeManifest(&next); err != nil {
		releaseUncommitted(outputs)
		return err
	}
	db.mu.Lock()
	db.version.levels = next
	db.stats.Compactions++
	db.stats.BytesCompacted += inBytes
	for _, fm := range outputs {
		db.stats.BytesCompactedOut += uint64(fm.size)
	}
	db.stats.TombstonesDropped += dropped
	db.mu.Unlock()
	// Inputs leave the version; snapshots may still pin them. The last
	// owner's unref closes, uncaches, and deletes each file.
	for _, fm := range inputs {
		fm.markObsolete()
		fm.unref()
	}
	return nil
}

// mergeTables merge-sorts the inputs and writes deduplicated outputs at
// outLevel, splitting files at user-key boundaries near the target size.
func (db *DB) mergeTables(inputs []*fileMeta, outLevel int, bottommost bool) (outputs []*fileMeta, droppedTombstones uint64, err error) {
	mi := newMergeIter(inputs)
	targetFileSize := db.opts.BaseLevelSize / 8
	if targetFileSize < 1<<20 {
		targetFileSize = 1 << 20
	}
	// Earliest tombstone time across inputs, inherited by outputs that
	// still contain tombstones.
	var tombAt time.Time
	for _, fm := range inputs {
		if !fm.tombstoneAt.IsZero() && (tombAt.IsZero() || fm.tombstoneAt.Before(tombAt)) {
			tombAt = fm.tombstoneAt
		}
	}

	var b *tableBuilder
	emit := func(ikey, value []byte) error {
		if b == nil {
			b, err = db.newTableBuilder()
			if err != nil {
				return err
			}
		}
		return b.add(ikey, value, tombAt)
	}
	cut := func() error {
		if b == nil || b.w.Count() == 0 {
			return nil
		}
		fm, ferr := b.finish(db, outLevel)
		if ferr != nil {
			return ferr
		}
		outputs = append(outputs, fm)
		b = nil
		return nil
	}
	fail := func(e error) ([]*fileMeta, uint64, error) {
		if b != nil {
			b.abandon()
		}
		// Finished outputs were already renamed to their final names but
		// never committed to the manifest; remove them eagerly (a crashed
		// process would instead leave them for loadTables' orphan sweep).
		for _, fm := range outputs {
			fm.markObsolete()
			fm.unref()
		}
		return nil, 0, e
	}

	// Walk entries grouped by user key (entries per key arrive newest
	// first thanks to the complemented-sequence encoding).
	var curPrefix []byte
	var operands [][]byte // newest first
	var newestIKey []byte
	resolved := false // base (put/delete) seen for current key

	flushKey := func() error {
		defer func() {
			operands = operands[:0]
			newestIKey = nil
			resolved = false
		}()
		if newestIKey == nil || len(operands) == 0 {
			return nil // nothing pending: put/delete was emitted eagerly
		}
		// Combine pending merge operands. With a resolved base they were
		// already folded into a put; reaching here means no base existed
		// in the inputs.
		combined := combineMerge(nil, operands)
		if bottommost {
			// Nothing deeper can hold a base: finalize as a put.
			return emit(rekey(newestIKey, kindPut), combined)
		}
		return emit(rekey(newestIKey, kindMerge), combined)
	}

	for mi.valid() {
		ikey, value := mi.key(), mi.value()
		prefix := ikeyUserPrefix(ikey)
		if curPrefix == nil || !bytes.Equal(prefix, curPrefix) {
			if err := flushKey(); err != nil {
				return fail(err)
			}
			curPrefix = append(curPrefix[:0], prefix...)
			// Cut files only at user-key boundaries so deeper levels keep
			// at most one file per user key.
			if b != nil && b.w.EstimatedSize() >= uint64(targetFileSize) {
				if err := cut(); err != nil {
					return fail(err)
				}
			}
		}
		if resolved {
			// Shadowed by a newer put/delete for the same key: drop.
			if ikey[len(ikey)-1] == kindDelete {
				droppedTombstones++
			}
			mi.next()
			continue
		}
		switch ikey[len(ikey)-1] {
		case kindPut:
			resolved = true
			head := newestIKey
			if head == nil {
				head = ikey
			}
			if err := emit(rekey(head, kindPut), combineMerge(value, operands)); err != nil {
				return fail(err)
			}
			operands = operands[:0]
			newestIKey = nil
		case kindDelete:
			resolved = true
			if len(operands) > 0 {
				head := newestIKey
				if err := emit(rekey(head, kindPut), combineMerge(nil, operands)); err != nil {
					return fail(err)
				}
			} else if bottommost {
				droppedTombstones++
			} else {
				if err := emit(append([]byte(nil), ikey...), nil); err != nil {
					return fail(err)
				}
			}
			operands = operands[:0]
			newestIKey = nil
		case kindMerge:
			if newestIKey == nil {
				newestIKey = append([]byte(nil), ikey...)
			}
			operands = append(operands, append([]byte(nil), value...))
		}
		mi.next()
	}
	if err := mi.err(); err != nil {
		return fail(err)
	}
	if err := flushKey(); err != nil {
		return fail(err)
	}
	if err := cut(); err != nil {
		return fail(err)
	}
	return outputs, droppedTombstones, nil
}

// rekey replaces the kind byte of an internal key, preserving user key
// and sequence.
func rekey(ikey []byte, kind byte) []byte {
	out := append([]byte(nil), ikey...)
	out[len(out)-1] = kind
	return out
}

// mergeIter merge-sorts several table iterators by internal key. Internal
// keys are globally unique, so no tie-breaking is needed.
type mergeIter struct {
	h mergeHeap
	e error
}

type mergeItem struct {
	it *sstable.Iterator
}

type mergeHeap []*mergeItem

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return bytes.Compare(h[i].it.Key(), h[j].it.Key()) < 0 }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// newMergeIter reads the inputs past the block cache: they are about to
// be deleted, so caching their blocks would only evict live ones.
func newMergeIter(inputs []*fileMeta) *mergeIter {
	m := &mergeIter{}
	for _, fm := range inputs {
		it := fm.reader.SeqIter()
		it.First()
		if it.Err() != nil {
			m.e = it.Err()
			continue
		}
		if it.Valid() {
			m.h = append(m.h, &mergeItem{it: &it})
		}
	}
	heap.Init(&m.h)
	return m
}

func (m *mergeIter) valid() bool   { return m.e == nil && len(m.h) > 0 }
func (m *mergeIter) key() []byte   { return m.h[0].it.Key() }
func (m *mergeIter) value() []byte { return m.h[0].it.Value() }
func (m *mergeIter) err() error    { return m.e }

func (m *mergeIter) next() {
	top := m.h[0]
	top.it.Next()
	if err := top.it.Err(); err != nil {
		m.e = err
		return
	}
	if top.it.Valid() {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
}
