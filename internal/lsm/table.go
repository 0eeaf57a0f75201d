package lsm

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"gadget/internal/cache"
	"gadget/internal/sstable"
	"gadget/internal/vfs"
)

// Numeric properties persisted in every table.
const (
	propLevel          = "level"
	propMaxSeq         = "maxseq"
	propDeletes        = "deletes"
	propTombstoneNanos = "tombstone_nanos" // earliest tombstone wall time
	propEntries        = "entries"
)

// fileMeta describes one live sorted table.
type fileMeta struct {
	num      uint64
	size     int64
	smallest []byte // internal keys
	largest  []byte
	deletes  uint64
	// tombstoneAt is the earliest wall-clock time a tombstone in this
	// file was created (zero when the file has no tombstones). Lethe's
	// picker prioritizes files whose tombstones have aged past the
	// delete persistence threshold.
	tombstoneAt time.Time
	reader      *sstable.Reader
	file        vfs.File
	path        string
	fs          vfs.FS
	cache       *cache.Cache
	// bloom aggregates Bloom filter outcomes across the DB's tables
	// (points at the owning DB's counters; nil only in unit tests that
	// build a fileMeta directly).
	bloom *bloomCounters

	// refs counts owners of the open table: the version that installed it
	// plus any live snapshots pinning it. The last unref closes the file;
	// if the table was marked obsolete (compacted away) it is also
	// removed from cache and disk at that point. Deferring the removal is
	// safe because file numbers are never reused within a process.
	refs     atomic.Int32
	obsolete atomic.Bool
}

// bloomCounters tracks filter effectiveness DB-wide. Probes run under
// the DB's read lock, so the fields are atomics.
type bloomCounters struct {
	checks    atomic.Uint64 // point lookups that consulted a filter
	negatives atomic.Uint64 // lookups the filter rejected (table skipped)
	falsePos  atomic.Uint64 // filter said maybe, table had nothing
}

func (fm *fileMeta) ref() { fm.refs.Add(1) }

// unref drops one owner. The final unref closes the file handle and, for
// obsolete tables, invalidates cached blocks and deletes the file.
func (fm *fileMeta) unref() error {
	if fm.refs.Add(-1) != 0 {
		return nil
	}
	err := fm.file.Close()
	if fm.obsolete.Load() {
		if fm.cache != nil {
			fm.cache.InvalidateFile(fm.num)
		}
		if fm.fs != nil {
			fm.fs.Remove(fm.path)
		}
	}
	return err
}

// markObsolete flags the table for deletion once every owner lets go.
func (fm *fileMeta) markObsolete() { fm.obsolete.Store(true) }

// get probes the table for the user key whose lookup key is lk, with the
// same contract as memtable.get. h is bloom.Hash of lk's user-key prefix
// (what filterUserKey feeds the table's filter), hashed once per Get.
func (fm *fileMeta) get(lk []byte, h uint64, operands *[][]byte) ([]byte, lookupResult, error) {
	if fm.bloom != nil {
		fm.bloom.checks.Add(1)
	}
	if !fm.reader.MayContainHash(h) {
		if fm.bloom != nil {
			fm.bloom.negatives.Add(1)
		}
		return nil, lookupMissing, nil
	}
	prefix := ikeyUserPrefix(lk)
	it := fm.reader.Iter()
	it.SeekGE(lk)
	res := lookupMissing
	found := false
	for ; it.Valid(); it.Next() {
		ik := it.Key()
		if !bytes.HasPrefix(ik, prefix) {
			break
		}
		found = true
		switch ik[len(ik)-1] {
		case kindPut:
			v := append([]byte(nil), it.Value()...)
			return v, lookupFound, nil
		case kindDelete:
			return nil, lookupDeleted, nil
		case kindMerge:
			*operands = append(*operands, append([]byte(nil), it.Value()...))
			res = lookupContinue
		}
	}
	if err := it.Err(); err != nil {
		return nil, lookupMissing, err
	}
	if !found && fm.bloom != nil {
		// The filter admitted the key but the table holds no entry for
		// it: a false positive (the measured FPR numerator).
		fm.bloom.falsePos.Add(1)
	}
	return nil, res, nil
}

// overlaps reports whether the file's key range intersects [lo, hi]
// (internal-key prefixes; nil bounds mean unbounded).
func (fm *fileMeta) overlaps(lo, hi []byte) bool {
	if hi != nil && bytes.Compare(ikeyUserPrefix(fm.smallest), hi) > 0 {
		return false
	}
	if lo != nil && bytes.Compare(ikeyUserPrefix(fm.largest), lo) < 0 {
		return false
	}
	return true
}

func tablePath(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.sst", num))
}

// openTable opens an existing table file and builds its metadata.
func openTable(fs vfs.FS, path string, num uint64, c *cache.Cache) (*fileMeta, error) {
	f, err := vfs.Open(fs, path)
	if err != nil {
		return nil, err
	}
	r, err := sstable.Open(f, num, c)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.FilterKey = filterUserKey
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fm := &fileMeta{
		num:      num,
		size:     st.Size(),
		smallest: r.Smallest(),
		largest:  r.Largest(),
		reader:   r,
		file:     f,
		path:     path,
		fs:       fs,
		cache:    c,
	}
	fm.refs.Store(1)
	if d, ok := r.Property(propDeletes); ok {
		fm.deletes = d
	}
	if ns, ok := r.Property(propTombstoneNanos); ok && ns > 0 {
		fm.tombstoneAt = time.Unix(0, int64(ns))
	}
	return fm, nil
}

// filterUserKey maps an internal key to its escaped user-key prefix so
// Bloom lookups by user key work regardless of sequence numbers.
func filterUserKey(ikey []byte) []byte { return ikeyUserPrefix(ikey) }

// tableBuilder wraps an sstable.Writer with tombstone bookkeeping. The
// table is built under a .tmp name and renamed into place only after a
// sync, so a crash mid-build leaves no partial .sst for Open to choke
// on — only a .tmp that loadTables deletes.
type tableBuilder struct {
	fs      vfs.FS
	w       *sstable.Writer
	f       vfs.File
	path    string // final *.sst path; the build happens at path+".tmp"
	num     uint64
	deletes uint64
	maxSeq  uint64
	tombAt  time.Time
}

// newTableBuilder starts a table under the next file number. Called with
// work held.
func (db *DB) newTableBuilder() (*tableBuilder, error) {
	num := db.nextNum
	db.nextNum++
	path := tablePath(db.opts.Dir, num)
	f, err := vfs.Create(db.opts.FS, path+".tmp")
	if err != nil {
		return nil, err
	}
	w := sstable.NewWriter(f)
	w.FilterKey = filterUserKey
	if db.opts.DisableBloom {
		w.BloomBitsPerKey = -1
	}
	return &tableBuilder{fs: db.opts.FS, w: w, f: f, path: path, num: num}, nil
}

func (b *tableBuilder) add(ikey, value []byte, tombAt time.Time) error {
	seq, kind, err := ikeyTrailer(ikey)
	if err != nil {
		return err
	}
	if seq > b.maxSeq {
		b.maxSeq = seq
	}
	if kind == kindDelete {
		b.deletes++
		if b.tombAt.IsZero() || (!tombAt.IsZero() && tombAt.Before(b.tombAt)) {
			b.tombAt = tombAt
		}
	}
	return b.w.Add(ikey, value)
}

// finish seals the table at the given level and reopens it for reads.
func (b *tableBuilder) finish(db *DB, level int) (*fileMeta, error) {
	if err := b.seal(level); err != nil {
		return nil, err
	}
	// The MANIFEST that is about to reference this table commits with a
	// directory sync of its own, but that only covers the manifest entry:
	// the table's rename must be flushed too, or a crash can leave a
	// manifest pointing at a table whose directory entry evaporated.
	if err := b.fs.SyncDir(db.opts.Dir); err != nil {
		b.fs.Remove(b.path)
		return nil, err
	}
	fm, err := openTable(b.fs, b.path, b.num, db.cache)
	if err != nil {
		return nil, err
	}
	fm.bloom = &db.bloom
	return fm, nil
}

// seal finishes the table on disk — properties, writer close, sync,
// rename — without reopening it for reads; finish does this half plus
// the open.
func (b *tableBuilder) seal(level int) error {
	b.w.SetProperty(propLevel, uint64(level))
	b.w.SetProperty(propMaxSeq, b.maxSeq)
	b.w.SetProperty(propDeletes, b.deletes)
	b.w.SetProperty(propEntries, b.w.Count())
	if !b.tombAt.IsZero() {
		b.w.SetProperty(propTombstoneNanos, uint64(b.tombAt.UnixNano()))
	}
	if err := b.w.Close(); err != nil {
		b.abandon()
		return err
	}
	if err := b.f.Sync(); err != nil {
		b.abandon()
		return err
	}
	if err := b.f.Close(); err != nil {
		b.fs.Remove(b.path + ".tmp")
		return err
	}
	if err := b.fs.Rename(b.path+".tmp", b.path); err != nil {
		b.fs.Remove(b.path + ".tmp")
		return err
	}
	return nil
}

// releaseUncommitted closes the new tables of a step whose MANIFEST
// write failed, but leaves their files: the write may have failed after
// its rename, so the MANIFEST on disk may list them. The next Open keeps
// the ones it lists and removes the rest as orphans.
func releaseUncommitted(tables []*fileMeta) {
	for _, fm := range tables {
		fm.unref()
	}
}

// abandon removes a partially written table.
func (b *tableBuilder) abandon() {
	b.f.Close()
	b.fs.Remove(b.path + ".tmp")
}

// flushOldest writes m, the oldest immutable memtable, to a new L0 table
// and installs it. The table and the MANIFEST that commits it are
// written outside mu; mu is held only to pop m and swap in the new L0.
// Called with work held.
func (db *DB) flushOldest(m *memtable) error {
	next := db.version.levels
	var fm *fileMeta
	if m.len() > 0 {
		b, err := db.newTableBuilder()
		if err != nil {
			return err
		}
		it := m.sl.Iter()
		for it.First(); it.Valid(); it.Next() {
			if err := b.add(it.Key(), it.Value(), m.earliestTombstone); err != nil {
				b.abandon()
				return err
			}
		}
		if fm, err = b.finish(db, 0); err != nil {
			return err
		}
		next[0] = append([]*fileMeta{fm}, next[0]...)
		// Commit point: the table is visible to future opens only once the
		// manifest naming it lands.
		if err := db.writeManifest(&next); err != nil {
			releaseUncommitted([]*fileMeta{fm})
			return err
		}
	}
	db.mu.Lock()
	n := copy(db.imm, db.imm[1:])
	db.imm[n] = nil
	db.imm = db.imm[:n]
	if fm != nil {
		db.version.levels = next
		db.stats.Flushes++
		db.stats.BytesFlushed += uint64(fm.size)
	}
	db.cond.Broadcast()
	db.mu.Unlock()
	return nil
}
