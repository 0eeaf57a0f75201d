package lsm

import (
	"bytes"
	"fmt"

	"gadget/internal/kv"
	"gadget/internal/sstable"
	"gadget/internal/vfs"
)

// CheckpointTo writes a consistent, openable copy of the database into
// dir — the native fast path for LSM/Lethe checkpoints. Because sorted
// tables are immutable and the version pins them, the bulk of the state
// transfers as hard links (vfs.LinkOrCopy; a byte copy on filesystems
// without links): no key iteration, no rewrite. Only the pinned
// memtables are serialized, each into one L0 table holding exactly the
// entries at or below the checkpoint sequence, numbered above every
// linked table so L0 recency order (newest first = highest number) is
// preserved on open. The MANIFEST committed last is the atomicity
// point, exactly as in a flush.
//
// The resulting directory is a full database: lsm.Open (or lethe.Open)
// on it yields the checkpointed state. This path is what makes
// checkpoint cost on MVCC engines proportional to the memtable, not the
// store; the portable kv.Checkpointer format remains the interchange
// used by the recovery runner, since every engine can consume it.
func (db *DB) CheckpointTo(dir string) error {
	fs := db.opts.FS
	if dir == db.opts.Dir {
		return fmt.Errorf("lsm: checkpoint dir must differ from the database dir")
	}

	// Pin the view: sequence horizon, memtables, and a reference on every
	// live table so compaction cannot delete them mid-copy.
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return kv.ErrClosed
	}
	seq := db.seq
	mems := make([]*memtable, 0, len(db.imm)+1)
	mems = append(mems, db.imm...) // oldest first...
	mems = append(mems, db.mem)    // ...active (newest) last
	var pinned []*fileMeta
	var levels [numLevels][]uint64
	var maxNum uint64
	for lvl, files := range db.version.levels {
		for _, fm := range files {
			fm.ref()
			pinned = append(pinned, fm)
			levels[lvl] = append(levels[lvl], fm.num)
			if fm.num > maxNum {
				maxNum = fm.num
			}
		}
	}
	db.mu.RUnlock()
	defer func() {
		for _, fm := range pinned {
			fm.unref()
		}
	}()

	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var manifest bytes.Buffer
	fmt.Fprintln(&manifest, manifestHeader)
	for lvl, nums := range levels {
		for _, num := range nums {
			if err := vfs.LinkOrCopy(fs, tablePath(db.opts.Dir, num), tablePath(dir, num)); err != nil {
				return err
			}
			fmt.Fprintf(&manifest, "%06d %d\n", num, lvl)
		}
	}

	num := maxNum
	for _, m := range mems {
		// Snapshot the qualifying entries under the read lock (skiplist
		// inserts race with unlocked readers); insert-only arenas make
		// the collected slices stable after release.
		type rec struct{ ikey, val []byte }
		var recs []rec
		db.mu.RLock()
		tombAt := m.earliestTombstone
		it := m.sl.Iter()
		for it.First(); it.Valid(); it.Next() {
			eseq, _, err := ikeyTrailer(it.Key())
			if err != nil {
				db.mu.RUnlock()
				return err
			}
			if eseq > seq {
				continue
			}
			recs = append(recs, rec{it.Key(), it.Value()})
		}
		db.mu.RUnlock()
		if len(recs) == 0 {
			continue
		}
		num++
		path := tablePath(dir, num)
		f, err := vfs.Create(fs, path+".tmp")
		if err != nil {
			return err
		}
		w := sstable.NewWriter(f)
		w.FilterKey = filterUserKey
		if db.opts.DisableBloom {
			w.BloomBitsPerKey = -1
		}
		b := &tableBuilder{fs: fs, w: w, f: f, path: path, num: num}
		for _, r := range recs {
			if err := b.add(r.ikey, r.val, tombAt); err != nil {
				b.abandon()
				return err
			}
		}
		if err := b.seal(0); err != nil {
			return err
		}
		if err := fs.SyncDir(dir); err != nil {
			return err
		}
		fmt.Fprintf(&manifest, "%06d 0\n", num)
	}

	// Commit: the manifest rename (plus directory sync inside
	// WriteFileAtomic) makes the checkpoint visible atomically.
	return vfs.WriteFileAtomic(fs, manifestPath(dir), manifest.Bytes(), 0o644)
}

// seal finishes the table on disk — properties, writer close, sync,
// rename — without reopening it for reads (CheckpointTo never serves
// queries from the tables it writes; finish does this half plus open).
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
