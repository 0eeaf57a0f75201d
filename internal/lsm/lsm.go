// Package lsm implements a log-structured merge-tree key-value store in
// the role RocksDB plays in the paper: skiplist memtables, sorted-table
// files organized into levels, size-tiered L0 with leveled compaction
// below, Bloom filters, a shared block cache, tombstones, and a RocksDB
// StringAppend-style merge operator for lazy updates. An optional
// write-ahead log provides durability of the memtable across restarts.
//
// Flushes and compactions run inline on the writing goroutine (the moral
// equivalent of a write stall), keeping behaviour deterministic for
// benchmarking. The delete-aware Lethe variant plugs in through the
// CompactionPicker interface (see package lethe).
package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gadget/internal/bloom"
	"gadget/internal/cache"
	"gadget/internal/kv"
	"gadget/internal/tracing"
	"gadget/internal/vfs"
)

// Options configures a DB. The zero value is usable: defaults mirror the
// paper's RocksDB configuration scaled by a laptop-friendly factor.
type Options struct {
	// Dir is the database directory; required.
	Dir string
	// MemtableSize is the flush threshold in bytes (default 32 MiB,
	// at most 1 GiB: a memtable names its entries by 32-bit refs).
	MemtableSize int64
	// MaxImmutables is how many frozen memtables may queue before the
	// writer flushes inline (default 1, i.e. two write buffers total as
	// in the paper's configuration).
	MaxImmutables int
	// BlockCacheSize is the shared block cache capacity (default 64 MiB).
	BlockCacheSize int64
	// L0CompactionTrigger is the number of L0 files that triggers
	// compaction into L1 (default 4).
	L0CompactionTrigger int
	// BaseLevelSize is the target size of L1 (default 64 MiB); each
	// deeper level is LevelMultiplier times larger.
	BaseLevelSize int64
	// LevelMultiplier is the per-level size ratio (default 10).
	LevelMultiplier int
	// WAL enables the write-ahead log (default off, matching benchmark
	// configurations of embedded streaming state backends).
	WAL bool
	// Picker overrides the compaction policy; nil selects the default
	// leveled picker. The Lethe engine installs its delete-aware picker.
	Picker CompactionPicker
	// SyncWrites fsyncs the WAL on every write when the WAL is enabled.
	SyncWrites bool
	// DisableBloom turns off per-table Bloom filters (ablation knob).
	DisableBloom bool
	// FS is the filesystem the database lives on; nil selects the real
	// filesystem. Tests inject vfs.MemFS or vfs.FaultFS here.
	FS vfs.FS
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MemtableSize <= 0 {
		out.MemtableSize = 32 << 20
	}
	// A memtable's arenas address 4 GiB each. Chunk tails an entry did not
	// fit into can waste up to half of that, so capping the threshold at
	// 1 GiB leaves room for any entry the WAL's 1 GiB record limit lets
	// through.
	out.MemtableSize = min(out.MemtableSize, 1<<30)
	if out.MaxImmutables <= 0 {
		out.MaxImmutables = 1
	}
	if out.BlockCacheSize <= 0 {
		out.BlockCacheSize = 64 << 20
	}
	if out.L0CompactionTrigger <= 0 {
		out.L0CompactionTrigger = 4
	}
	if out.BaseLevelSize <= 0 {
		out.BaseLevelSize = 64 << 20
	}
	if out.LevelMultiplier <= 0 {
		out.LevelMultiplier = 10
	}
	if out.Picker == nil {
		out.Picker = LeveledPicker{}
	}
	out.FS = vfs.OrDefault(out.FS)
	return out
}

// Stats exposes engine counters useful for write-amplification studies.
type Stats struct {
	Flushes      uint64
	Compactions  uint64
	BytesFlushed uint64
	// BytesCompacted is the size of the tables compactions read,
	// BytesCompactedOut the size of the tables they wrote.
	BytesCompacted, BytesCompactedOut uint64
	TombstonesDropped                 uint64
	Gets, Puts, Merges, Deletes       uint64
	// StallNanos is cumulative time writers spent blocked on inline
	// flush/compaction work (the harness's write-stall equivalent).
	StallNanos uint64
	// Bloom filter effectiveness across all tables: probes, filter
	// rejections, and false positives (admitted but absent).
	BloomChecks, BloomNegatives, BloomFalsePositives uint64
	// Memtable index effectiveness: memtables a Get consulted, and how
	// many of them the index ruled out (it is exact: the rest held the
	// key). The names date from the Bloom filter the index replaced.
	MemFilterChecks, MemFilterNegatives uint64
	// MemtableArenaBytes is a gauge: the memory the active and immutable
	// memtables hold (arena chunks, node arrays, indexes), as opposed to
	// the threshold charge ApproximateSize counts.
	MemtableArenaBytes uint64
}

const numLevels = 7

// DB is an LSM key-value store implementing kv.Store.
type DB struct {
	opts  Options
	cache *cache.Cache

	mu      sync.RWMutex
	mem     *memtable
	imm     []*memtable // oldest first
	version *version
	seq     uint64
	nextNum uint64
	wal     *walWriter
	closed  bool
	stats   Stats
	bloom   bloomCounters
	// Memtable index outcomes; atomics because Gets bump them under the
	// read lock.
	memFilterChecks, memFilterNegatives atomic.Uint64
	// ikeyBuf is write's scratch for the internal key, reused under mu.
	ikeyBuf []byte

	// Snapshot accounting (atomics: iterators bump iterOps under the
	// read lock).
	snapshots atomic.Uint64
	iterOps   atomic.Int64
}

var _ kv.Store = (*DB)(nil)

// Open opens (or creates) a database in opts.Dir, loading the sorted
// tables the manifest commits (removing orphans a crash left behind) and
// replaying the surviving write-ahead log tail.
func Open(opts Options) (*DB, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("lsm: Options.Dir is required")
	}
	o := opts.withDefaults()
	if err := o.FS.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	db := &DB{
		opts:    o,
		cache:   cache.New(o.BlockCacheSize),
		mem:     newMemtable(),
		version: newVersion(),
		nextNum: 1,
	}
	if err := db.loadTables(); err != nil {
		return nil, err
	}
	// Everything at or below db.seq is already durable in tables; the
	// WAL replays only the unflushed suffix.
	if err := db.replayWAL(db.seq); err != nil {
		return nil, err
	}
	if o.WAL {
		w, err := newWALWriter(o.FS, filepath.Join(o.Dir, walName), o.SyncWrites)
		if err != nil {
			return nil, err
		}
		db.wal = w
	}
	return db, nil
}

// loadTables reinstalls the tables the manifest lists, deleting *.tmp
// leftovers and orphaned tables from crashed flushes or compactions.
// Directories without a manifest (pre-manifest layouts) fall back to
// scanning *.sst files and trusting their property blocks.
func (db *DB) loadTables() error {
	fs := db.opts.FS
	var listed map[uint64]int
	mdata, err := vfs.ReadFile(fs, manifestPath(db.opts.Dir))
	haveManifest := err == nil
	if haveManifest {
		if listed, err = parseManifest(mdata); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	entries, err := fs.ReadDir(db.opts.Dir)
	if err != nil {
		return err
	}
	found := make(map[uint64]bool, len(listed))
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			fs.Remove(filepath.Join(db.opts.Dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		var num uint64
		if _, err := fmt.Sscanf(name, "%06d.sst", &num); err != nil {
			continue
		}
		if num >= db.nextNum {
			// Never reuse a crashed table's number: a stale cache entry
			// or half-deleted file must not collide with new tables.
			db.nextNum = num + 1
		}
		lvl := 0
		if haveManifest {
			var ok bool
			if lvl, ok = listed[num]; !ok {
				// Orphan: the table was written but its manifest commit
				// never happened (or it was compacted away).
				fs.Remove(filepath.Join(db.opts.Dir, name))
				continue
			}
		}
		fm, err := openTable(fs, filepath.Join(db.opts.Dir, name), num, db.cache)
		if err != nil {
			return fmt.Errorf("lsm: loading %s: %w", name, err)
		}
		fm.bloom = &db.bloom
		if !haveManifest {
			if v, ok := fm.reader.Property(propLevel); ok && int(v) < numLevels {
				lvl = int(v)
			}
		}
		found[num] = true
		db.version.levels[lvl] = append(db.version.levels[lvl], fm)
		if maxSeq, ok := fm.reader.Property(propMaxSeq); ok && maxSeq > db.seq {
			db.seq = maxSeq
		}
	}
	for num := range listed {
		if !found[num] {
			return fmt.Errorf("lsm: manifest lists table %06d but the file is missing", num)
		}
	}
	db.version.sortLevels()
	return nil
}

// Caps advertises native merge plus cheap MVCC snapshots (a pinned
// memtable + version set with sequence filtering) and native ordered
// range scans (merge iterators over sorted runs).
func (db *DB) Caps() kv.Capabilities {
	return kv.Capabilities{NativeMerge: true, Snapshots: true, RangeScans: true}
}

// Put stores value under key.
func (db *DB) Put(key, value []byte) error { return db.write(key, value, kindPut, nil) }

// Merge appends operand to the value under key (lazy read-modify-write).
func (db *DB) Merge(key, operand []byte) error { return db.write(key, operand, kindMerge, nil) }

// Delete removes key by writing a tombstone.
func (db *DB) Delete(key []byte) error { return db.write(key, nil, kindDelete, nil) }

// write applies one mutation. A non-nil trace context receives the
// engine-internal phase attribution (WAL append/fsync vs memtable
// insert); the traced DoTraced entry point passes it, the plain Store
// methods pass nil.
func (db *DB) write(key, value []byte, kind byte, tc *tracing.Ctx) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return kv.ErrClosed
	}
	switch kind {
	case kindPut:
		db.stats.Puts++
	case kindMerge:
		db.stats.Merges++
	case kindDelete:
		db.stats.Deletes++
	}
	db.seq++
	// Neither the log nor the memtable keeps the slices it is handed (the
	// memtable's arena takes the one copy), so the internal key is built
	// in a buffer the next write reuses and a write allocates nothing.
	ikey := appendIKey(db.ikeyBuf[:0], key, db.seq, kind)
	db.ikeyBuf = ikey
	if db.wal != nil {
		tw := tc.Now()
		err := db.wal.append(ikey, value)
		tc.AddSince(tracing.StageEngineWAL, tw)
		if err != nil {
			return err
		}
	}
	tm := tc.Now()
	db.mem.add(ikey, value, kind)
	tc.AddSince(tracing.StageEngineMem, tm)
	if db.mem.approxBytes() >= db.opts.MemtableSize {
		// Rotation may flush and compact inline; the wall time it takes
		// is exactly how long this writer was stalled.
		t0 := time.Now()
		err := db.rotateMemtableLocked()
		db.stats.StallNanos += uint64(time.Since(t0))
		if err != nil {
			return err
		}
	}
	return nil
}

// rotateMemtableLocked freezes the active memtable and flushes queued
// immutables beyond the allowed backlog. Called with mu held.
func (db *DB) rotateMemtableLocked() error {
	db.imm = append(db.imm, db.mem)
	db.mem = newMemtable()
	for len(db.imm) > db.opts.MaxImmutables {
		if err := db.flushOldestLocked(); err != nil {
			return err
		}
	}
	return db.maybeCompactLocked()
}

// Get returns the value under key, resolving merge operands across all
// layers of the tree.
func (db *DB) Get(key []byte) ([]byte, error) { return db.get(key, nil) }

// get is Get with optional engine-phase attribution: a non-nil trace
// context receives memtable-probe time (StageEngineMem) separately from
// SSTable-read time (StageEngineSST).
//
// The escaped lookup key is built once, into a stack buffer for keys of
// ordinary length, and that one slice serves every layer: the memtable
// seeks, the per-level file search and the table seeks. Each filter
// family hashes its user-key prefix once per Get, not once per layer.
func (db *DB) get(key []byte, tc *tracing.Ctx) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, kv.ErrClosed
	}
	// Gets is bumped under the read lock, so it must be atomic: many
	// readers may race on it. Every other counter mutates under mu.
	atomic.AddUint64(&db.stats.Gets, 1)
	var lkBuf [96]byte
	lk := appendLookupKey(lkBuf[:0], key)
	var operands [][]byte

	tm := tc.Now()
	out, err, done := db.memProbeLocked(lk, &operands)
	tc.AddSince(tracing.StageEngineMem, tm)
	if done {
		return out, err
	}

	ts := tc.Now()
	out, err, done = db.sstProbeLocked(lk, &operands)
	tc.AddSince(tracing.StageEngineSST, ts)
	if done {
		return out, err
	}

	// Bottomed out: merge operands with an empty base, or miss.
	if len(operands) > 0 {
		return combineMerge(nil, operands), nil
	}
	return nil, kv.ErrNotFound
}

// memProbeLocked probes the active memtable, then the immutable ones
// newest first, each through its index with the key hashed once for all
// of them: no skiplist is descended. Called with mu read-held.
func (db *DB) memProbeLocked(lk []byte, operands *[][]byte) (out []byte, err error, done bool) {
	h := memHash(ikeyUserPrefix(lk))
	var checks, negatives uint64
	for i := len(db.imm); i >= 0 && !done; i-- {
		m := db.mem // i == len(db.imm): the active memtable, newest of all
		if i < len(db.imm) {
			m = db.imm[i]
		}
		checks++
		v, res := m.get(lk, h, operands)
		if res == lookupMissing {
			negatives++
			continue
		}
		out, err, done = finishLookup(v, res, operands)
	}
	db.memFilterChecks.Add(checks)
	if negatives > 0 {
		db.memFilterNegatives.Add(negatives)
	}
	return out, err, done
}

// sstProbeLocked probes the table files, L0 newest-first then one file
// per deeper level, with the Bloom hash of the key computed once for
// all of them. Called with mu read-held.
func (db *DB) sstProbeLocked(lk []byte, operands *[][]byte) ([]byte, error, bool) {
	prefix := ikeyUserPrefix(lk)
	h := bloom.Hash(prefix)
	// L0: newest file first.
	for _, fm := range db.version.levels[0] {
		v, res, err := fm.get(lk, h, operands)
		if err != nil {
			return nil, err, true
		}
		if out, err, done := finishLookup(v, res, operands); done {
			return out, err, true
		}
	}
	// Deeper levels: at most one file per level contains the key.
	for lvl := 1; lvl < numLevels; lvl++ {
		fm := db.version.fileForKey(lvl, prefix)
		if fm == nil {
			continue
		}
		v, res, err := fm.get(lk, h, operands)
		if err != nil {
			return nil, err, true
		}
		if out, err, done := finishLookup(v, res, operands); done {
			return out, err, true
		}
	}
	return nil, nil, false
}

// finishLookup folds one layer's result into the overall resolution.
func finishLookup(v []byte, res lookupResult, operands *[][]byte) ([]byte, error, bool) {
	switch res {
	case lookupFound:
		return combineMerge(v, *operands), nil, true
	case lookupDeleted:
		if len(*operands) > 0 {
			return combineMerge(nil, *operands), nil, true
		}
		return nil, kv.ErrNotFound, true
	default:
		return nil, nil, false
	}
}

// combineMerge concatenates base with operands applied oldest-to-newest.
// operands arrive newest-first (the order layers are probed).
func combineMerge(base []byte, operands [][]byte) []byte {
	if len(operands) == 0 {
		return base
	}
	size := len(base)
	for _, op := range operands {
		size += len(op)
	}
	out := make([]byte, 0, size)
	out = append(out, base...)
	for i := len(operands) - 1; i >= 0; i-- {
		out = append(out, operands[i]...)
	}
	return out
}

// Flush forces the active memtable to disk (mainly for tests and Close).
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return kv.ErrClosed
	}
	if db.mem.len() > 0 {
		db.imm = append(db.imm, db.mem)
		db.mem = newMemtable()
	}
	for len(db.imm) > 0 {
		if err := db.flushOldestLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Compact runs compactions until the picker is satisfied (for tests).
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.maybeCompactLocked()
}

// CacheStats reports block cache hits and misses.
func (db *DB) CacheStats() (hits, misses uint64) {
	return db.cache.Stats()
}

// Stats returns a snapshot of engine counters.
func (db *DB) StatsSnapshot() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	arena := db.mem.sl.MemBytes()
	for _, m := range db.imm {
		arena += m.sl.MemBytes()
	}
	return Stats{
		Flushes:             db.stats.Flushes,
		Compactions:         db.stats.Compactions,
		BytesFlushed:        db.stats.BytesFlushed,
		BytesCompacted:      db.stats.BytesCompacted,
		BytesCompactedOut:   db.stats.BytesCompactedOut,
		MemtableArenaBytes:  uint64(arena),
		TombstonesDropped:   db.stats.TombstonesDropped,
		Gets:                atomic.LoadUint64(&db.stats.Gets),
		Puts:                db.stats.Puts,
		Merges:              db.stats.Merges,
		Deletes:             db.stats.Deletes,
		StallNanos:          db.stats.StallNanos,
		BloomChecks:         db.bloom.checks.Load(),
		BloomNegatives:      db.bloom.negatives.Load(),
		BloomFalsePositives: db.bloom.falsePos.Load(),
		MemFilterChecks:     db.memFilterChecks.Load(),
		MemFilterNegatives:  db.memFilterNegatives.Load(),
	}
}

// Metrics implements kv.Introspector: engine counters under "lsm.*",
// including compaction/flush activity, write-stall time, Bloom filter
// effectiveness, block cache hit ratio inputs, and per-level file counts
// and bytes.
func (db *DB) Metrics() map[string]int64 {
	st := db.StatsSnapshot()
	hits, misses := db.cache.Stats()
	m := map[string]int64{
		"lsm.flushes":               int64(st.Flushes),
		"lsm.compactions":           int64(st.Compactions),
		"lsm.bytes_flushed":         int64(st.BytesFlushed),
		"lsm.bytes_compacted":       int64(st.BytesCompacted),
		"lsm.bytes_compacted_out":   int64(st.BytesCompactedOut),
		"lsm.memtable_arena_bytes":  int64(st.MemtableArenaBytes),
		"lsm.tombstones_dropped":    int64(st.TombstonesDropped),
		"lsm.gets":                  int64(st.Gets),
		"lsm.puts":                  int64(st.Puts),
		"lsm.merges":                int64(st.Merges),
		"lsm.deletes":               int64(st.Deletes),
		"lsm.stall_nanos":           int64(st.StallNanos),
		"lsm.bloom_checks":          int64(st.BloomChecks),
		"lsm.bloom_negatives":       int64(st.BloomNegatives),
		"lsm.bloom_false_positives": int64(st.BloomFalsePositives),
		"lsm.memfilter_checks":      int64(st.MemFilterChecks),
		"lsm.memfilter_negatives":   int64(st.MemFilterNegatives),
		"lsm.cache_hits":            int64(hits),
		"lsm.cache_misses":          int64(misses),
		"lsm.cache_used_bytes":      db.cache.Used(),
		"lsm.size_bytes":            db.ApproximateSize(),
		"lsm.snapshots":             int64(db.snapshots.Load()),
		"lsm.iter_ops":              db.iterOps.Load(),
	}
	db.mu.RLock()
	for lvl, files := range db.version.levels {
		var bytes int64
		for _, fm := range files {
			bytes += fm.size
		}
		m[fmt.Sprintf("lsm.level%d.files", lvl)] = int64(len(files))
		m[fmt.Sprintf("lsm.level%d.bytes", lvl)] = bytes
	}
	db.mu.RUnlock()
	return m
}

// ApproximateSize returns the total bytes in sorted tables plus memtables.
func (db *DB) ApproximateSize() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var sz int64
	for _, lvl := range db.version.levels {
		for _, fm := range lvl {
			sz += fm.size
		}
	}
	sz += db.mem.approxBytes()
	for _, m := range db.imm {
		sz += m.approxBytes()
	}
	return sz
}

// LevelFileCounts reports the number of files per level (for tests).
func (db *DB) LevelFileCounts() []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]int, numLevels)
	for i, lvl := range db.version.levels {
		out[i] = len(lvl)
	}
	return out
}

// Close flushes the memtable and releases all file handles.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.mu.Unlock()
	// Flush without holding the lock twice.
	if err := db.Flush(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
	if db.wal != nil {
		db.wal.close()
		// The memtable was flushed; the log is stale.
		db.opts.FS.Remove(filepath.Join(db.opts.Dir, walName))
	}
	var firstErr error
	for _, lvl := range db.version.levels {
		for _, fm := range lvl {
			// Live snapshots keep their pinned tables (but not the WAL or
			// cache) usable past Close; the handle closes on last unref.
			if err := fm.unref(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// version tracks the current file layout. L0 files are ordered newest
// first; deeper levels are sorted by smallest key and non-overlapping.
type version struct {
	levels [numLevels][]*fileMeta
}

func newVersion() *version { return &version{} }

func (v *version) sortLevels() {
	sort.Slice(v.levels[0], func(i, j int) bool {
		return v.levels[0][i].num > v.levels[0][j].num // newest first
	})
	for lvl := 1; lvl < numLevels; lvl++ {
		files := v.levels[lvl]
		sort.Slice(files, func(i, j int) bool {
			return string(files[i].smallest) < string(files[j].smallest)
		})
	}
}

// fileForKey returns the single file at lvl (>=1) whose range covers the
// user key with escaped encoding prefix, or nil.
func (v *version) fileForKey(lvl int, prefix []byte) *fileMeta {
	files := v.levels[lvl]
	// First file whose largest key is >= prefix.
	i, j := 0, len(files)
	for i < j {
		m := int(uint(i+j) >> 1)
		if bytes.Compare(files[m].largest, prefix) < 0 {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == len(files) {
		return nil
	}
	fm := files[i]
	// prefix must be >= smallest's user prefix; compare against smallest.
	if bytes.Compare(prefix, ikeyUserPrefix(fm.smallest)) < 0 {
		return nil
	}
	return fm
}
