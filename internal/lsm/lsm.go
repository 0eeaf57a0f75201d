// Package lsm implements a log-structured merge-tree key-value store in
// the role RocksDB plays in the paper: skiplist memtables, sorted-table
// files organized into levels, size-tiered L0 with leveled compaction
// below, Bloom filters, a shared block cache, tombstones, and a RocksDB
// StringAppend-style merge operator for lazy updates. An optional
// write-ahead log provides durability of the memtable across restarts.
//
// Flushes and compactions run on one background worker per DB, in the
// order the memtable rotations queued them: each rotation's step flushes
// and compacts exactly what it would if the writer ran it itself, so the
// tables, their numbers and every byte count repeat for a given sequence
// of writes; only when the work happens depends on timing. A writer
// waits for the worker only when the next write buffer fills while an
// earlier one is still due to be flushed. The delete-aware Lethe
// variant plugs in through the CompactionPicker interface (see package
// lethe).
package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// MaxImmutables is how many frozen memtables a rotation leaves
	// unflushed (default 1, i.e. two write buffers as in the paper's
	// configuration). One more may wait while the worker flushes the due
	// one; a writer that fills a buffer beyond that waits for the flush.
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
	// StallNanos is the time a writer waited for the worker.
	StallNanos uint64
	// BgNanos is the time the worker spent running flush and compaction
	// steps.
	BgNanos uint64
	// ImmutablesPeak is the most frozen memtables a rotation has left at
	// once: MaxImmutables+1 while the worker keeps up, one more when a
	// writer had to wait for it.
	ImmutablesPeak uint64
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
	wal     *walWriter
	closed  bool
	stats   Stats
	bloom   bloomCounters

	// The worker's queue, under mu. steps holds, for every rotation not
	// yet run, the memtable it froze. finished counts the steps run, or
	// dropped after a failure, out of queued. cond (on mu) wakes the
	// worker, writers waiting for a flush, and settle.
	steps            []*memtable
	queued, finished uint64
	cond             *sync.Cond
	// bgErr is the first failure of a worker step. It stops further
	// steps and every later write; reads keep being served.
	bgErr      error
	workerDone chan struct{}
	// work serializes changes to the table tree — the worker's steps,
	// Flush, Compact and Close — and guards nextNum. The version changes
	// only under both work and mu, so work alone suffices to read it.
	work    sync.Mutex
	nextNum uint64

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
	db.cond = sync.NewCond(&db.mu)
	db.workerDone = make(chan struct{})
	go db.runWorker()
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
	if db.bgErr != nil {
		return db.bgErr
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
		db.rotateLocked()
	}
	return nil
}

// rotateLocked freezes the active memtable and queues its step for the
// worker. The writer goes on at once, unless the memtable it just froze
// is one more than the worker may leave queued: then it waits for the
// worker to flush the due one. Called with mu held.
func (db *DB) rotateLocked() {
	m := db.mem
	db.imm = append(db.imm, m)
	db.stats.ImmutablesPeak = max(db.stats.ImmutablesPeak, uint64(len(db.imm)))
	db.mem = newMemtable()
	db.steps = append(db.steps, m)
	db.queued++
	db.cond.Broadcast()
	if !db.writerWaitsLocked() {
		return
	}
	t0 := time.Now()
	for db.writerWaitsLocked() {
		db.cond.Wait()
	}
	db.stats.StallNanos += uint64(time.Since(t0))
}

func (db *DB) writerWaitsLocked() bool {
	return len(db.imm) > db.opts.MaxImmutables+1 && db.bgErr == nil && !db.closed
}

// runWorker is the worker goroutine Open starts and Close joins. It runs
// the queued steps in order until Close has been called and the queue
// is empty; after a failed step it drops the rest.
func (db *DB) runWorker() {
	defer close(db.workerDone)
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		for len(db.steps) == 0 && !db.closed {
			db.cond.Wait()
		}
		if len(db.steps) == 0 {
			return
		}
		m := db.steps[0]
		db.steps[0] = nil
		db.steps = db.steps[1:]
		if db.bgErr == nil {
			db.mu.Unlock()
			busy, err := db.rotationStep(m)
			db.mu.Lock()
			db.stats.BgNanos += uint64(busy)
			if err != nil {
				db.bgErr = fmt.Errorf("lsm: background flush or compaction: %w", err)
			}
		}
		db.finished++
		db.cond.Broadcast()
	}
}

// rotationStep runs the step the rotation that froze m queued: flush
// the oldest immutables while more than MaxImmutables of those frozen
// up to m are left, then compact. It returns the time the step took
// once it held work.
func (db *DB) rotationStep(m *memtable) (time.Duration, error) {
	db.work.Lock()
	defer db.work.Unlock()
	t0 := time.Now()
	err := db.flushThrough(m, db.opts.MaxImmutables)
	if err == nil {
		err = db.maybeCompact()
	}
	return time.Since(t0), err
}

// settle waits until every step queued before the call has finished, so
// that what it reads next includes the work those writes caused.
func (db *DB) settle() {
	db.mu.Lock()
	for t := db.queued; db.finished < t; {
		db.cond.Wait()
	}
	db.mu.Unlock()
}

// treeErr reports why the table tree must not change: the DB is closed,
// or a worker step failed. Called with work held.
func (db *DB) treeErr() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return kv.ErrClosed
	}
	return db.bgErr
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

// Flush waits for the queued worker steps, then writes the active
// memtable and every immutable one to disk (mainly for tests).
func (db *DB) Flush() error {
	db.settle()
	db.work.Lock()
	defer db.work.Unlock()
	if err := db.treeErr(); err != nil {
		return err
	}
	return db.flushAll()
}

// flushAll freezes the active memtable and flushes it with every
// immutable one queued before it. Called with work held.
func (db *DB) flushAll() error {
	db.mu.Lock()
	if db.mem.len() > 0 {
		db.imm = append(db.imm, db.mem)
		db.mem = newMemtable()
	}
	var last *memtable
	if n := len(db.imm); n > 0 {
		last = db.imm[n-1]
	}
	db.mu.Unlock()
	if last == nil {
		return nil
	}
	return db.flushThrough(last, 0)
}

// flushThrough flushes the oldest immutable memtables until at most keep
// of those frozen up to and including m are left. Called with work held.
func (db *DB) flushThrough(m *memtable, keep int) error {
	for {
		db.mu.RLock()
		due := slices.Index(db.imm, m)+1 > keep
		var oldest *memtable
		if due {
			oldest = db.imm[0]
		}
		db.mu.RUnlock()
		if !due {
			return nil
		}
		if err := db.flushOldest(oldest); err != nil {
			return err
		}
	}
}

// Compact waits for the queued worker steps, then runs compactions until
// the picker is satisfied (for tests).
func (db *DB) Compact() error {
	db.settle()
	db.work.Lock()
	defer db.work.Unlock()
	if err := db.treeErr(); err != nil {
		return err
	}
	return db.maybeCompact()
}

// CacheStats reports block cache hits and misses.
func (db *DB) CacheStats() (hits, misses uint64) {
	return db.cache.Stats()
}

// StatsSnapshot returns the engine counters once every worker step
// queued before the call has finished, so that they include the flushes
// and compactions the writes so far have caused.
func (db *DB) StatsSnapshot() Stats {
	db.settle()
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
		BgNanos:             db.stats.BgNanos,
		ImmutablesPeak:      db.stats.ImmutablesPeak,
		BloomChecks:         db.bloom.checks.Load(),
		BloomNegatives:      db.bloom.negatives.Load(),
		BloomFalsePositives: db.bloom.falsePos.Load(),
		MemFilterChecks:     db.memFilterChecks.Load(),
		MemFilterNegatives:  db.memFilterNegatives.Load(),
	}
}

// Metrics implements kv.Introspector: engine counters under "lsm.*",
// including compaction/flush activity, write-stall and worker time,
// Bloom filter effectiveness, block cache hit ratio inputs, and
// per-level file counts and bytes. Like StatsSnapshot it first waits for
// the worker steps queued before the call.
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
		"lsm.bg_nanos":              int64(st.BgNanos),
		"lsm.immutables_peak":       int64(st.ImmutablesPeak),
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

// Close refuses further writes, lets the worker finish the steps queued
// before it and exit, flushes the memtables and releases all file
// handles. After a failed worker step it flushes nothing, keeps the
// write-ahead log for the next Open to replay, still releases
// everything, and returns that failure.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.cond.Broadcast()
	db.mu.Unlock()
	<-db.workerDone
	db.work.Lock()
	defer db.work.Unlock()
	err := db.bgErr
	if err == nil {
		err = db.flushAll()
	}
	if db.wal != nil {
		db.wal.close()
		if err == nil {
			// Every entry is in a table; the log is stale.
			db.opts.FS.Remove(filepath.Join(db.opts.Dir, walName))
		}
	}
	for _, lvl := range db.version.levels {
		for _, fm := range lvl {
			// Live snapshots keep their pinned tables (but not the WAL or
			// cache) usable past Close; the handle closes on last unref.
			if uerr := fm.unref(); uerr != nil && err == nil {
				err = uerr
			}
		}
	}
	return err
}

// version tracks the current file layout. L0 files are ordered newest
// first; deeper levels are sorted by smallest key and non-overlapping.
type version struct {
	levels [numLevels][]*fileMeta
}

func newVersion() *version { return &version{} }

func (v *version) sortLevels() {
	for lvl, files := range v.levels {
		sortLevel(lvl, files)
	}
}

// sortLevel orders one level's files: L0 newest first, deeper levels by
// smallest key.
func sortLevel(lvl int, files []*fileMeta) {
	if lvl == 0 {
		sort.Slice(files, func(i, j int) bool { return files[i].num > files[j].num })
		return
	}
	sort.Slice(files, func(i, j int) bool {
		return string(files[i].smallest) < string(files[j].smallest)
	})
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
