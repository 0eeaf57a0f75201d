package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gadget/internal/bloom"
	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/sstable"
	"gadget/internal/vfs"
)

// hotKeys is a small key set that exercises the escape encoding: binary
// StateKey-shaped keys full of zero bytes, keys that are byte-prefixes
// of each other, and keys made only of 0x00.
func hotKeys() [][]byte {
	keys := [][]byte{
		{0x00}, {0x00, 0x00}, {0x00, 0x01}, {0x00, 0xFF},
		[]byte("a"), []byte("a\x00"), []byte("a\x00b"), []byte("a\x00\x00"),
		[]byte("ab"), []byte("k\x00\xff\x00"), []byte("\xff"), []byte("\xff\x00"),
	}
	for i := 0; i < 28; i++ {
		k := make([]byte, 16)
		binary.BigEndian.PutUint64(k[:8], uint64(i*257))
		binary.BigEndian.PutUint64(k[8:], uint64(i%3))
		keys = append(keys, k)
	}
	return keys
}

// crashReopen abandons db the way a killed process would — the WAL's
// user-space buffer reaches the file, the memtables do not, and the
// worker runs nothing more — and opens the directory again, so the new
// memtable (and its index) is rebuilt by WAL replay alone.
func crashReopen(t *testing.T, db *DB, opts Options) *DB {
	t.Helper()
	db.mu.Lock()
	err := db.wal.buf.Flush()
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	db.kill()
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db2
}

// kill stops db's worker as a killed process stops it: the steps still
// queued never run. A step already running completes, which is a crash
// point like any other. The DB refuses everything afterwards.
func (db *DB) kill() {
	db.mu.Lock()
	db.closed = true
	db.finished += uint64(len(db.steps))
	db.steps = nil
	db.cond.Broadcast()
	db.mu.Unlock()
	<-db.workerDone
}

// TestPointReadDifferential interleaves Put/Merge/Delete/Get over a hot
// key set against the memstore oracle, with write buffers so small that
// answers come from the active memtable, the frozen one, L0 and L1. An
// index or filter that ever misses a key its layer holds, or an index
// entry that is not the key's newest version, shows up as a wrong answer:
// every mutation is read back at once, and every key is read after each
// reopen.
func TestPointReadDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opts := Options{
				Dir:                 "db",
				FS:                  vfs.NewMemFS(),
				MemtableSize:        1 << 10,
				BlockCacheSize:      64 << 10,
				L0CompactionTrigger: 2,
				BaseLevelSize:       8 << 10,
				LevelMultiplier:     4,
				WAL:                 true,
			}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			oracle := memstore.New()
			keys := hotKeys()
			rng := rand.New(rand.NewSource(seed))

			check := func(step int, k []byte) {
				t.Helper()
				want, werr := oracle.Get(k)
				got, gerr := db.Get(k)
				sameGet(t, fmt.Sprintf("step %d:", step), k, got, gerr, want, werr)
			}
			checkAll := func(step int) {
				t.Helper()
				for _, k := range keys {
					check(step, k)
				}
			}

			var sawFrozen, sawL0, sawL1 bool
			const steps = 24000
			for i := 0; i < steps; i++ {
				k := keys[rng.Intn(len(keys))]
				switch r := rng.Intn(100); {
				case r < 30:
					v := []byte(fmt.Sprintf("v%d", i))
					if err := db.Put(k, v); err != nil {
						t.Fatal(err)
					}
					oracle.Put(k, v)
				case r < 55:
					op := []byte(fmt.Sprintf("+%d", i%7))
					if err := db.Merge(k, op); err != nil {
						t.Fatal(err)
					}
					oracle.Merge(k, op)
				case r < 70:
					if err := db.Delete(k); err != nil {
						t.Fatal(err)
					}
					oracle.Delete(k)
				}
				check(i, k)

				db.mu.RLock()
				sawFrozen = sawFrozen || (len(db.imm) > 0 && db.imm[0].len() > 0)
				sawL0 = sawL0 || len(db.version.levels[0]) > 0
				sawL1 = sawL1 || len(db.version.levels[1]) > 0
				db.mu.RUnlock()

				switch {
				case i%6000 == 5999:
					db = crashReopen(t, db, opts)
					checkAll(i)
				case i == steps/2:
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = Open(opts); err != nil {
						t.Fatal(err)
					}
					checkAll(i)
				}
			}
			checkAll(steps)
			if !sawFrozen || !sawL0 || !sawL1 {
				t.Fatalf("layers not all exercised: frozen=%v L0=%v L1=%v", sawFrozen, sawL0, sawL1)
			}
			st := db.StatsSnapshot()
			if st.MemFilterChecks == 0 || st.MemFilterNegatives == 0 || st.MemFilterNegatives > st.MemFilterChecks {
				t.Fatalf("memfilter counters: checks=%d negatives=%d", st.MemFilterChecks, st.MemFilterNegatives)
			}
			m := db.Metrics()
			if m["lsm.memfilter_checks"] != int64(st.MemFilterChecks) || m["lsm.memfilter_negatives"] != int64(st.MemFilterNegatives) {
				t.Fatalf("Metrics() disagrees with StatsSnapshot(): %d/%d vs %d/%d",
					m["lsm.memfilter_checks"], m["lsm.memfilter_negatives"], st.MemFilterChecks, st.MemFilterNegatives)
			}
		})
	}
}

// TestMergeOperandsSplitAcrossLayers pins one key's operands to L1, L0,
// the frozen memtable and the active one, then reads them back in order.
func TestMergeOperandsSplitAcrossLayers(t *testing.T) {
	opts := smallOpts()
	opts.MemtableSize = 1 << 20
	db := testDB(t, opts)
	k := []byte("op\x00key")
	db.Merge(k, []byte("a"))
	db.Flush()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Merge(k, []byte("b"))
	db.Put([]byte("pad"), nil) // a second L0 file triggers L0 -> L1
	db.Flush()
	db.Compact()
	db.Merge(k, []byte("c"))
	db.Flush() // L0
	db.Merge(k, []byte("d"))
	freezeMemtable(db)
	db.Merge(k, []byte("e"))
	counts := db.LevelFileCounts()
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("want tables in L0 and L1, have %v", counts)
	}
	if v, err := db.Get(k); err != nil || string(v) != "abcde" {
		t.Fatalf("Get = %q, %v; want abcde", v, err)
	}
	db.Delete(k)
	if _, err := db.Get(k); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("Get after Delete: %v", err)
	}
	db.Merge(k, []byte("f"))
	if v, _ := db.Get(k); string(v) != "f" {
		t.Fatalf("Get after Delete+Merge = %q", v)
	}
}

// TestPointPathAllocs bounds the allocations of the point operations: a
// Get builds its key on the stack, probes with stack iterators and hands
// out the memtable's own bytes; a Put builds its key in a reused buffer
// and the memtable copies the entry into its arena, which allocates only
// when a chunk, the node array or the index grows.
func TestPointPathAllocs(t *testing.T) {
	opts := smallOpts()
	opts.MemtableSize = 64 << 10
	opts.WAL = true
	db := testDB(t, opts)
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 4000; i++ {
		db.Put(benchKey(i), val)
	}
	// AllocsPerRun counts every goroutine's allocations: the worker's
	// flushes must be done before anything is measured.
	db.settle()
	counts := db.LevelFileCounts()
	db.mu.RLock()
	frozen := len(db.imm)
	db.mu.RUnlock()
	if counts[0]+counts[1]+counts[2] == 0 || frozen == 0 {
		t.Fatalf("want tables and a frozen memtable, have levels %v, %d frozen", counts, frozen)
	}

	absent := benchKey(1 << 40)
	if got := testing.AllocsPerRun(200, func() {
		if _, err := db.Get(absent); err != kv.ErrNotFound {
			t.Fatalf("Get(absent) = %v", err)
		}
	}); got > 0 {
		t.Errorf("Get that misses every layer: %.1f allocs, want 0", got)
	}

	hot := benchKey(3999) // the last key written sits in the active memtable
	if got := testing.AllocsPerRun(200, func() {
		if _, err := db.Get(hot); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Get served by the memtable: %.1f allocs, want <= 1", got)
	}

	// Puts are measured where none of them fills the buffer: a flush
	// allocates by the thousand.
	opts.MemtableSize = 8 << 20
	opts.Dir = ""
	db = testDB(t, opts)
	keys := make([][]byte, 500)
	for i := range keys {
		keys[i] = benchKey(i)
	}
	i := 0
	if got := testing.AllocsPerRun(2000, func() {
		i++
		if err := db.Put(keys[i%len(keys)], val); err != nil { // new keys, then rewrites
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("Put: %.1f allocs, want 0 (amortised over chunk growth)", got)
	}
}

// TestTableFilterBytesUnchanged pins the persisted Bloom filter: the
// point path now hashes a key once and hands the hash to every table,
// which is only sound while the hash and the bit layout are the ones
// existing tables were written with. The expected bytes were produced by
// the code before Hash/MayContainHash existed.
func TestTableFilterBytesUnchanged(t *testing.T) {
	bl := bloom.NewBuilder()
	for _, k := range []string{"alpha", "beta", "gamma", "delta", "a\x00b"} {
		bl.Add(filterUserKey(makeIKey([]byte(k), 42, kindPut)))
	}
	got := bl.Build(10).Bytes()
	want := []byte{
		0x06, 0x00, 0x00, 0x00,
		0x2a, 0x54, 0x14, 0x42, 0xbb, 0xaa, 0x55, 0x04,
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("serialized filter changed:\n got  % x\n want % x", got, want)
	}
	f := bloom.FromBytes(want)
	for _, k := range []string{"alpha", "beta", "gamma", "delta", "a\x00b"} {
		lk := appendLookupKey(nil, []byte(k))
		if !f.MayContainHash(bloom.Hash(ikeyUserPrefix(lk))) {
			t.Fatalf("reloaded filter rejects %q by hash", k)
		}
	}
}

// TestTableProbeByHash checks the sstable entry point the point path
// uses against the one it replaces, on a table built through the LSM's
// own builder.
func TestTableProbeByHash(t *testing.T) {
	db := testDB(t, smallOpts())
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
	}
	db.Flush()
	db.mu.RLock()
	defer db.mu.RUnlock()
	var readers []*sstable.Reader
	for _, lvl := range db.version.levels {
		for _, fm := range lvl {
			readers = append(readers, fm.reader)
		}
	}
	if len(readers) == 0 {
		t.Fatal("no tables")
	}
	for i := 0; i < 2000; i++ {
		lk := appendLookupKey(nil, []byte(fmt.Sprintf("key-%04d", i)))
		h := bloom.Hash(ikeyUserPrefix(lk))
		for _, r := range readers {
			if r.MayContainHash(h) != r.MayContain(lk) {
				t.Fatalf("key %d: MayContainHash disagrees with MayContain", i)
			}
		}
	}
}

// TestConcurrentGetsSeeEveryWrittenKey runs readers against the memtable
// indexes and table filters while a writer fills and rotates the
// memtables behind them: a key the writer has published must be found
// wherever it has moved to.
func TestConcurrentGetsSeeEveryWrittenKey(t *testing.T) {
	opts := smallOpts()
	opts.MemtableSize = 4 << 10
	db := testDB(t, opts)
	const n = 6000
	var written atomic.Int64 // keys [0, written) are in the store
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				w := written.Load()
				if w == n {
					return
				}
				if w == 0 {
					runtime.Gosched()
					continue
				}
				i := rng.Int63n(w)
				if v, err := db.Get(benchKey(int(i))); err != nil || string(v) != fmt.Sprint(i) {
					t.Errorf("Get(key %d) with %d written = %q, %v", i, w, v, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < n; i++ {
		if err := db.Put(benchKey(i), []byte(fmt.Sprint(i))); err != nil {
			t.Error(err)
			break
		}
		written.Store(int64(i + 1))
	}
	written.Store(n)
	wg.Wait()
}
