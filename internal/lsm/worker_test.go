package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/vfs"
)

// workerOpts makes buffers and levels so small that rotations, flushes
// and compactions interleave with every few writes.
func workerOpts(fs vfs.FS) Options {
	return Options{
		Dir:                 "db",
		FS:                  fs,
		MemtableSize:        2 << 10,
		BlockCacheSize:      64 << 10,
		L0CompactionTrigger: 2,
		BaseLevelSize:       8 << 10,
		LevelMultiplier:     4,
	}
}

// goroutinesBackTo waits for the goroutine count to come back down to
// n, its value before Open. A goroutine that has signalled its end may
// still be on its way out, and so may an earlier subtest's when n was
// read: the count may end below n, never above it.
func goroutinesBackTo(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before Open", runtime.NumGoroutine(), n)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// scanSnapshot reads a whole snapshot through its iterator.
func scanSnapshot(t *testing.T, sn kv.Snapshot) []kv.Entry {
	t.Helper()
	ents, err := kv.CollectIter(sn.Iter(kv.StateKey{}, kv.MaxStateKey))
	if err != nil {
		t.Error(err)
	}
	return ents
}

// RunWorkerScripts runs the worker's concurrency and failure scripts on
// the engine open returns. It is exported for the Lethe variant of the
// same tests, which shares this engine (see worker_lethe_test.go).
func RunWorkerScripts(t *testing.T, open func(Options) (*DB, error)) {
	t.Run("concurrent-snapshots", func(t *testing.T) { workerSnapshotScript(t, open) })
	for _, f := range []struct {
		name string
		plan vfs.FaultPlan
	}{
		{"flush-table-write", vfs.FaultPlan{FailWriteN: 1}},
		{"flush-table-sync", vfs.FaultPlan{FailSyncN: 1}},
		{"flush-table-rename", vfs.FaultPlan{FailRenameN: 1}},
		{"flush-manifest-rename", vfs.FaultPlan{FailRenameN: 2}},
		{"compaction-table-rename", vfs.FaultPlan{FailRenameN: 5}},
	} {
		t.Run("fault/"+f.name, func(t *testing.T) {
			workerFaultScript(t, open, vfs.NewFaultFS(vfs.NewMemFS(), f.plan), false)
		})
	}
	for _, f := range []struct {
		name string
		at   int
	}{
		{"flush-manifest-dirsync", 1},
		{"compaction-manifest-dirsync", 3},
	} {
		t.Run("fault/"+f.name, func(t *testing.T) {
			workerFaultScript(t, open, &manifestSyncFS{FS: vfs.NewMemFS(), at: f.at}, true)
		})
	}
	t.Run("close-during-compaction", func(t *testing.T) { workerCloseScript(t, open) })
}

func TestWorker(t *testing.T) { RunWorkerScripts(t, Open) }

// workerSnapshotScript: four writers, two snapshot readers and the
// worker run at once. A writer applies each mutation to the engine and
// the memstore oracle under one mutex, and a reader takes both
// snapshots under it, so the two are taken at the same sequence; every
// snapshot must then read exactly what the oracle's does, while the
// worker flushes and compacts the tables beneath it.
func workerSnapshotScript(t *testing.T, open func(Options) (*DB, error)) {
	db, err := open(workerOpts(vfs.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	oracle := memstore.New()
	var step sync.Mutex
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1500; i++ {
				k := stateKey(uint64(rng.Intn(4)), uint64(rng.Intn(64)))
				v := []byte(fmt.Sprintf("w%d-%d", w, i))
				var err error
				step.Lock()
				switch r := rng.Intn(10); {
				case r < 5:
					err = db.Put(k, v)
					oracle.Put(k, v)
				case r < 8:
					err = db.Merge(k, v[:3])
					oracle.Merge(k, v[:3])
				default:
					err = db.Delete(k)
					oracle.Delete(k)
				}
				step.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				step.Lock()
				sn, err := db.Snapshot()
				osn, _ := oracle.Snapshot()
				step.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				if d := diffEntries(scanSnapshot(t, sn), scanSnapshot(t, osn)); d != "" {
					t.Errorf("round %d: %s", round, d)
				}
				sn.Close()
				osn.Close()
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	m := db.Metrics()
	if m["lsm.flushes"] == 0 || m["lsm.compactions"] == 0 {
		t.Fatalf("the worker never ran: %d flushes, %d compactions", m["lsm.flushes"], m["lsm.compactions"])
	}
	got, err := kv.ScanAll(db)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := kv.ScanAll(oracle)
	if d := diffEntries(got, want); d != "" {
		t.Fatal(d)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// workerFaultScript fails one table write, sync or rename of a worker
// step, or the directory sync that commits a MANIFEST. The writes after
// it, Flush and Close must report the fault; Get and Snapshot must keep
// serving every acknowledged write; and Close must leave no goroutine
// behind. With reopen, the DB logs its writes and the directory must
// then reopen to every acknowledged one.
func workerFaultScript(t *testing.T, open func(Options) (*DB, error), fsys vfs.FS, reopen bool) {
	n0 := runtime.NumGoroutine()
	opts := workerOpts(fsys)
	opts.WAL = reopen
	db, err := open(opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := memstore.New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50000 && err == nil; i++ {
		k := stateKey(uint64(rng.Intn(4)), uint64(rng.Intn(256)))
		v := bytes.Repeat([]byte{byte('a' + i%26)}, 20+rng.Intn(60))
		if err = db.Put(k, v); err == nil {
			oracle.Put(k, v)
		}
	}
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Put after the failed step: %v", err)
	}
	if err := db.Flush(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Flush after the failed step: %v", err)
	}
	want, _ := kv.ScanAll(oracle)
	for _, e := range want {
		v, err := db.Get(e.Key.Bytes())
		sameGet(t, "after the failed step", e.Key.Bytes(), v, err, e.Value, nil)
	}
	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := diffEntries(scanSnapshot(t, sn), want); d != "" {
		t.Fatal(d)
	}
	sn.Close()
	if err := db.Close(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Close after the failed step: %v", err)
	}
	goroutinesBackTo(t, n0)
	if !reopen {
		return
	}
	re, err := open(opts)
	if err != nil {
		t.Fatalf("reopen after the failed step: %v", err)
	}
	defer re.Close()
	got, err := kv.ScanAll(re)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffEntries(got, want); d != "" {
		t.Fatalf("reopened: %s", d)
	}
}

// manifestSyncFS fails the directory sync that follows the at-th
// rename onto MANIFEST: the new layout is already on disk when the step
// that wrote it sees the error.
type manifestSyncFS struct {
	vfs.FS
	at   int
	mu   sync.Mutex
	n    int
	fail bool
}

func (f *manifestSyncFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	if err == nil && filepath.Base(newpath) == manifestName {
		f.mu.Lock()
		f.n++
		f.fail = f.n == f.at
		f.mu.Unlock()
	}
	return err
}

func (f *manifestSyncFS) SyncDir(name string) error {
	f.mu.Lock()
	fail := f.fail
	f.fail = false
	f.mu.Unlock()
	if fail {
		return vfs.ErrInjected
	}
	return f.FS.SyncDir(name)
}

// gateFS holds the at-th table file a build creates until release is
// closed, signalling entered when the build reaches it.
type gateFS struct {
	vfs.FS
	at      int
	n       int
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if strings.HasSuffix(name, ".sst.tmp") {
		g.mu.Lock()
		g.n++
		hold := g.n == g.at
		g.mu.Unlock()
		if hold {
			close(g.entered)
			<-g.release
		}
	}
	return g.FS.OpenFile(name, flag, perm)
}

// workerCloseScript closes the DB while the worker is inside a
// compaction. With MaxImmutables 1 and an L0 trigger of 2, the third
// table built is the first compaction's output: the gate holds the
// worker there. Close is called from another goroutine; once a write
// reports the DB closed, the gate opens. Close must let the compaction
// and the steps queued behind it finish, flush the rest and return
// cleanly, and the directory must reopen to every acknowledged write.
func workerCloseScript(t *testing.T, open func(Options) (*DB, error)) {
	n0 := runtime.NumGoroutine()
	gate := &gateFS{FS: vfs.NewMemFS(), at: 3, entered: make(chan struct{}), release: make(chan struct{})}
	opts := workerOpts(gate)
	db, err := open(opts)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		<-gate.entered
		closed <- db.Close()
	}()
	oracle := memstore.New()
	rng := rand.New(rand.NewSource(5))
	for i := 0; ; i++ {
		k := stateKey(uint64(rng.Intn(4)), uint64(rng.Intn(256)))
		v := []byte(fmt.Sprintf("v%d", i))
		err := db.Put(k, v)
		if errors.Is(err, kv.ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		oracle.Put(k, v)
	}
	close(gate.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close during a compaction: %v", err)
	}
	goroutinesBackTo(t, n0)

	re, err := open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := kv.ScanAll(re)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := kv.ScanAll(oracle)
	if d := diffEntries(got, want); d != "" {
		t.Fatal(d)
	}
	if m := re.Metrics(); m["lsm.level1.files"] == 0 {
		t.Fatalf("the held compaction never landed: levels %v", re.LevelFileCounts())
	}
}

// TestCompactionBypassesBlockCache: a compaction reads its inputs past
// the block cache and opens its outputs without filling it, so the
// blocks live readers cached stay, and no lookup is counted.
func TestCompactionBypassesBlockCache(t *testing.T) {
	opts := smallOpts()
	opts.MemtableSize = 1 << 20
	opts.BaseLevelSize = 1 << 20
	db := testDB(t, opts)
	val := bytes.Repeat([]byte("v"), 50)
	put := func(group uint64) {
		for i := 0; i < 300; i++ {
			if err := db.Put(stateKey(group, uint64(i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Group 1 goes down to L1, and its blocks into the cache.
	put(1)
	put(1)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := db.Get(stateKey(1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	used := db.cache.Used()
	hits, misses := db.cache.Stats()
	if used == 0 || misses == 0 {
		t.Fatalf("reads cached nothing: %d bytes, %d misses", used, misses)
	}
	// Group 2 is flushed twice and compacted beside it.
	put(2)
	put(2)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := db.StatsSnapshot(); st.Compactions != 2 {
		t.Fatalf("%d compactions, want 2", st.Compactions)
	}
	h, m := db.cache.Stats()
	if u := db.cache.Used(); u != used || h != hits || m != misses {
		t.Fatalf("flushes and a compaction moved the cache: used %d -> %d, hits %d -> %d, misses %d -> %d",
			used, u, hits, h, misses, m)
	}
	for i := 0; i < 300; i++ {
		if v, err := db.Get(stateKey(2, uint64(i))); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("Get after the compaction = %q, %v", v, err)
		}
	}
}

// TestWorkerMetrics: the worker's busy time and the peak of frozen
// memtables are in StatsSnapshot and under their names in Metrics.
func TestWorkerMetrics(t *testing.T) {
	db := testDB(t, smallOpts())
	for i := 0; i < 2000; i++ {
		if err := db.Put(stateKey(1, uint64(i)), bytes.Repeat([]byte("v"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	st, m := db.StatsSnapshot(), db.Metrics()
	if st.Flushes == 0 || st.BgNanos == 0 {
		t.Fatalf("%d flushes in %d ns of worker time", st.Flushes, st.BgNanos)
	}
	// A rotation leaves MaxImmutables+1 frozen, or one more that its
	// writer then waits on.
	if st.ImmutablesPeak < 2 || st.ImmutablesPeak > 3 ||
		m["lsm.immutables_peak"] != int64(st.ImmutablesPeak) || m["lsm.bg_nanos"] != int64(st.BgNanos) {
		t.Fatalf("ImmutablesPeak %d, lsm.immutables_peak %d, lsm.bg_nanos %d; BgNanos %d",
			st.ImmutablesPeak, m["lsm.immutables_peak"], m["lsm.bg_nanos"], st.BgNanos)
	}
}
