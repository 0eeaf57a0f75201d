package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gadget/internal/kv"
)

func testDB(t testing.TB, opts Options) *DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// smallOpts forces frequent flushes/compactions so tests exercise the
// full tree with few operations.
func smallOpts() Options {
	return Options{
		MemtableSize:        8 << 10,
		BlockCacheSize:      1 << 20,
		L0CompactionTrigger: 2,
		BaseLevelSize:       32 << 10,
		LevelMultiplier:     4,
	}
}

func TestPutGetDelete(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("miss err = %v", err)
	}
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := db.Put([]byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get([]byte("a")); string(v) != "2" {
		t.Fatalf("overwrite = %q", v)
	}
	if err := db.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("post-delete err = %v", err)
	}
	if err := db.Delete([]byte("never-existed")); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSemantics(t *testing.T) {
	db := testDB(t, Options{})
	k := []byte("bucket")
	db.Merge(k, []byte("a"))
	db.Merge(k, []byte("b"))
	db.Merge(k, []byte("c"))
	v, err := db.Get(k)
	if err != nil || string(v) != "abc" {
		t.Fatalf("merged = %q, %v", v, err)
	}
	// Put resets the base.
	db.Put(k, []byte("X"))
	db.Merge(k, []byte("y"))
	if v, _ := db.Get(k); string(v) != "Xy" {
		t.Fatalf("put+merge = %q", v)
	}
	// Delete wipes; merges after delete start fresh.
	db.Delete(k)
	db.Merge(k, []byte("z"))
	if v, _ := db.Get(k); string(v) != "z" {
		t.Fatalf("delete+merge = %q", v)
	}
}

func TestMergeAcrossFlushes(t *testing.T) {
	db := testDB(t, smallOpts())
	k := []byte("bucket")
	want := ""
	for i := 0; i < 50; i++ {
		part := fmt.Sprintf("<%d>", i)
		db.Merge(k, []byte(part))
		want += part
		if i%10 == 9 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	v, err := db.Get(k)
	if err != nil || string(v) != want {
		t.Fatalf("merged = %q, want %q (err %v)", v, want, err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get(k); string(v) != want {
		t.Fatalf("post-compaction merged = %q", v)
	}
}

func TestFlushAndRead(t *testing.T) {
	db := testDB(t, smallOpts())
	const n = 2000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if err := db.Put(k, []byte(fmt.Sprintf("val-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if db.StatsSnapshot().Flushes == 0 {
		t.Fatal("expected at least one flush with tiny memtables")
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v, err := db.Get(k)
		if err != nil || string(v) != fmt.Sprintf("val-%05d", i) {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
}

func TestCompactionPreservesData(t *testing.T) {
	db := testDB(t, smallOpts())
	model := map[string]string{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8000; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(1500))
		switch rng.Intn(10) {
		case 0:
			db.Delete([]byte(k))
			delete(model, k)
		case 1, 2:
			op := fmt.Sprintf("+%d", i)
			db.Merge([]byte(k), []byte(op))
			model[k] += op
		default:
			v := fmt.Sprintf("v%d", i)
			db.Put([]byte(k), []byte(v))
			model[k] = v
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.StatsSnapshot().Compactions == 0 {
		t.Fatal("expected compactions with tiny levels")
	}
	for k, want := range model {
		v, err := db.Get([]byte(k))
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, v, err, want)
		}
	}
	// Deleted keys stay deleted.
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if _, ok := model[k]; ok {
			continue
		}
		if _, err := db.Get([]byte(k)); !errors.Is(err, kv.ErrNotFound) {
			t.Fatalf("deleted key %s resurfaced: %v", k, err)
		}
	}
}

func TestTombstonesDroppedAtBottom(t *testing.T) {
	db := testDB(t, smallOpts())
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		db.Put(k, bytes.Repeat([]byte("x"), 64))
		db.Delete(k)
	}
	db.Flush()
	db.Compact()
	st := db.StatsSnapshot()
	if st.TombstonesDropped == 0 {
		t.Fatalf("no tombstones dropped: %+v", st)
	}
}

func TestReopenPreservesData(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.Dir = dir
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete([]byte("key-00042"))
	db.Merge([]byte("mk"), []byte("m1"))
	db.Merge([]byte("mk"), []byte("m2"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, i := range []int{0, 1, 100, 2999} {
		k := fmt.Sprintf("key-%05d", i)
		v, err := db2.Get([]byte(k))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopened Get(%s) = %q, %v", k, v, err)
		}
	}
	if _, err := db2.Get([]byte("key-00042")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatal("tombstone lost on reopen")
	}
	if v, _ := db2.Get([]byte("mk")); string(v) != "m1m2" {
		t.Fatalf("merge lost on reopen: %q", v)
	}
	// Writes continue with fresh sequence numbers.
	if err := db2.Put([]byte("key-00000"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, _ := db2.Get([]byte("key-00000")); string(v) != "new" {
		t.Fatalf("post-reopen overwrite = %q", v)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, WAL: true}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Merge([]byte("m"), []byte("a"))
	db.Delete([]byte("k0"))
	// Simulate a crash: flush the WAL buffer without flushing memtables.
	db.mu.Lock()
	db.wal.buf.Flush()
	db.mu.Unlock()
	// Abandon db without Close (crash). Reopen and verify recovery.
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, err := db2.Get([]byte("k50")); err != nil || string(v) != "v50" {
		t.Fatalf("recovered Get = %q, %v", v, err)
	}
	if _, err := db2.Get([]byte("k0")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatal("recovered tombstone lost")
	}
	if v, _ := db2.Get([]byte("m")); string(v) != "a" {
		t.Fatalf("recovered merge = %q", v)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	db := testDB(t, Options{})
	db.Close()
	if err := db.Put([]byte("k"), nil); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("missing dir should error")
	}
}

func TestVariableLengthKeysWithPrefixes(t *testing.T) {
	// Keys where one is a byte-prefix of another must not interfere —
	// this exercises the escape encoding.
	db := testDB(t, smallOpts())
	keys := [][]byte{
		[]byte("a"), []byte("a\x00"), []byte("a\x00\x00"), []byte("ab"),
		[]byte(""), []byte("\x00"), []byte("\x00\x01"),
	}
	for i, k := range keys {
		db.Put(k, []byte(fmt.Sprintf("v%d", i)))
	}
	db.Flush()
	db.Compact()
	for i, k := range keys {
		v, err := db.Get(k)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%q) = %q, %v", k, v, err)
		}
	}
	db.Delete([]byte("a"))
	if _, err := db.Get([]byte("a")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatal("delete of prefix key missed")
	}
	if v, _ := db.Get([]byte("a\x00")); string(v) != "v1" {
		t.Fatal("sibling key damaged by prefix delete")
	}
}

func TestCaps(t *testing.T) {
	db := testDB(t, Options{})
	if caps := kv.CapsOf(db); !caps.NativeMerge || !caps.Snapshots || !caps.RangeScans {
		t.Fatalf("lsm caps = %+v", caps)
	}
}

func TestApproximateSize(t *testing.T) {
	db := testDB(t, smallOpts())
	if db.ApproximateSize() != 0 {
		t.Fatal("fresh db size != 0")
	}
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("v"), 100))
	}
	if db.ApproximateSize() < 100*1000 {
		t.Fatalf("size = %d", db.ApproximateSize())
	}
}

// makeIKey builds the internal key for (userKey, seq, kind).
func makeIKey(userKey []byte, seq uint64, kind byte) []byte {
	return appendIKey(nil, userKey, seq, kind)
}

func TestIKeyRoundTrip(t *testing.T) {
	for _, k := range [][]byte{nil, {}, []byte("abc"), []byte("\x00"), []byte("a\x00b\x00\xff")} {
		ik := makeIKey(k, 12345, kindMerge)
		uk, seq, kind, err := parseIKey(ik)
		if err != nil {
			t.Fatalf("parse(%q): %v", k, err)
		}
		if !bytes.Equal(uk, k) && !(len(uk) == 0 && len(k) == 0) {
			t.Fatalf("user key %q != %q", uk, k)
		}
		if seq != 12345 || kind != kindMerge {
			t.Fatalf("seq/kind = %d/%d", seq, kind)
		}
	}
}

func TestIKeyOrdering(t *testing.T) {
	// Same key: newer (higher seq) must sort first.
	a := makeIKey([]byte("k"), 10, kindPut)
	b := makeIKey([]byte("k"), 5, kindPut)
	if bytes.Compare(a, b) >= 0 {
		t.Fatal("newer entry should sort before older")
	}
	// Different keys: user-key order dominates regardless of seq.
	c := makeIKey([]byte("a"), 1, kindPut)
	d := makeIKey([]byte("b"), 1000000, kindPut)
	if bytes.Compare(c, d) >= 0 {
		t.Fatal("user key order violated")
	}
	// Prefix keys order correctly.
	e := makeIKey([]byte("a"), 1, kindPut)
	f := makeIKey([]byte("a\x00"), 1, kindPut)
	if bytes.Compare(e, f) >= 0 {
		t.Fatal("prefix key order violated")
	}
}

func TestParseIKeyErrors(t *testing.T) {
	if _, _, _, err := parseIKey([]byte("short")); err == nil {
		t.Fatal("short ikey should fail")
	}
	bad := makeIKey([]byte("k"), 1, kindPut)
	bad[0] = 0x00 // introduce an invalid escape (0x00 followed by 'k')
	if _, _, _, err := parseIKey(bad); err == nil {
		t.Fatal("invalid escape should fail")
	}
}

func TestStatsCounting(t *testing.T) {
	db := testDB(t, Options{})
	db.Put([]byte("a"), nil)
	db.Merge([]byte("a"), []byte("x"))
	db.Delete([]byte("a"))
	db.Get([]byte("a"))
	st := db.StatsSnapshot()
	if st.Puts != 1 || st.Merges != 1 || st.Deletes != 1 || st.Gets != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func BenchmarkPut(b *testing.B) {
	db := testDB(b, Options{Dir: b.TempDir()})
	val := bytes.Repeat([]byte("v"), 256)
	var key [16]byte
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(key[:], fmt.Sprintf("%016d", i%100000))
		db.Put(key[:], val)
	}
}

func BenchmarkGet(b *testing.B) {
	db := testDB(b, Options{Dir: b.TempDir()})
	val := bytes.Repeat([]byte("v"), 256)
	const n = 100000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("%016d", i)), val)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Get([]byte(fmt.Sprintf("%016d", i%n)))
	}
}

// benchPointDB builds the tree the point-read benchmarks probe: 4 MiB
// write buffers (the bench/ sizing), 16-byte binary keys with embedded
// zero bytes like a kv.StateKey, even ids written and flushed as three
// L0 tables small enough to stay in the block cache, then enough fresh
// ids above them to leave both the active and the frozen memtable
// populated without a further flush. Odd ids are never written.
func benchPointDB(b *testing.B) (db *DB, flushed, buffered int) {
	db = testDB(b, Options{Dir: b.TempDir(), MemtableSize: 4 << 20, BlockCacheSize: 64 << 20})
	val := bytes.Repeat([]byte("v"), 256)
	const n = 9000
	for i := 0; i < n; i++ {
		db.Put(benchKey(2*i), val)
		if i%(n/3) == n/3-1 {
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	const m = 20000 // ~6.5 MiB of entries: one rotation, no flush
	for i := n; i < n+m; i++ {
		db.Put(benchKey(2*i), val)
	}
	if counts := db.LevelFileCounts(); counts[0] != 3 || len(db.imm) != 1 {
		b.Fatalf("tree shape: levels %v, %d frozen memtables", counts, len(db.imm))
	}
	return db, n, m
}

func benchKey(id int) []byte {
	var k [16]byte
	binary.BigEndian.PutUint64(k[:8], uint64(id))
	binary.BigEndian.PutUint64(k[8:], 7)
	return k[:]
}

// benchGets times Gets over 4096 keys of the benchPointDB tree, id(i)
// naming the i-th, each of which must answer with want.
func benchGets(b *testing.B, id func(i, flushed, buffered int) int, want error) {
	db, flushed, buffered := benchPointDB(b)
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = benchKey(id(i*7919, flushed, buffered))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(keys[i%len(keys)]); err != want {
			b.Fatalf("Get = %v, want %v", err, want)
		}
	}
}

// BenchmarkGetMiss reads keys no layer holds: the read that opens every
// window in a streaming operator.
func BenchmarkGetMiss(b *testing.B) {
	benchGets(b, func(i, flushed, buffered int) int { return 2*(i%(flushed+buffered)) + 1 }, kv.ErrNotFound)
}

// BenchmarkGetMemHit reads keys held by the active or frozen memtable.
func BenchmarkGetMemHit(b *testing.B) {
	benchGets(b, func(i, flushed, buffered int) int { return 2 * (flushed + i%buffered) }, nil)
}

// BenchmarkGetSSTHit reads keys only the tables hold, past two populated
// memtables that do not have them.
func BenchmarkGetSSTHit(b *testing.B) {
	benchGets(b, func(i, flushed, _ int) int { return 2 * (i % flushed) }, nil)
}

// benchPuts times Puts into a write buffer that never fills, so that no
// flush is on the clock: every 1<<17 Puts (~45 MiB of entries) the
// memtable is swapped for a fresh one with the timer stopped. With hot
// set every Put rewrites one of 4096 keys the buffer already holds;
// without, every Put brings a key it has not seen, in scattered order.
func benchPuts(b *testing.B, hot bool) {
	db := testDB(b, Options{Dir: b.TempDir(), MemtableSize: 1 << 30})
	val := bytes.Repeat([]byte("v"), 256)
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = benchKey(i * 7919)
	}
	fresh := benchKey(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%(1<<17) == 0 {
			b.StopTimer()
			db.mu.Lock()
			db.mem = newMemtable()
			db.mu.Unlock()
			for _, k := range keys {
				db.Put(k, val)
			}
			b.StartTimer()
		}
		k := keys[i%len(keys)]
		if !hot {
			binary.BigEndian.PutUint64(fresh[:8], 1<<32|uint64(uint32(i)*2654435761))
			k = fresh
		}
		if err := db.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutHotKey rewrites keys the active memtable holds: the write
// half of a streaming operator's read-modify-write.
func BenchmarkPutHotKey(b *testing.B) { benchPuts(b, true) }

// BenchmarkPutNewKey writes keys the active memtable does not hold yet,
// each of which costs a skiplist descent.
func BenchmarkPutNewKey(b *testing.B) { benchPuts(b, false) }

func BenchmarkMerge(b *testing.B) {
	db := testDB(b, Options{Dir: b.TempDir()})
	op := bytes.Repeat([]byte("m"), 64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Merge([]byte(fmt.Sprintf("%016d", i%1000)), op)
	}
}

func TestDisableBloom(t *testing.T) {
	opts := smallOpts()
	opts.Dir = t.TempDir()
	opts.DisableBloom = true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
	}
	db.Flush()
	// Reads still work without filters, including misses.
	if v, err := db.Get([]byte("key-0042")); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := db.Get([]byte("absent")); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("miss = %v", err)
	}
}

func TestCacheStats(t *testing.T) {
	db := testDB(t, smallOpts())
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("v"), 64))
	}
	db.Flush()
	for i := 0; i < 2000; i++ {
		db.Get([]byte(fmt.Sprintf("key-%05d", i)))
	}
	hits, misses := db.CacheStats()
	if hits+misses == 0 {
		t.Fatal("no cache traffic recorded")
	}
	// Re-reading the same keys should raise the hit count.
	before := hits
	for i := 0; i < 2000; i++ {
		db.Get([]byte(fmt.Sprintf("key-%05d", i)))
	}
	hits2, _ := db.CacheStats()
	if hits2 <= before {
		t.Fatalf("hits did not grow: %d -> %d", before, hits2)
	}
}
