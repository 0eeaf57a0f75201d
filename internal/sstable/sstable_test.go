package sstable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gadget/internal/cache"
)

func buildTable(t *testing.T, n int, props map[string]uint64) (*Reader, func()) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for name, v := range props {
		w.SetProperty(name, v)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v := []byte(fmt.Sprintf("value-%06d", i))
		if err := w.Add(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(rf, 1, cache.New(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	return r, func() { rf.Close() }
}

// TestWriteReadRoundTrip reads a table back through the cached iterator
// and through the sequential one, which must see the same entries
// without a single cache lookup or insertion: opening the table leaves
// the cache empty, and the sequential pass keeps it so.
func TestWriteReadRoundTrip(t *testing.T) {
	const n = 5000
	r, done := buildTable(t, n, nil)
	defer done()
	if r.Count() != n {
		t.Fatalf("count = %d", r.Count())
	}
	if string(r.Smallest()) != "key-000000" || string(r.Largest()) != fmt.Sprintf("key-%06d", n-1) {
		t.Fatalf("bounds = %q..%q", r.Smallest(), r.Largest())
	}
	for _, seq := range []bool{true, false} {
		it := r.Iter()
		if seq {
			it = r.SeqIter()
		}
		it.First()
		for i := 0; i < n; i++ {
			if !it.Valid() {
				t.Fatalf("seq=%v: iterator ended early at %d: %v", seq, i, it.Err())
			}
			wantK := fmt.Sprintf("key-%06d", i)
			if string(it.Key()) != wantK || string(it.Value()) != fmt.Sprintf("value-%06d", i) {
				t.Fatalf("seq=%v: entry %d = %q/%q", seq, i, it.Key(), it.Value())
			}
			it.Next()
		}
		if it.Valid() {
			t.Fatalf("seq=%v: iterator should be exhausted", seq)
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		hits, misses := r.cache.Stats()
		if seq && (hits != 0 || misses != 0 || r.cache.Used() != 0) {
			t.Fatalf("sequential pass touched the cache: %d hits, %d misses, %d bytes", hits, misses, r.cache.Used())
		}
		if !seq && (misses == 0 || r.cache.Used() == 0) {
			t.Fatalf("cached pass filled no cache: %d misses, %d bytes", misses, r.cache.Used())
		}
	}
}

func TestSeekGE(t *testing.T) {
	r, done := buildTable(t, 5000, nil)
	defer done()
	it := r.Iter()

	it.SeekGE([]byte("key-002500"))
	if !it.Valid() || string(it.Key()) != "key-002500" {
		t.Fatalf("seek exact = %q", it.Key())
	}
	it.SeekGE([]byte("key-002500x"))
	if !it.Valid() || string(it.Key()) != "key-002501" {
		t.Fatalf("seek between = %q", it.Key())
	}
	it.SeekGE([]byte("key-004999"))
	if !it.Valid() || string(it.Key()) != "key-004999" {
		t.Fatalf("seek last = %q", it.Key())
	}
	it.SeekGE([]byte("key-005000"))
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
	it.SeekGE([]byte("a"))
	if !it.Valid() || string(it.Key()) != "key-000000" {
		t.Fatalf("seek before start = %q", it.Key())
	}
	// Next across block boundaries after seek.
	it.SeekGE([]byte("key-000100"))
	for i := 100; i < 200; i++ {
		if string(it.Key()) != fmt.Sprintf("key-%06d", i) {
			t.Fatalf("scan after seek at %d: %q", i, it.Key())
		}
		it.Next()
	}
}

func TestBloomFilter(t *testing.T) {
	r, done := buildTable(t, 1000, nil)
	defer done()
	for i := 0; i < 1000; i++ {
		if !r.MayContain([]byte(fmt.Sprintf("key-%06d", i))) {
			t.Fatalf("false negative on key-%06d", i)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if r.MayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	if fp > 50 {
		t.Fatalf("false positives: %d/1000", fp)
	}
}

func TestProperties(t *testing.T) {
	r, done := buildTable(t, 10, map[string]uint64{"deletes": 42, "minseq": 7})
	defer done()
	if v, ok := r.Property("deletes"); !ok || v != 42 {
		t.Fatalf("deletes = %d,%v", v, ok)
	}
	if v, ok := r.Property("minseq"); !ok || v != 7 {
		t.Fatalf("minseq = %d,%v", v, ok)
	}
	if _, ok := r.Property("missing"); ok {
		t.Fatal("missing property should be absent")
	}
}

func TestOutOfOrderAddRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Add([]byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]byte("a"), nil); err == nil {
		t.Fatal("descending add should fail")
	}
	if err := w.Add([]byte("b"), nil); err == nil {
		t.Fatal("duplicate add should fail")
	}
}

func TestEmptyTable(t *testing.T) {
	r, done := buildTable(t, 0, nil)
	defer done()
	if r.Count() != 0 || r.Smallest() != nil || r.Largest() != nil {
		t.Fatal("empty table metadata wrong")
	}
	it := r.Iter()
	it.First()
	if it.Valid() {
		t.Fatal("empty table iterator should be invalid")
	}
	it.SeekGE([]byte("x"))
	if it.Valid() {
		t.Fatal("empty table seek should be invalid")
	}
}

func TestCorruptFooter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.sst")
	if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	f, _ := os.Open(path)
	defer f.Close()
	if _, err := Open(f, 1, nil); err == nil {
		t.Fatal("zeros should not open")
	}
	short, _ := os.Open(os.DevNull)
	defer short.Close()
	if _, err := Open(short, 1, nil); err == nil {
		t.Fatal("tiny file should not open")
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	f, _ := os.Create(path)
	w := NewWriter(f)
	for i := 0; i < 1000; i++ {
		w.Add([]byte(fmt.Sprintf("key-%06d", i)), []byte("v"))
	}
	w.Close()
	f.Close()
	// Flip a byte inside the first data block.
	data, _ := os.ReadFile(path)
	data[10] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	rf, _ := os.Open(path)
	defer rf.Close()
	r, err := Open(rf, 1, nil)
	if err != nil {
		return // corruption caught at open (first-block read): also fine
	}
	it := r.Iter()
	it.First()
	for it.Valid() {
		it.Next()
	}
	if it.Err() == nil {
		t.Fatal("corrupt block should surface an error")
	}
}

func TestNoCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	f, _ := os.Create(path)
	w := NewWriter(f)
	w.Add([]byte("k"), []byte("v"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, _ := os.Open(path)
	defer rf.Close()
	r, err := Open(rf, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := r.Iter()
	it.First()
	if !it.Valid() || string(it.Key()) != "k" {
		t.Fatalf("entry = %q", it.Key())
	}
}

func TestWriterEstimatedSize(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if w.EstimatedSize() != 0 {
		t.Fatal("fresh writer size != 0")
	}
	w.Add([]byte("key"), make([]byte, 1000))
	if w.EstimatedSize() < 1000 {
		t.Fatalf("size = %d", w.EstimatedSize())
	}
	if w.Count() != 1 {
		t.Fatalf("count = %d", w.Count())
	}
}

func BenchmarkIterScan(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "t.sst")
	f, _ := os.Create(path)
	w := NewWriter(f)
	const n = 100000
	for i := 0; i < n; i++ {
		w.Add([]byte(fmt.Sprintf("key-%09d", i)), make([]byte, 64))
	}
	w.Close()
	f.Close()
	rf, _ := os.Open(path)
	defer rf.Close()
	r, err := Open(rf, 1, cache.New(64<<20))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := r.Iter()
		count := 0
		for it.First(); it.Valid(); it.Next() {
			count++
		}
		if count != n {
			b.Fatalf("count = %d", count)
		}
	}
}
