package lsm

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"gadget/internal/vfs"
)

// classFS counts the bytes written to MANIFEST files apart from the
// rest; everything else it leaves to the filesystem it wraps.
type classFS struct {
	vfs.FS
	manifest atomic.Int64
}

type classFile struct {
	vfs.File
	n *atomic.Int64
}

func (f classFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

func (c *classFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), manifestName) {
		return f, err
	}
	return classFile{f, &c.manifest}, nil
}

// TestWrittenBytesReconcile adds up what the engine says it wrote —
// lsm.bytes_flushed, lsm.bytes_compacted_out, the manifests, and the
// log records of the script — and compares the sum with the bytes the
// filesystem saw. lsm.bytes_compacted counts what compactions read, so
// it cannot stand in for their output; that was PR 11's NOT MET 4.
func TestWrittenBytesReconcile(t *testing.T) {
	counted := vfs.NewFaultFS(vfs.NewMemFS(), vfs.FaultPlan{})
	fs := &classFS{FS: counted}
	opts := smallOpts()
	opts.FS, opts.Dir, opts.WAL = fs, "db", true
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var wal int64
	for i := 0; i < 20000; i++ {
		k := []byte(fmt.Sprintf("key-%05d", rng.Intn(3000)))
		v := make([]byte, 10+rng.Intn(90))
		switch r := rng.Intn(10); {
		case r < 6:
			err = db.Put(k, v)
		case r < 8:
			err = db.Merge(k, v)
		default:
			v = nil
			err = db.Delete(k)
		}
		if err != nil {
			t.Fatal(err)
		}
		wal += int64(12 + len(appendEscaped(nil, k)) + trailerLen + len(v))
		// The gauge is memory, not the threshold charge: a buffer with one
		// entry in it already holds its first chunks.
		if g := db.Metrics()["lsm.memtable_arena_bytes"]; i%5000 == 0 && g < 32<<10 {
			t.Fatalf("lsm.memtable_arena_bytes = %d with entries buffered", g)
		}
	}
	if err := db.Close(); err != nil { // flushes the log's buffer and the last memtable
		t.Fatal(err)
	}
	m := db.Metrics()
	if m["lsm.compactions"] == 0 || m["lsm.bytes_compacted_out"] == 0 || m["lsm.bytes_compacted_out"] >= m["lsm.bytes_compacted"] {
		t.Fatalf("compactions %d read %d bytes and wrote %d", m["lsm.compactions"], m["lsm.bytes_compacted"], m["lsm.bytes_compacted_out"])
	}
	sum := m["lsm.bytes_flushed"] + m["lsm.bytes_compacted_out"] + fs.manifest.Load() + wal
	total := counted.BytesWritten()
	if diff := total - sum; diff < -total/100 || diff > total/100 {
		t.Fatalf("filesystem saw %d bytes written; flushed %d + compacted out %d + manifests %d + log %d = %d",
			total, m["lsm.bytes_flushed"], m["lsm.bytes_compacted_out"], fs.manifest.Load(), wal, sum)
	}
	t.Logf("filesystem %d bytes, engine's account %d", total, sum)
}
