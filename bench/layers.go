package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gadget/internal/kv"
	"gadget/internal/stats"
	"gadget/internal/tracing"
	"gadget/internal/vfs"
)

// This file holds the instruments the benchmark places around the
// layers, all of them outside the program under test: a timing store
// wrapper, a no-op store, a counting filesystem and the in-memory span
// log of the traced pass.

// span is one timed call across a layer boundary. Spans of one
// operation share its ID; times are nanoseconds since the pass began.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the traced pass ends. It is
// bounded: a pass records at most limit spans and counts the rest.
type spanLog struct {
	base    time.Time
	limit   int
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog(limit int) *spanLog { return &spanLog{base: time.Now(), limit: limit} }

func (l *spanLog) add(name, parent string, id uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < l.limit {
		l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent,
			Start: start.Sub(l.base).Nanoseconds(), End: end.Sub(l.base).Nanoseconds()})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// addRound records the phases of one instrumented round: set-up from t0,
// the driven run from t1, the correctness gate from t2 to end.
func (l *spanLog) addRound(t0, t1, t2, end time.Time) {
	l.add("round", "pass", 0, t0, end)
	l.add("setup", "round", 0, t0, t1)
	l.add("drive", "round", 0, t1, t2)
	l.add("verify", "round", 0, t2, end)
}

// spanEvery is the 1-in-N sampling of per-operation spans, matching the
// tracer's SampleN so both views cost the same.
const spanEvery = 64

// timedStore times every call that crosses it. Sums are additive, so a
// layer's self time is the difference of two wrappers' sums without any
// shared request id. It forwards every optional store interface through
// the kv helpers, which degrade exactly as the bare inner store would,
// so wrapping never changes which path an operation takes.
type timedStore struct {
	inner  kv.Store
	layer  string // span name prefix: "stack" at the top, "engine" under a server
	parent string
	spans  *spanLog
	// countScanAllocs reads the allocator around each scan; only valid
	// with one client, because the counter is process-wide.
	countScanAllocs bool

	seq         atomic.Uint64
	calls       [kv.NumOps]atomic.Int64
	nanos       [kv.NumOps]atomic.Int64
	scanEntries atomic.Int64
	scanMallocs atomic.Int64
	scanLat     *stats.Histogram
}

var (
	_ kv.Store              = (*timedStore)(nil)
	_ kv.Snapshotter        = (*timedStore)(nil)
	_ kv.RangeScanner       = (*timedStore)(nil)
	_ kv.Introspector       = (*timedStore)(nil)
	_ kv.Capabler           = (*timedStore)(nil)
	_ kv.Traceable          = (*timedStore)(nil)
	_ kv.ResilienceReporter = (*timedStore)(nil)
	_ kv.Sizer              = (*timedStore)(nil)
)

func newTimedStore(inner kv.Store, layer, parent string, spans *spanLog) *timedStore {
	return &timedStore{inner: inner, layer: layer, parent: parent, spans: spans, scanLat: stats.NewHistogram()}
}

func (t *timedStore) note(op kv.Op, t0 time.Time) {
	end := time.Now()
	t.calls[op].Add(1)
	t.nanos[op].Add(end.Sub(t0).Nanoseconds())
	if id := t.seq.Add(1); t.spans != nil && id%spanEvery == 0 {
		t.spans.add(t.layer+"."+op.String(), t.parent, id, t0, end)
	}
}

func (t *timedStore) Get(key []byte) ([]byte, error) {
	t0 := time.Now()
	v, err := t.inner.Get(key)
	t.note(kv.OpGet, t0)
	return v, err
}

func (t *timedStore) Put(key, value []byte) error {
	t0 := time.Now()
	err := t.inner.Put(key, value)
	t.note(kv.OpPut, t0)
	return err
}

func (t *timedStore) Merge(key, operand []byte) error {
	t0 := time.Now()
	err := t.inner.Merge(key, operand)
	t.note(kv.OpMerge, t0)
	return err
}

func (t *timedStore) Delete(key []byte) error {
	t0 := time.Now()
	err := t.inner.Delete(key)
	t.note(kv.OpDelete, t0)
	return err
}

func (t *timedStore) Close() error { return t.inner.Close() }

// scanned accounts one finished range scan.
func (t *timedStore) scanned(t0 time.Time, entries int, mallocs0 uint64) {
	t.scanLat.Record(time.Since(t0).Nanoseconds())
	t.scanEntries.Add(int64(entries))
	if t.countScanAllocs {
		t.scanMallocs.Add(int64(mallocs() - mallocs0))
	}
	t.note(kv.OpScan, t0)
}

func (t *timedStore) ScanRange(lo, hi kv.StateKey) ([]kv.Entry, error) {
	var m0 uint64
	if t.countScanAllocs {
		m0 = mallocs()
	}
	t0 := time.Now()
	ents, err := kv.ScanRange(t.inner, lo, hi)
	t.scanned(t0, len(ents), m0)
	return ents, err
}

// DoTraced keeps sampled operations on the inner store's traced path
// and times them like any other call.
func (t *timedStore) DoTraced(tc *tracing.Ctx, op kv.TracedOp) (kv.TracedResult, error) {
	var m0 uint64
	if op.Op == kv.OpScan && t.countScanAllocs {
		m0 = mallocs()
	}
	t0 := time.Now()
	res, err := kv.DoTraced(t.inner, tc, op)
	switch op.Op {
	case kv.OpScan:
		t.scanned(t0, len(res.Entries), m0)
	case kv.OpFGet:
		t.note(kv.OpGet, t0)
	default:
		t.note(op.Op, t0)
	}
	return res, err
}

func (t *timedStore) Snapshot() (kv.Snapshot, error) { return kv.SnapshotOf(t.inner) }
func (t *timedStore) Metrics() map[string]int64      { return kv.MetricsOf(t.inner) }
func (t *timedStore) Caps() kv.Capabilities          { return kv.CapsOf(t.inner) }

func (t *timedStore) ResilienceCounters() kv.ResilienceCounters {
	if r, ok := t.inner.(kv.ResilienceReporter); ok {
		return r.ResilienceCounters()
	}
	return kv.ResilienceCounters{}
}

func (t *timedStore) ApproximateSize() int64 {
	if s, ok := t.inner.(kv.Sizer); ok {
		return s.ApproximateSize()
	}
	return 0
}

// totals returns the calls and nanoseconds summed over every op type.
func (t *timedStore) totals() (calls, nanos int64) {
	for i := range t.calls {
		calls += t.calls[i].Load()
		nanos += t.nanos[i].Load()
	}
	return calls, nanos
}

// nsPerOp is the mean call time of one op type, or 0 without calls.
func (t *timedStore) nsPerOp(op kv.Op) float64 {
	return ratio(float64(t.nanos[op].Load()), float64(t.calls[op].Load()))
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// nullStore answers every call at once. Driving it measures the cost of
// the driver alone. Every read is a miss, as the first read of a window
// is.
type nullStore struct{}

func (nullStore) Get([]byte) ([]byte, error) { return nil, kv.ErrNotFound }
func (nullStore) Put(_, _ []byte) error      { return nil }
func (nullStore) Merge(_, _ []byte) error    { return nil }
func (nullStore) Delete([]byte) error        { return nil }
func (nullStore) Close() error               { return nil }
func (nullStore) Caps() kv.Capabilities      { return kv.Capabilities{NativeMerge: true, RangeScans: true} }

func (nullStore) ScanRange(_, _ kv.StateKey) ([]kv.Entry, error) { return nil, nil }

// countingFS counts what an engine asks of its device. Bytes are split
// by file class so the write-ahead log, the tables and the metadata can
// be reconciled with the engine's own counters.
type countingFS struct {
	inner vfs.FS

	writeCalls, readCalls, syncs atomic.Int64
	bytesRead                    atomic.Int64
	walBytes, tableBytes, meta   atomic.Int64
}

func newCountingFS() *countingFS { return &countingFS{inner: vfs.OsFS{}} }

// devCounts is a reading of a countingFS.
type devCounts struct {
	writeCalls, readCalls, syncs, bytesRead int64
	walBytes, tableBytes, metaBytes         int64
}

func (c *countingFS) counts() devCounts {
	return devCounts{
		writeCalls: c.writeCalls.Load(), readCalls: c.readCalls.Load(), syncs: c.syncs.Load(),
		bytesRead: c.bytesRead.Load(), walBytes: c.walBytes.Load(), tableBytes: c.tableBytes.Load(),
		metaBytes: c.meta.Load(),
	}
}

func (d devCounts) written() int64 { return d.walBytes + d.tableBytes + d.metaBytes }

func (d devCounts) sub(o devCounts) devCounts {
	return devCounts{
		writeCalls: d.writeCalls - o.writeCalls, readCalls: d.readCalls - o.readCalls, syncs: d.syncs - o.syncs,
		bytesRead: d.bytesRead - o.bytesRead, walBytes: d.walBytes - o.walBytes,
		tableBytes: d.tableBytes - o.tableBytes, metaBytes: d.metaBytes - o.metaBytes,
	}
}

// classOf picks the byte counter of a file from its name: the LSM
// writes wal.log, <n>.sst (built as <n>.sst.tmp) and MANIFEST.
func (c *countingFS) classOf(name string) *atomic.Int64 {
	base := strings.TrimSuffix(filepath.Base(name), ".tmp")
	switch {
	case strings.HasPrefix(base, "wal"):
		return &c.walBytes
	case strings.HasSuffix(base, ".sst"):
		return &c.tableBytes
	}
	return &c.meta
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, written: c.classOf(name)}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error       { return c.inner.Rename(oldpath, newpath) }
func (c *countingFS) Remove(name string) error                   { return c.inner.Remove(name) }
func (c *countingFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }
func (c *countingFS) MkdirAll(path string, perm os.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}
func (c *countingFS) Stat(name string) (os.FileInfo, error) { return c.inner.Stat(name) }

func (c *countingFS) SyncDir(name string) error {
	c.syncs.Add(1)
	return c.inner.SyncDir(name)
}

type countingFile struct {
	vfs.File
	fs      *countingFS
	written *atomic.Int64
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeCalls.Add(1)
	f.written.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.writeCalls.Add(1)
	f.written.Add(int64(n))
	return n, err
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.readCalls.Add(1)
	f.fs.bytesRead.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.readCalls.Add(1)
	f.fs.bytesRead.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// watchHeap samples the bytes of live and not-yet-swept heap objects
// every 10 ms until the returned function is called, which reports the
// highest reading. With on false it does nothing and reports 0.
func watchHeap(on bool) (stop func() uint64) {
	if !on {
		return func() uint64 { return 0 }
	}
	quit, done := make(chan struct{}), make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-quit:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-done
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
