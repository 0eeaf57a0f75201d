package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/replay"
	"gadget/internal/tracing"
)

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("g", "", Label{Name: "path", Value: `C:\dir "x"` + "\nnext"}).Set(1)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `g{path="C:\\dir \"x\"\nnext"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing escaped label:\n%s\nwant line %q", b.String(), want)
	}
	if strings.Count(b.String(), "\n") != strings.Count(b.String(), "\n") || strings.Contains(strings.TrimSuffix(b.String(), "\n"), "next\n") {
		t.Fatalf("raw newline leaked into exposition:\n%q", b.String())
	}
}

func TestRegistryIdempotentAndGrouped(t *testing.T) {
	reg := NewRegistry()
	a := reg.Gauge("reqs", "", Label{Name: "op", Value: "get"})
	b := reg.Gauge("reqs", "", Label{Name: "op", Value: "put"})
	again := reg.Gauge("reqs", "", Label{Name: "op", Value: "get"})
	if a != again {
		t.Fatal("re-registration returned a different gauge")
	}
	a.Set(3)
	b.Set(4)
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Count(s, "# TYPE reqs gauge") != 1 {
		t.Fatalf("family must have exactly one TYPE header:\n%s", s)
	}
	if !strings.Contains(s, `reqs{op="get"} 3`) || !strings.Contains(s, `reqs{op="put"} 4`) {
		t.Fatalf("missing series:\n%s", s)
	}
}

func TestRegisterStoreCollector(t *testing.T) {
	store := memstore.New()
	defer store.Close()
	if err := store.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	RegisterStoreCollector(reg, store)
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `gadget_store_metric{metric="memstore.puts"} 1`) {
		t.Fatalf("store collector missing puts sample:\n%s", out.String())
	}
}

// runSnapshot drives a collector through n ops and returns its snapshot
// function plus a finisher.
func runStore(t *testing.T, n int) (*replay.Collector, kv.Store) {
	t.Helper()
	store := memstore.New()
	t.Cleanup(func() { store.Close() })
	c, err := replay.NewCollector(store, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a := kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: 1, Sub: uint64(i)}, Size: 8}
		if err := c.Do(a); err != nil {
			t.Fatal(err)
		}
	}
	return c, store
}

func TestSamplerSeriesSumsToFinal(t *testing.T) {
	c, store := runStore(t, 0)
	var progress strings.Builder
	s, err := StartSampler(SamplerOptions{
		Interval: 5 * time.Millisecond,
		Snapshot: c.Snapshot,
		Store:    store,
		Progress: &progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		a := kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: 1, Sub: uint64(i)}, Size: 8}
		if err := c.Do(a); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			time.Sleep(6 * time.Millisecond) // let a few ticks land mid-run
		}
	}
	final := c.Finish()
	series := s.Stop(final)
	if len(series) == 0 {
		t.Fatal("empty series")
	}
	var sum uint64
	prevOps := uint64(0)
	prevOff := int64(-1)
	for _, smp := range series {
		sum += smp.IntervalOps
		if smp.Ops < prevOps {
			t.Fatalf("cumulative ops went backwards: %+v", series)
		}
		if smp.OffsetMs < prevOff {
			t.Fatalf("offsets not monotone: %+v", series)
		}
		prevOps, prevOff = smp.Ops, smp.OffsetMs
	}
	if sum != final.Ops {
		t.Fatalf("sum of interval ops = %d, want final ops %d", sum, final.Ops)
	}
	last := series[len(series)-1]
	if last.Ops != final.Ops {
		t.Fatalf("closing sample ops = %d, want %d", last.Ops, final.Ops)
	}
	if last.Engine["memstore.puts"] != int64(final.Ops) {
		t.Fatalf("closing sample engine delta = %v, want memstore.puts=%d", last.Engine, final.Ops)
	}
	if progress.Len() == 0 {
		t.Fatal("no progress lines written")
	}
	if !strings.Contains(progress.String(), "ops=") {
		t.Fatalf("unexpected progress format: %q", progress.String())
	}
}

func TestSamplerRejectsBadOptions(t *testing.T) {
	if _, err := StartSampler(SamplerOptions{Interval: 0, Snapshot: func() replay.Result { return replay.Result{} }}); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := StartSampler(SamplerOptions{Interval: time.Second}); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

func TestReportRoundTrip(t *testing.T) {
	c, _ := runStore(t, 100)
	final := c.Finish()
	rep := &Report{
		Store:       "memstore",
		Config:      map[string]any{"store": map[string]any{"engine": "memstore"}},
		Result:      Summarize(final),
		EngineDelta: final.Engine,
		Series: []Sample{
			{OffsetMs: 10, Ops: 60, IntervalOps: 60, Throughput: 6000},
			{OffsetMs: 20, Ops: 100, IntervalOps: 40, Throughput: 4000},
		},
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ReportSchema {
		t.Fatalf("schema = %q, want %q", got.Schema, ReportSchema)
	}
	if !reflect.DeepEqual(got.Result, rep.Result) {
		t.Fatalf("result round-trip mismatch:\n got %+v\nwant %+v", got.Result, rep.Result)
	}
	if !reflect.DeepEqual(got.Series, rep.Series) {
		t.Fatalf("series round-trip mismatch:\n got %+v\nwant %+v", got.Series, rep.Series)
	}
	if !reflect.DeepEqual(got.EngineDelta, rep.EngineDelta) {
		t.Fatalf("engine delta round-trip mismatch:\n got %+v\nwant %+v", got.EngineDelta, rep.EngineDelta)
	}
	var sum uint64
	for _, s := range got.Series {
		sum += s.IntervalOps
	}
	if sum != got.Result.Ops {
		t.Fatalf("series interval ops sum to %d, want %d", sum, got.Result.Ops)
	}
}

func TestSummarizeRecoveryFields(t *testing.T) {
	res := replay.Result{
		Ops:             1100,
		Recoveries:      2,
		RecoveryTime:    30 * time.Millisecond,
		ReplayedOps:     100,
		Checkpoints:     5,
		CheckpointCost:  8 * time.Millisecond,
		CheckpointBytes: 4096,
	}
	s := Summarize(res)
	if s.Recoveries != 2 || s.ReplayedOps != 100 || s.Checkpoints != 5 || s.CheckpointBytesTotal != 4096 {
		t.Fatalf("recovery counters not summarized: %+v", s)
	}
	if s.RTOMs != 30 || s.CheckpointCostMs != 8 {
		t.Fatalf("recovery durations not summarized: rto=%v cost=%v", s.RTOMs, s.CheckpointCostMs)
	}
	// Clean runs must omit the section entirely (omitempty keeps the
	// report schema stable for non-recovery runs).
	clean := Summarize(replay.Result{Ops: 10})
	if clean.Recoveries != 0 || clean.RTOMs != 0 || clean.Checkpoints != 0 {
		t.Fatalf("clean run grew recovery fields: %+v", clean)
	}
	data, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "recoveries") || strings.Contains(string(data), "rto_ms") {
		t.Fatalf("clean summary JSON should omit recovery keys: %s", data)
	}
}

func TestServeHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("hits", "hit gauge").Set(7)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		rsp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer rsp.Body.Close()
		body, _ := io.ReadAll(rsp.Body)
		return rsp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "# TYPE hits gauge") || !strings.Contains(body, "hits 7") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	code, body = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars = %d:\n%.200s", code, body)
	}
	code, body = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d:\n%.200s", code, body)
	}
}

// inflightStore fakes a remote-backed store for the sampler's gauge
// sampling: MetricsOf must surface remote.inflight.
type inflightStore struct {
	kv.Store
	inflight int64
}

func (s *inflightStore) Metrics() map[string]int64 {
	return map[string]int64{"remote.inflight": s.inflight}
}

func TestSamplerRecordsInflightGauge(t *testing.T) {
	store := &inflightStore{Store: memstore.New(), inflight: 7}
	defer store.Close()
	c, err := replay.NewCollector(store, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartSampler(SamplerOptions{
		Interval: 5 * time.Millisecond,
		Snapshot: c.Snapshot,
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a := kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: 1, Sub: uint64(i)}, Size: 8}
		if err := c.Do(a); err != nil {
			t.Fatal(err)
		}
	}
	series := s.Stop(c.Finish())
	if len(series) == 0 {
		t.Fatal("empty series")
	}
	// The inflight gauge is sampled, not delta'd: every sample carries the
	// instantaneous value.
	if got := series[len(series)-1].Inflight; got != 7 {
		t.Fatalf("closing sample inflight = %d, want 7", got)
	}
}

func TestRegisterTracerCollector(t *testing.T) {
	tr := tracing.New(tracing.Options{SampleN: 1, SlowK: 4})
	tc := tr.Start(0)
	tc.Add(tracing.StageServer, 1000)
	tr.Finish(tc)

	reg := NewRegistry()
	RegisterTracerCollector(reg, tr)
	RegisterTracerCollector(reg, nil) // nil tracer registers nothing
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "gadget_trace_started 1") || !strings.Contains(out, "gadget_trace_finished 1") {
		t.Fatalf("missing trace start/finish counters:\n%s", out)
	}
	if !strings.Contains(out, `gadget_trace_stage_count{stage="stage.server"} 1`) {
		t.Fatalf("missing per-stage sample:\n%s", out)
	}
}
