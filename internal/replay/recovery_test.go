package replay_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/replay"
	"gadget/internal/vfs"
)

// recoveryTrace builds a deterministic put/merge/delete/get workload.
func recoveryTrace(n int, seed int64) []kv.Access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]kv.Access, 0, n)
	for i := 0; i < n; i++ {
		a := kv.Access{
			Key:  kv.StateKey{Group: uint64(rng.Intn(16)), Sub: uint64(rng.Intn(64))},
			Size: uint32(8 + rng.Intn(56)),
			Time: int64(i),
		}
		switch rng.Intn(10) {
		case 0:
			a.Op = kv.OpDelete
		case 1, 2:
			a.Op = kv.OpGet
		case 3, 4:
			a.Op = kv.OpMerge
		default:
			a.Op = kv.OpPut
		}
		out = append(out, a)
	}
	return out
}

// oracleState replays the whole trace into a fresh memstore and returns
// its final contents.
func oracleState(t *testing.T, trace []kv.Access) []kv.Entry {
	t.Helper()
	s := memstore.New()
	defer s.Close()
	var keyBuf [kv.KeyLen]byte
	for _, a := range trace {
		if _, err := replay.Apply(s, nil, a, keyBuf[:]); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := kv.ScanAll(s)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func sameState(t *testing.T, got kv.Store, want []kv.Entry) {
	t.Helper()
	entries, err := kv.ScanAll(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("state has %d entries, oracle has %d", len(entries), len(want))
	}
	for i := range entries {
		if entries[i].Key != want[i].Key || !bytes.Equal(entries[i].Value, want[i].Value) {
			t.Fatalf("entry %d: got %v=%q, want %v=%q",
				i, entries[i].Key, entries[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// memFactory models a volatile store: every attempt starts empty.
func memFactory(last *kv.Store) replay.StoreFactory {
	return func(attempt int) (replay.Attempt, error) {
		s := memstore.New()
		*last = s
		return replay.Attempt{Store: s}, nil
	}
}

func TestRunWithRecoveryCheckpointed(t *testing.T) {
	trace := recoveryTrace(2000, 1)
	want := oracleState(t, trace)

	var last kv.Store
	ck := &kv.Checkpointer{FS: vfs.NewMemFS(), Dir: "ck", Engine: "memstore"}
	opts := replay.RecoveryOptions{
		CheckpointEvery: 300,
		Checkpointer:    ck,
		CrashAtOps:      []uint64{700, 1550},
	}
	res, err := replay.RunWithRecovery(memFactory(&last), trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()

	if res.Recoveries != 2 {
		t.Fatalf("Recoveries = %d, want 2", res.Recoveries)
	}
	// Crash at 700 recovers from the checkpoint at 600 (replay 100);
	// crash at 1550 from the one at 1500 (replay 50).
	if res.ReplayedOps != 150 {
		t.Fatalf("ReplayedOps = %d, want 150", res.ReplayedOps)
	}
	if res.Ops != uint64(len(trace))+res.ReplayedOps {
		t.Fatalf("Ops = %d, want len(trace)+replayed = %d", res.Ops, uint64(len(trace))+res.ReplayedOps)
	}
	if res.RecoveryTime <= 0 {
		t.Fatalf("RecoveryTime = %v, want > 0", res.RecoveryTime)
	}
	// Checkpoints at 300..1800 except none at 2000 (end); replayed
	// stretches recross 900 and 1500's positions: re-cut checkpoints
	// overwrite the same watermarked file, so the count includes them.
	if res.Checkpoints == 0 || res.CheckpointCost <= 0 || res.CheckpointBytes == 0 {
		t.Fatalf("checkpoint accounting empty: %+v", res)
	}
	sameState(t, last, want)
}

func TestRunWithRecoveryFullReplayWithoutCheckpointer(t *testing.T) {
	trace := recoveryTrace(600, 2)
	want := oracleState(t, trace)

	var last kv.Store
	res, err := replay.RunWithRecovery(memFactory(&last), trace,
		replay.RecoveryOptions{CrashAtOps: []uint64{250}})
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	if res.Recoveries != 1 || res.ReplayedOps != 250 {
		t.Fatalf("recoveries=%d replayed=%d, want 1/250 (full replay)", res.Recoveries, res.ReplayedOps)
	}
	sameState(t, last, want)
}

func TestRunWithRecoveryNoCrashesMatchesPlainRun(t *testing.T) {
	trace := recoveryTrace(500, 3)
	want := oracleState(t, trace)
	var last kv.Store
	res, err := replay.RunWithRecovery(memFactory(&last), trace, replay.RecoveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	if res.Recoveries != 0 || res.ReplayedOps != 0 || res.Ops != uint64(len(trace)) {
		t.Fatalf("clean run should have no recovery accounting: %+v", res)
	}
	sameState(t, last, want)
}

func TestRunWithRecoveryCrashPastTraceIgnored(t *testing.T) {
	trace := recoveryTrace(100, 4)
	var last kv.Store
	res, err := replay.RunWithRecovery(memFactory(&last), trace,
		replay.RecoveryOptions{CrashAtOps: []uint64{100, 5000}})
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	if res.Recoveries != 0 {
		t.Fatalf("crash points at/past the trace end must not fire, got %d", res.Recoveries)
	}
}

func TestRunWithRecoveryCorruptNewestFallsBack(t *testing.T) {
	trace := recoveryTrace(1000, 5)
	want := oracleState(t, trace)

	fs := vfs.NewMemFS()
	ck := &kv.Checkpointer{FS: fs, Dir: "ck", Engine: "memstore"}
	var last kv.Store
	crashed := false
	open := func(attempt int) (replay.Attempt, error) {
		if attempt == 1 && !crashed {
			crashed = true
			// Corrupt the newest checkpoint before the restore reads it.
			var newest string
			for _, p := range fs.Paths() {
				if p > newest {
					newest = p
				}
			}
			data, err := vfs.ReadFile(fs, newest)
			if err != nil {
				return replay.Attempt{}, err
			}
			data[len(data)/3] ^= 0x10
			if err := vfs.WriteFile(fs, newest, data, 0o644); err != nil {
				return replay.Attempt{}, err
			}
		}
		s := memstore.New()
		last = s
		return replay.Attempt{Store: s}, nil
	}
	res, err := replay.RunWithRecovery(open, trace, replay.RecoveryOptions{
		CheckpointEvery: 200,
		Checkpointer:    ck,
		CrashAtOps:      []uint64{500},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	// Newest checkpoint (watermark 400) is corrupt; recovery falls back
	// to watermark 200, so the replayed delta is 300, not 100.
	if res.Recoveries != 1 || res.ReplayedOps != 300 {
		t.Fatalf("recoveries=%d replayed=%d, want 1/300 (fallback to previous checkpoint)", res.Recoveries, res.ReplayedOps)
	}
	sameState(t, last, want)
}

// blockingStore blocks every Put after its first `after` until release
// closes.
type blockingStore struct {
	kv.Store
	after   int64
	puts    atomic.Int64
	release chan struct{}
}

func (s *blockingStore) Put(key, value []byte) error {
	if s.puts.Add(1) > s.after {
		<-s.release
	}
	return s.Store.Put(key, value)
}

// recoverWithin runs RunWithRecovery and fails the test if it has not
// returned within 2 s — a run the watchdog does not cover hangs.
func recoverWithin(t *testing.T, open replay.StoreFactory, trace []kv.Access, opts replay.RecoveryOptions) (replay.Result, error) {
	t.Helper()
	type outcome struct {
		res replay.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := replay.RunWithRecovery(open, trace, opts)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(2 * time.Second):
		t.Fatal("RunWithRecovery still blocked after 2s: the watchdog does not cover recovery runs")
		return replay.Result{}, nil
	}
}

func putOnlyTrace(n int) []kv.Access {
	out := make([]kv.Access, n)
	for i := range out {
		out[i] = kv.Access{Op: kv.OpPut, Key: kv.StateKey{Group: uint64(i % 16), Sub: uint64(i)}, Size: 8}
	}
	return out
}

// A store blocking in Put must trip the run watchdog in recovery mode
// exactly as in a plain run.
func TestRunWithRecoveryWatchdog(t *testing.T) {
	st := &blockingStore{Store: memstore.New(), after: 50, release: make(chan struct{})}
	defer st.Close()
	defer close(st.release)
	open := func(int) (replay.Attempt, error) { return replay.Attempt{Store: st}, nil }
	res, err := recoverWithin(t, open, putOnlyTrace(1000), replay.RecoveryOptions{
		Options:    replay.Options{StallTimeout: 30 * time.Millisecond},
		CrashAtOps: []uint64{900},
	})
	if !errors.Is(err, replay.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if !res.Degraded || res.Ops != 50 {
		t.Fatalf("partial result: degraded=%v ops=%d, want degraded with 50 ops", res.Degraded, res.Ops)
	}
}

// The second attempt's collector joins the watchdog mid-run: a stall
// after a crash aborts the run too, and the partial result folds the
// sealed first attempt with the stalled second one.
func TestRunWithRecoveryWatchdogAfterCrash(t *testing.T) {
	st := &blockingStore{Store: memstore.New(), after: 30, release: make(chan struct{})}
	defer st.Close()
	defer close(st.release)
	open := func(attempt int) (replay.Attempt, error) {
		if attempt == 0 {
			return replay.Attempt{Store: memstore.New()}, nil
		}
		return replay.Attempt{Store: st}, nil
	}
	res, err := recoverWithin(t, open, putOnlyTrace(1000), replay.RecoveryOptions{
		Options:    replay.Options{StallTimeout: 30 * time.Millisecond},
		CrashAtOps: []uint64{20},
	})
	if !errors.Is(err, replay.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	// 20 ops before the crash, then a full replay that stalls after 30.
	if !res.Degraded || res.Ops != 50 || res.Recoveries != 1 || res.ReplayedOps != 20 {
		t.Fatalf("partial result: degraded=%v ops=%d recoveries=%d replayed=%d, want degraded 50/1/20",
			res.Degraded, res.Ops, res.Recoveries, res.ReplayedOps)
	}
}

func TestRecoveryOptionsValidate(t *testing.T) {
	bad := []replay.RecoveryOptions{
		{CheckpointEvery: 10},                      // interval without checkpointer
		{CrashAtOps: []uint64{0}},                  // zero crash point
		{CrashAtOps: []uint64{5, 5}},               // not strictly increasing
		{CrashAtOps: []uint64{9, 3}},               // decreasing
		{Options: replay.Options{SampleEvery: -1}}, // embedded options still checked
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d (%+v): want error", i, o)
		}
	}
	ok := replay.RecoveryOptions{
		CheckpointEvery: 10,
		Checkpointer:    &kv.Checkpointer{FS: vfs.NewMemFS(), Dir: "ck"},
		CrashAtOps:      []uint64{1, 2, 30},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestRunWithRecoveryResultString(t *testing.T) {
	trace := recoveryTrace(400, 6)
	var last kv.Store
	ck := &kv.Checkpointer{FS: vfs.NewMemFS(), Dir: "ck", Engine: "memstore"}
	res, err := replay.RunWithRecovery(memFactory(&last), trace, replay.RecoveryOptions{
		CheckpointEvery: 100, Checkpointer: ck, CrashAtOps: []uint64{150},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	s := res.String()
	for _, want := range []string{"recoveries=1", "replayed=50", "ckpts="} {
		if !contains(s, want) {
			t.Errorf("Result.String() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

func TestMergeResultsSumsRecoveryFields(t *testing.T) {
	a := replay.Result{Recoveries: 1, ReplayedOps: 10, Checkpoints: 2, RecoveryTime: 5, CheckpointCost: 7, CheckpointBytes: 100}
	b := replay.Result{Recoveries: 2, ReplayedOps: 20, Checkpoints: 3, RecoveryTime: 6, CheckpointCost: 8, CheckpointBytes: 200}
	m := replay.MergeResults([]replay.Result{a, b})
	if m.Recoveries != 3 || m.ReplayedOps != 30 || m.Checkpoints != 5 ||
		m.RecoveryTime != 11 || m.CheckpointCost != 15 || m.CheckpointBytes != 300 {
		t.Fatalf("merged recovery fields wrong: %+v", m)
	}
}

func ExampleRunWithRecovery() {
	trace := recoveryTrace(1000, 9)
	var last kv.Store
	ck := &kv.Checkpointer{FS: vfs.NewMemFS(), Dir: "checkpoints", Engine: "memstore"}
	res, err := replay.RunWithRecovery(func(attempt int) (replay.Attempt, error) {
		s := memstore.New()
		last = s
		return replay.Attempt{Store: s}, nil
	}, trace, replay.RecoveryOptions{
		CheckpointEvery: 250,
		Checkpointer:    ck,
		CrashAtOps:      []uint64{600},
	})
	if err != nil {
		panic(err)
	}
	defer last.Close()
	fmt.Printf("recoveries=%d replayed=%d\n", res.Recoveries, res.ReplayedOps)
	// Output: recoveries=1 replayed=100
}
