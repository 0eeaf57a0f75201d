package stores

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/replay"
	"gadget/internal/vfs"
)

// The differential crash-recovery suite: replay a seeded workload
// through scripted mid-run crashes on every durable engine, recover
// from portable checkpoints, finish the trace, and compare the final
// state byte-for-byte against a memstore oracle that never crashed.
// Crashes sever the attempt's FaultFS (in-flight state dies as in a
// killed process); checkpoints live on the inner MemFS, modeling the
// durable external storage that survives such crashes.

func recoveryAccesses(n int, seed int64) []kv.Access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]kv.Access, 0, n)
	for i := 0; i < n; i++ {
		a := kv.Access{
			Key:  kv.StateKey{Group: uint64(rng.Intn(12)), Sub: uint64(rng.Intn(48))},
			Size: uint32(8 + rng.Intn(48)),
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

func recoveryOracle(t *testing.T, trace []kv.Access) []kv.Entry {
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

func entriesEqual(t *testing.T, s kv.Store, want []kv.Entry) {
	t.Helper()
	got, err := kv.ScanAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered state has %d entries, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("entry %d: got %v=%q, want %v=%q",
				i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// crashingFactory opens engine attempts on fresh FaultFS instances over
// the shared world, each in its own directory. The returned last
// pointer tracks the live store for final-state inspection.
func crashingFactory(world *vfs.MemFS, engine string, last *kv.Store) replay.StoreFactory {
	return func(attempt int) (replay.Attempt, error) {
		ffs := vfs.NewFaultFS(world, vfs.FaultPlan{})
		s, err := Open(Config{
			Engine: engine,
			Dir:    fmt.Sprintf("db/attempt-%d", attempt),
			FS:     ffs,
		})
		if err != nil {
			return replay.Attempt{}, err
		}
		*last = s
		return replay.Attempt{Store: s, Crash: func() {
			ffs.Crash()
			s.Close()
		}}, nil
	}
}

func durableEngines() []string {
	return []string{"rocksdb", "lethe", "faster", "berkeleydb"}
}

// TestCrashRecoveryDifferential crashes every durable engine at
// randomized op indices, recovers from checkpoints, and requires the
// finished state to equal the never-crashed oracle.
func TestCrashRecoveryDifferential(t *testing.T) {
	trace := recoveryAccesses(3000, 11)
	want := recoveryOracle(t, trace)
	rng := rand.New(rand.NewSource(77))
	for _, engine := range durableEngines() {
		// Two randomized, strictly increasing crash points per engine,
		// drawn outside the subtest so the sequence is deterministic.
		a := uint64(1 + rng.Intn(1400))
		b := a + uint64(1+rng.Intn(1400))
		t.Run(engine, func(t *testing.T) {
			world := vfs.NewMemFS()
			ck := &kv.Checkpointer{FS: world, Dir: "checkpoints", Engine: engine}
			var last kv.Store
			res, err := replay.RunWithRecovery(crashingFactory(world, engine, &last), trace,
				replay.RecoveryOptions{
					CheckpointEvery: 500,
					Checkpointer:    ck,
					CrashAtOps:      []uint64{a, b},
				})
			if err != nil {
				t.Fatalf("crash points {%d,%d}: %v", a, b, err)
			}
			defer last.Close()
			if res.Recoveries != 2 {
				t.Fatalf("Recoveries = %d, want 2 (crash points {%d,%d})", res.Recoveries, a, b)
			}
			if res.ReplayedOps > 2*500 {
				t.Fatalf("ReplayedOps = %d: replayed more than one interval per crash", res.ReplayedOps)
			}
			entriesEqual(t, last, want)
		})
	}
}

// TestCrashRecoveryFullReplay drops the checkpointer: recovery must
// degrade to replaying the whole prefix and still converge.
func TestCrashRecoveryFullReplay(t *testing.T) {
	trace := recoveryAccesses(1200, 12)
	want := recoveryOracle(t, trace)
	for _, engine := range durableEngines() {
		t.Run(engine, func(t *testing.T) {
			world := vfs.NewMemFS()
			var last kv.Store
			res, err := replay.RunWithRecovery(crashingFactory(world, engine, &last), trace,
				replay.RecoveryOptions{CrashAtOps: []uint64{500}})
			if err != nil {
				t.Fatal(err)
			}
			defer last.Close()
			if res.Recoveries != 1 || res.ReplayedOps != 500 {
				t.Fatalf("recoveries=%d replayed=%d, want 1/500", res.Recoveries, res.ReplayedOps)
			}
			entriesEqual(t, last, want)
		})
	}
}

// TestCrashRecoveryCorruptCheckpoint corrupts the newest checkpoint
// after the crash: recovery must fall back to the previous one (longer
// replay) and still converge to the oracle.
func TestCrashRecoveryCorruptCheckpoint(t *testing.T) {
	trace := recoveryAccesses(1500, 13)
	want := recoveryOracle(t, trace)
	engine := "rocksdb"
	world := vfs.NewMemFS()
	ck := &kv.Checkpointer{FS: world, Dir: "checkpoints", Engine: engine}
	var last kv.Store
	inner := crashingFactory(world, engine, &last)
	open := func(attempt int) (replay.Attempt, error) {
		if attempt == 1 {
			var newest string
			for _, p := range world.Paths() {
				if p > newest {
					newest = p
				}
			}
			data, err := vfs.ReadFile(world, newest)
			if err != nil {
				return replay.Attempt{}, err
			}
			data[len(data)/2] ^= 0x40
			if err := vfs.WriteFile(world, newest, data, 0o644); err != nil {
				return replay.Attempt{}, err
			}
		}
		return inner(attempt)
	}
	res, err := replay.RunWithRecovery(open, trace, replay.RecoveryOptions{
		CheckpointEvery: 300,
		Checkpointer:    ck,
		CrashAtOps:      []uint64{1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	// Newest checkpoint (watermark 900) is corrupt; the fallback is 600,
	// so the crash at 1000 replays 400 ops instead of 100.
	if res.Recoveries != 1 || res.ReplayedOps != 400 {
		t.Fatalf("recoveries=%d replayed=%d, want 1/400 (fallback past the corrupt checkpoint)", res.Recoveries, res.ReplayedOps)
	}
	entriesEqual(t, last, want)
}
