package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/skiplist"
	"gadget/internal/vfs"
)

func stateKey(group, sub uint64) []byte { return kv.StateKey{Group: group, Sub: sub}.Bytes() }

// mirror applies every mutation to the LSM and to the memstore oracle.
type mirror struct {
	t      testing.TB
	db     *DB
	oracle *memstore.Store
}

func (m mirror) put(k, v []byte) {
	m.t.Helper()
	if err := m.db.Put(k, v); err != nil {
		m.t.Fatal(err)
	}
	m.oracle.Put(k, v)
}

func (m mirror) merge(k, v []byte) {
	m.t.Helper()
	if err := m.db.Merge(k, v); err != nil {
		m.t.Fatal(err)
	}
	m.oracle.Merge(k, v)
}

func (m mirror) delete(k []byte) {
	m.t.Helper()
	if err := m.db.Delete(k); err != nil {
		m.t.Fatal(err)
	}
	m.oracle.Delete(k)
}

// freezeMemtable queues the active memtable as an immutable one without
// flushing anything.
func freezeMemtable(db *DB) {
	db.mu.Lock()
	db.imm = append(db.imm, db.mem)
	db.mem = newMemtable()
	db.mu.Unlock()
}

// sameGet fails the test unless a store (or snapshot) answered a Get the
// way the oracle did.
func sameGet(t testing.TB, what string, k []byte, got []byte, gerr error, want []byte, werr error) {
	t.Helper()
	if errors.Is(werr, kv.ErrNotFound) {
		if !errors.Is(gerr, kv.ErrNotFound) {
			t.Fatalf("%s Get(%x) = %q, %v; the oracle has no such key", what, k, got, gerr)
		}
		return
	}
	if gerr != nil || werr != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s Get(%x) = %q, %v; oracle %q, %v", what, k, got, gerr, want, werr)
	}
}

// diffEntries describes the first difference between a snapshot's scan
// and the oracle's, or returns "".
func diffEntries(got, want []kv.Entry) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			return fmt.Sprintf("snapshot scan differs from the oracle's at entry %d:\n got  %v\n want %v", i, got, want)
		}
	}
	return ""
}

// TestSnapshotIteratorParkedOnRewrittenKey is the directed test for the
// one thing a head insert changes under a reader: the skiplist node a
// snapshot's iterator is parked on, between two Next calls and with the
// lock released, takes a newer version of its key, so the iterator's
// Key() gets smaller while it sits in rangeIter's heap. The key k is
// spread over a table, the frozen memtable and the active one; the
// active memtable's iterator is parked on k's newest entry once as the
// heap's root and once below it; a writer then rewrites k (Put, Merge or
// Delete), writes its neighbours, and fills the buffer until it rotates
// and is flushed. The snapshot must keep reading exactly what the
// memstore oracle held when it was taken.
func TestSnapshotIteratorParkedOnRewrittenKey(t *testing.T) {
	k, before, after := stateKey(5, 30), stateKey(5, 20), stateKey(5, 40)
	for _, park := range []struct {
		name  string
		nexts int // Next calls before the writer runs
		root  bool
	}{{"root", 2, true}, {"non-root", 1, false}} {
		for _, op := range []string{"put", "merge", "delete"} {
			t.Run(park.name+"/"+op, func(t *testing.T) {
				opts := smallOpts()
				opts.FS = vfs.NewMemFS()
				opts.Dir = "db"
				opts.MemtableSize = 4 << 10
				m := mirror{t, testDB(t, opts), memstore.New()}
				db := m.db

				// Oldest versions go to a table.
				for sub := uint64(10); sub <= 60; sub += 10 {
					m.put(stateKey(5, sub), []byte(fmt.Sprintf("base-%d", sub)))
				}
				m.merge(k, []byte("+table"))
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				// The next ones to a frozen memtable.
				m.put(stateKey(5, 10), []byte("frozen-10"))
				m.merge(k, []byte("+frozen"))
				freezeMemtable(db)
				// The active memtable holds k and keys above it, nothing
				// below: its iterator starts out on k's newest entry.
				m.merge(k, []byte("+active"))
				m.put(stateKey(5, 50), []byte("active-50"))

				base := db.Metrics()
				sn, err := db.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer sn.Close()
				osn, _ := m.oracle.Snapshot()
				lo, hi := kv.StateKey{Group: 5}, kv.StateKey{Group: 5}.GroupEnd()
				want, err := kv.CollectIter(osn.Iter(lo, hi))
				if err != nil || len(want) != 6 {
					t.Fatalf("oracle scan: %d entries, %v", len(want), err)
				}
				wantK, wantKErr := osn.Get(k)

				it := sn.Iter(lo, hi)
				var got []kv.Entry
				for i := 0; i < park.nexts; i++ {
					if !it.Next() {
						t.Fatal("iterator ended early")
					}
					got = append(got, kv.Entry{Key: it.Key(), Value: append([]byte(nil), it.Value()...)})
				}
				// The parking is what the test is about; check it.
				db.mu.RLock()
				h := it.(*lsmIter).ri.h
				parked := -1
				for i, src := range h {
					if si, ok := src.(*skiplist.Iterator); ok && bytes.HasPrefix(si.Key(), appendEscaped(nil, k)) && string(si.Value()) == "+active" {
						parked = i
					}
				}
				db.mu.RUnlock()
				if parked < 0 || (parked == 0) != park.root {
					t.Fatalf("active memtable's iterator is at heap position %d, want root=%v", parked, park.root)
				}

				rewrite := func(i int) {
					switch op {
					case "put":
						m.put(k, []byte(fmt.Sprintf("rewritten-%d", i)))
					case "merge":
						m.merge(k, []byte(fmt.Sprintf("+%d", i)))
					case "delete":
						m.delete(k)
					}
				}
				rewrite(0)
				v, err := sn.Get(k)
				sameGet(t, "snapshot, parked,", k, v, err, wantK, wantKErr)
				m.put(before, []byte("late-20"))
				m.put(after, []byte("late-40"))
				m.delete(stateKey(5, 50))
				for i := 1; i < 40; i++ { // 1 in 16 of these is inserted by descent
					rewrite(i)
				}
				m.merge(k, []byte("+tail"))
				flushes := db.StatsSnapshot().Flushes
				for i := 0; db.StatsSnapshot().Flushes < flushes+2; i++ {
					m.put(stateKey(9, uint64(i)), bytes.Repeat([]byte("x"), 64))
				}
				rewrite(41) // into a memtable the snapshot does not hold
				m.put(before, []byte("later-20"))

				for it.Next() {
					got = append(got, kv.Entry{Key: it.Key(), Value: append([]byte(nil), it.Value()...)})
				}
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
				it.Close()
				if d := diffEntries(got, want); d != "" {
					t.Fatal(d)
				}
				v, err = sn.Get(k)
				sameGet(t, "snapshot, after the rotation,", k, v, err, wantK, wantKErr)
				for _, key := range [][]byte{k, before, after, stateKey(5, 50)} {
					v, err := db.Get(key)
					ov, oerr := m.oracle.Get(key)
					sameGet(t, "live", key, v, err, ov, oerr)
				}
				delta := kv.MetricsDelta(db.Metrics(), base)
				if delta["lsm.snapshots"] != 1 || delta["lsm.iter_ops"] != int64(len(want)) {
					t.Fatalf("lsm.snapshots moved by %d, lsm.iter_ops by %d; want 1 and %d",
						delta["lsm.snapshots"], delta["lsm.iter_ops"], len(want))
				}
			})
		}
	}
}

// TestSnapshotReadersRaceRewrites runs the same hazard without choosing
// the schedule: a writer rewrites a small hot key set through rotations
// and flushes while readers take snapshots and walk them step by step. A
// reader pairs its snapshot with the oracle's under the mutex that makes
// a mutation of both stores one step, then reads with the writer running.
func TestSnapshotReadersRaceRewrites(t *testing.T) {
	opts := smallOpts()
	opts.MemtableSize = 2 << 10
	db, oracle := testDB(t, opts), memstore.New()
	var step sync.Mutex
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := stateKey(uint64(rng.Intn(3)), uint64(rng.Intn(8)))
			v := []byte(fmt.Sprintf("v%d", i))
			var err error
			step.Lock()
			switch r := rng.Intn(10); {
			case r < 5:
				err = db.Put(k, v)
				oracle.Put(k, v)
			case r < 8:
				err = db.Merge(k, v[:2])
				oracle.Merge(k, v[:2])
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
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			// Long enough for the writer to have gone through a few
			// memtables behind the snapshots.
			for round := 0; round < 40 || db.StatsSnapshot().Flushes < 8; round++ {
				step.Lock()
				sn, err := db.Snapshot()
				osn, _ := oracle.Snapshot()
				step.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := kv.CollectIter(osn.Iter(kv.StateKey{}, kv.MaxStateKey))
				got, err := kv.CollectIter(sn.Iter(kv.StateKey{}, kv.MaxStateKey))
				if err != nil {
					t.Error(err)
				}
				if d := diffEntries(got, want); d != "" {
					t.Errorf("round %d: %s", round, d)
				}
				for _, e := range want {
					if v, err := sn.Get(e.Key.Bytes()); err != nil || !bytes.Equal(v, e.Value) {
						t.Errorf("round %d: snapshot Get(%v) = %q, %v; oracle %q", round, e.Key, v, err, e.Value)
					}
				}
				sn.Close()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestValuesHandedOutDoNotAlias: a value a Get returns straight out of
// the memtable's arena has no spare capacity, so appending to it cannot
// write into the entry stored behind it, and it stays intact after its
// memtable has been flushed and dropped.
func TestValuesHandedOutDoNotAlias(t *testing.T) {
	opts := smallOpts()
	opts.MemtableSize = 1 << 20
	db := testDB(t, opts)
	keys := [][]byte{stateKey(1, 1), stateKey(1, 2), stateKey(1, 3)}
	for i, k := range keys {
		db.Put(k, []byte(fmt.Sprintf("value-%d", i)))
	}
	db.Put([]byte("empty"), []byte{})
	held := make([][]byte, len(keys))
	for i, k := range keys {
		v, err := db.Get(k)
		if err != nil || cap(v) != len(v) {
			t.Fatalf("Get: %q, %v, cap %d len %d", v, err, cap(v), len(v))
		}
		held[i] = v
		_ = append(v, "-scribbled-over-the-next-entry"...)
	}
	if v, err := db.Get([]byte("empty")); err != nil || v != nil {
		t.Fatalf("empty value = %#v, %v; want nil", v, err)
	}
	for i, k := range keys {
		if v, _ := db.Get(k); string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("append on a neighbour's value changed key %d to %q", i, v)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ { // a new memtable, filled and flushed in turn
		db.Put(stateKey(2, uint64(i)), bytes.Repeat([]byte("y"), 400))
	}
	db.mu.RLock()
	if n := db.mem.len() + len(db.imm); n > 3000 {
		t.Fatalf("memtables were never dropped: %d entries", n)
	}
	db.mu.RUnlock()
	for i := range keys {
		if string(held[i]) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("value held across the flush changed to %q", held[i])
		}
	}
}
