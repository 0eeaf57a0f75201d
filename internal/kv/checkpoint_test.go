package kv_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/vfs"
)

func fillStore(t *testing.T, s kv.Store, n int) map[kv.StateKey][]byte {
	t.Helper()
	live := map[kv.StateKey][]byte{}
	for i := 0; i < n; i++ {
		sk := kv.StateKey{Group: uint64(i % 7), Sub: uint64(i)}
		val := []byte(fmt.Sprintf("value-%04d", i))
		if err := s.Put(sk.Bytes(), val); err != nil {
			t.Fatal(err)
		}
		live[sk] = val
	}
	return live
}

func storeState(t *testing.T, s kv.Store) []kv.Entry {
	t.Helper()
	got, err := kv.ScanAll(s)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCheckpointSaveRestoreRoundtrip(t *testing.T) {
	src := memstore.New()
	defer src.Close()
	fillStore(t, src, 100)

	fs := vfs.NewMemFS()
	ck := &kv.Checkpointer{FS: fs, Dir: "ck", Engine: "memstore"}
	meta, bytesOut, err := ck.Save(src, 42)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Watermark != 42 || meta.Entries != 100 || meta.Engine != "memstore" {
		t.Fatalf("meta = %+v", meta)
	}
	if bytesOut <= 0 {
		t.Fatalf("bytes = %d", bytesOut)
	}

	dst := memstore.New()
	defer dst.Close()
	info, err := ck.Restore(dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.Meta.Watermark != 42 || info.CorruptSkipped != 0 || info.Path == "" {
		t.Fatalf("info = %+v", info)
	}
	want := storeState(t, src)
	got := storeState(t, dst)
	if len(got) != len(want) {
		t.Fatalf("restored %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("entry %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestCheckpointRestoreEmptyDir(t *testing.T) {
	ck := &kv.Checkpointer{FS: vfs.NewMemFS(), Dir: "nothing-here", Engine: "memstore"}
	dst := memstore.New()
	defer dst.Close()
	info, err := ck.Restore(dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.Meta.Watermark != 0 || info.Path != "" {
		t.Fatalf("restore of empty dir should be a no-op, got %+v", info)
	}
}

func TestCheckpointEmptyStore(t *testing.T) {
	src := memstore.New()
	defer src.Close()
	fs := vfs.NewMemFS()
	ck := &kv.Checkpointer{FS: fs, Dir: "ck", Engine: "memstore"}
	if _, _, err := ck.Save(src, 7); err != nil {
		t.Fatal(err)
	}
	dst := memstore.New()
	defer dst.Close()
	info, err := ck.Restore(dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.Meta.Watermark != 7 || info.Meta.Entries != 0 {
		t.Fatalf("info = %+v", info)
	}
}

// corruptNewest flips one byte in the newest checkpoint file.
func corruptNewest(t *testing.T, fs *vfs.MemFS, dir string, mutate func([]byte) []byte) string {
	t.Helper()
	var newest string
	for _, p := range fs.Paths() {
		if strings.HasPrefix(p, dir+"/") && strings.HasSuffix(p, kv.CheckpointSuffix) && p > newest {
			newest = p
		}
	}
	if newest == "" {
		t.Fatal("no checkpoint file found")
	}
	data, err := vfs.ReadFile(fs, newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, newest, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return newest
}

func TestCheckpointCorruptFallsBackToPrevious(t *testing.T) {
	src := memstore.New()
	defer src.Close()
	fs := vfs.NewMemFS()
	ck := &kv.Checkpointer{FS: fs, Dir: "ck", Engine: "memstore"}

	fillStore(t, src, 10)
	if _, _, err := ck.Save(src, 10); err != nil {
		t.Fatal(err)
	}
	// Mutate state and take a second, newer checkpoint.
	if err := src.Put(kv.StateKey{Group: 99, Sub: 99}.Bytes(), []byte("late")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Save(src, 20); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"bit-flip":         func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"truncated-footer": func(b []byte) []byte { return b[:len(b)-9] },
		"empty":            func(b []byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			corrupted := corruptNewest(t, fs, "ck", mutate)
			defer func() { // restore a valid newest for the next subtest
				fs.Remove(corrupted)
				if _, _, err := ck.Save(src, 20); err != nil {
					t.Fatal(err)
				}
			}()
			dst := memstore.New()
			defer dst.Close()
			info, err := ck.Restore(dst)
			if err != nil {
				t.Fatal(err)
			}
			if info.CorruptSkipped != 1 {
				t.Fatalf("CorruptSkipped = %d, want 1", info.CorruptSkipped)
			}
			if info.Meta.Watermark != 10 {
				t.Fatalf("fell back to watermark %d, want 10", info.Meta.Watermark)
			}
			if _, err := dst.Get((kv.StateKey{Group: 99, Sub: 99}).Bytes()); !errors.Is(err, kv.ErrNotFound) {
				t.Fatal("restored state contains a key from the corrupt newer checkpoint")
			}
		})
	}
}

func TestCheckpointPruneKeepsNewest(t *testing.T) {
	src := memstore.New()
	defer src.Close()
	fillStore(t, src, 5)
	fs := vfs.NewMemFS()
	ck := &kv.Checkpointer{FS: fs, Dir: "ck", Engine: "memstore", Keep: 2}
	for wm := uint64(1); wm <= 5; wm++ {
		if _, _, err := ck.Save(src, wm*100); err != nil {
			t.Fatal(err)
		}
	}
	var kept []string
	for _, p := range fs.Paths() {
		if strings.HasSuffix(p, kv.CheckpointSuffix) {
			kept = append(kept, p)
		}
	}
	if len(kept) != 2 {
		t.Fatalf("kept %d checkpoints (%v), want 2", len(kept), kept)
	}
	dst := memstore.New()
	defer dst.Close()
	info, err := ck.Restore(dst)
	if err != nil {
		t.Fatal(err)
	}
	if info.Meta.Watermark != 500 {
		t.Fatalf("restored watermark %d, want 500", info.Meta.Watermark)
	}
}

func TestReadCheckpointRejectsTrailingGarbage(t *testing.T) {
	src := memstore.New()
	defer src.Close()
	fillStore(t, src, 3)
	snap, err := kv.SnapshotOf(src)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var buf bytes.Buffer
	it := snap.Iter(kv.StateKey{}, kv.MaxStateKey)
	if _, _, err := kv.WriteCheckpoint(&buf, "memstore", 3, it); err != nil {
		t.Fatal(err)
	}
	it.Close()
	buf.WriteString("junk")
	if _, _, err := kv.ReadCheckpoint(&buf); !errors.Is(err, kv.ErrCheckpointCorrupt) {
		t.Fatalf("want ErrCheckpointCorrupt, got %v", err)
	}
}

func TestCheckpointSurvivesFaultFSCopyPath(t *testing.T) {
	// A Save through FaultFS exercises the charged write path; a clean
	// plan must still produce a valid checkpoint.
	src := memstore.New()
	defer src.Close()
	fillStore(t, src, 20)
	ffs := vfs.NewFaultFS(vfs.NewMemFS(), vfs.FaultPlan{})
	ck := &kv.Checkpointer{FS: ffs, Dir: "ck", Engine: "memstore"}
	if _, _, err := ck.Save(src, 20); err != nil {
		t.Fatal(err)
	}
	if ffs.Writes() == 0 || ffs.DirSyncs() == 0 {
		t.Fatalf("expected charged writes and a directory sync, got writes=%d dirSyncs=%d", ffs.Writes(), ffs.DirSyncs())
	}
	dst := memstore.New()
	defer dst.Close()
	info, err := ck.Restore(dst)
	if err != nil || info.Meta.Entries != 20 {
		t.Fatalf("restore: %+v, %v", info, err)
	}
}

func TestCheckpointSaveFailsCleanly(t *testing.T) {
	// A write fault mid-save must not leave a .tmp or a committed file.
	src := memstore.New()
	defer src.Close()
	fillStore(t, src, 50)
	mem := vfs.NewMemFS()
	ffs := vfs.NewFaultFS(mem, vfs.FaultPlan{FailWriteN: 1})
	ck := &kv.Checkpointer{FS: ffs, Dir: "ck", Engine: "memstore"}
	if _, _, err := ck.Save(src, 50); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	for _, p := range mem.Paths() {
		if strings.HasPrefix(p, "ck/") {
			t.Fatalf("failed save left %s behind", p)
		}
	}
}

func TestCheckpointLargeValuesAndBoundaryKeys(t *testing.T) {
	src := memstore.New()
	defer src.Close()
	big := bytes.Repeat([]byte{0xAB}, 1<<16)
	keys := []kv.StateKey{{}, {Group: ^uint64(0), Sub: ^uint64(0)}, {Group: 1, Sub: ^uint64(0)}}
	for _, sk := range keys {
		if err := src.Put(sk.Bytes(), big); err != nil {
			t.Fatal(err)
		}
	}
	fs := vfs.NewMemFS()
	ck := &kv.Checkpointer{FS: fs, Dir: "ck", Engine: "memstore"}
	if _, _, err := ck.Save(src, 3); err != nil {
		t.Fatal(err)
	}
	dst := memstore.New()
	defer dst.Close()
	if _, err := ck.Restore(dst); err != nil {
		t.Fatal(err)
	}
	for _, sk := range keys {
		v, err := dst.Get(sk.Bytes())
		if err != nil || !bytes.Equal(v, big) {
			t.Fatalf("key %v: err=%v len=%d", sk, err, len(v))
		}
	}
}
