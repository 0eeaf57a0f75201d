package lsm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"gadget/internal/kv"
	"gadget/internal/vfs"
)

// TestFlushScheduleAndTablesUnchanged pins what the write buffer hands
// the rest of the tree. The memtable may change how it stores and finds
// entries, but not when it fills (the len(ikey)+len(value)+48 threshold
// charge), nor the order and bytes of what a flush writes: every flush
// and compaction count, every table's entries and size, and every value
// a Get returned along the way must equal what the pointer-node skiplist
// of commit f69ca7c produced for the same seeded script, captured there
// with this test. The tables are digested entry by entry, not as raw
// file bytes, because one property in them is the wall-clock time of a
// memtable's first tombstone.
func TestFlushScheduleAndTablesUnchanged(t *testing.T) {
	opts := Options{
		Dir:                 "db",
		FS:                  vfs.NewMemFS(),
		MemtableSize:        64 << 10,
		BlockCacheSize:      1 << 20,
		L0CompactionTrigger: 4,
		BaseLevelSize:       256 << 10,
		LevelMultiplier:     4,
		WAL:                 true,
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(19))
	reads := sha256.New()
	key := func() []byte {
		id := rng.Intn(20000)
		if rng.Intn(2) == 0 {
			id = rng.Intn(64) // half the traffic rewrites a few hot keys
		}
		return kv.StateKey{Group: uint64(id % 251), Sub: uint64(id)}.Bytes()
	}
	val := make([]byte, 120)
	for i := 0; i < 200000; i++ {
		k := key()
		rng.Read(val)
		v := val[:20+rng.Intn(100)]
		switch r := rng.Intn(100); {
		case r < 40:
			err = db.Put(k, v)
		case r < 60:
			err = db.Merge(k, v[:8])
		case r < 70:
			err = db.Delete(k)
		default:
			var got []byte
			if got, err = db.Get(k); errors.Is(err, kv.ErrNotFound) {
				got, err = []byte("<none>"), nil
			}
			binary.Write(reads, binary.LittleEndian, uint32(len(got)))
			reads.Write(got)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	tables := sha256.New()
	db.settle()
	db.mu.RLock()
	for lvl, files := range db.version.levels {
		for _, fm := range files {
			binary.Write(tables, binary.LittleEndian, [3]uint64{uint64(lvl), fm.num, uint64(fm.size)})
			it := fm.reader.Iter()
			for it.First(); it.Valid(); it.Next() {
				binary.Write(tables, binary.LittleEndian, [2]uint32{uint32(len(it.Key())), uint32(len(it.Value()))})
				tables.Write(it.Key())
				tables.Write(it.Value())
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.mu.RUnlock()
	st := db.StatsSnapshot()
	type tree struct {
		tables, reads                                               string
		flushes, compactions, bytesFlushed, bytesCompacted, sizeEnd uint64
		levels                                                      [numLevels]int
	}
	got := tree{
		hex.EncodeToString(tables.Sum(nil)), hex.EncodeToString(reads.Sum(nil)),
		st.Flushes, st.Compactions, st.BytesFlushed, st.BytesCompacted, uint64(db.ApproximateSize()),
		[numLevels]int(db.LevelFileCounts()),
	}
	want := tree{
		"db8b06ea589143816186d6c0a552e175458eb9f6cd425817fce218cf22b58b63",
		"b5a30c28cf5d384e6f605e1a4b47b0fb0c787a5d2e229df86ded803ed90724dd",
		278, 89, 12169162, 40347251, 2823696,
		[numLevels]int{2, 1, 1, 2},
	}
	if got != want {
		t.Fatalf("the tree differs from the one the parent commit built:\n got  %+v\n want %+v", got, want)
	}
}
