package gadget

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"testing"

	"gadget/internal/kv"
)

// streamCfg is the configuration the access-stream guard pins: the
// small test workload with late events, so the late-drop branches of
// the window operators are on the stream too.
func streamCfg(op OperatorType, seed int64) Config {
	cfg := smallCfg(op)
	cfg.Source.Seed = seed
	cfg.Source.LateFraction = 0.05
	cfg.Source.MaxLatenessMs = 1500
	return cfg
}

// streamSeeds are the seeds the guard pins a digest for.
var streamSeeds = []int64{1, 2, 3}

// streamDigests pins, per operator, the FNV-64a digest of Generate's
// output for each of streamSeeds. The generated stream is the
// instrument's calibration: a change to any of these is a change to
// the workload and must be declared as one.
var streamDigests = map[OperatorType][3]uint64{
	TumblingIncr:   {0xa69aefd7b872d64e, 0xbd7d956a70e1ed2a, 0xb5695f1d8951144e},
	TumblingHol:    {0xb8d7850835935407, 0x0149a256c86982e9, 0x6f9e78c32ff482ab},
	SlidingIncr:    {0xaf61eeac5711d8bc, 0x128cfd9199dcf5c9, 0xe9961f3332d1ad0b},
	SlidingHol:     {0x3a5750cfff809d45, 0xa8e07f9194137a99, 0xcb90b3f3f11ead09},
	SessionIncr:    {0x7136ed3ce4d34d38, 0x26e050e1c55a0771, 0xb3ddfe53a161e4c4},
	SessionHol:     {0x698d3a6a7fe46605, 0xccbddd7d3f399c2d, 0xda2b5d53123b4f67},
	TumblingJoin:   {0xf0f7fb377eedc2cd, 0xb1c74ce6a7861cba, 0x74657942bfa0f007},
	SlidingJoin:    {0x23c8c815869f808d, 0x0d58fa8c657a9b53, 0x4132631d7364ed50},
	IntervalJoin:   {0x7d5b88f2cc1be8c7, 0x7173387d740481ef, 0x63e205721526bcd5},
	ContinJoin:     {0x0a53a21fb0b239e3, 0x807d52f5fb46e847, 0x3c0fb21d0df07779},
	Aggregation:    {0x1c23c4d19ef6f11d, 0x6d3e8eeb60b78797, 0x72f5e79763f77073},
	TopKDrain:      {0x9f7451f47d94d2e3, 0xc545d778749f9ee5, 0x116d67a2e931f39f},
	RangeJoinProbe: {0x79842bb4c2ad8102, 0x1871daedeba19b35, 0x341e3d422891266b},
}

// accessDigest hashes every field of every access, in order.
func accessDigest(trace []Access) uint64 {
	h := fnv.New64a()
	var b [29]byte
	for _, a := range trace {
		b[0] = byte(a.Op)
		binary.LittleEndian.PutUint64(b[1:], a.Key.Group)
		binary.LittleEndian.PutUint64(b[9:], a.Key.Sub)
		binary.LittleEndian.PutUint32(b[17:], a.Size)
		binary.LittleEndian.PutUint64(b[21:], uint64(a.Time))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestAccessStreamDigests(t *testing.T) {
	for _, op := range OperatorTypes() {
		want, ok := streamDigests[op]
		if !ok {
			t.Errorf("%s: no pinned digest", op)
			continue
		}
		for i, seed := range streamSeeds {
			w, err := NewWorkload(streamCfg(op, seed))
			if err != nil {
				t.Fatal(err)
			}
			trace, err := w.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if got := accessDigest(trace); got != want[i] {
				t.Errorf("%s seed %d: stream digest %#x, pinned %#x (%d accesses)", op, seed, got, want[i], len(trace))
			}
		}
	}
}

// recordingStore hashes the operations it is handed, in arrival order,
// as the store sees them: the operation, its encoded key, and the value
// length (a get and a final get are the same store call).
type recordingStore struct {
	mu  sync.Mutex
	h   hash.Hash64
	ops int
}

func newRecordingStore() *recordingStore { return &recordingStore{h: fnv.New64a()} }

func (r *recordingStore) record(kind byte, key []byte, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.h.Write([]byte{kind})
	r.h.Write(key)
	r.h.Write(binary.LittleEndian.AppendUint32(nil, uint32(n)))
	r.ops++
}

func (r *recordingStore) Get(key []byte) ([]byte, error) {
	r.record('g', key, 0)
	return nil, kv.ErrNotFound
}
func (r *recordingStore) Put(key, value []byte) error { r.record('p', key, len(value)); return nil }
func (r *recordingStore) Merge(key, operand []byte) error {
	r.record('m', key, len(operand))
	return nil
}
func (r *recordingStore) Delete(key []byte) error { r.record('d', key, 0); return nil }
func (r *recordingStore) Close() error            { return nil }

func (r *recordingStore) ScanRange(lo, hi kv.StateKey) ([]kv.Entry, error) {
	r.record('s', append(lo.Encode(nil), hi.Encode(nil)...), 0)
	return nil, nil
}

func (r *recordingStore) sum() (uint64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.h.Sum64(), r.ops
}

// expected replays trace through a recordingStore by hand, mapping each
// access the way the replay evaluator does.
func expected(trace []Access) (uint64, int) {
	r := newRecordingStore()
	for _, a := range trace {
		key := a.Key.Encode(nil)
		switch a.Op {
		case kv.OpGet, kv.OpFGet:
			r.Get(key)
		case kv.OpPut:
			r.Put(key, make([]byte, a.Size))
		case kv.OpMerge:
			r.Merge(key, make([]byte, a.Size))
		case kv.OpDelete:
			r.Delete(key)
		case kv.OpScan:
			r.ScanRange(a.Key, a.Key.GroupEnd())
		default:
			panic(fmt.Sprintf("unexpected op %v", a.Op))
		}
	}
	return r.sum()
}

// TestOnlineSeesGeneratedStream holds the online entry points to the
// generator: a store driven by RunOnline sees exactly Generate's
// sequence, and each store of RunPartitioned exactly Generate's
// sequence over its key-disjoint partition, for every operator.
func TestOnlineSeesGeneratedStream(t *testing.T) {
	for _, op := range OperatorTypes() {
		cfg := streamCfg(op, 1)
		w, err := NewWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		st := newRecordingStore()
		if _, err := w.RunOnline(st, ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
		got, n := st.sum()
		if want, m := expected(trace); got != want || n != m {
			t.Errorf("%s: RunOnline issued %d ops (digest %#x), Generate %d (%#x)", op, n, got, m, want)
		}

		const parts = 3
		src, err := w.cfg.BuildSource()
		if err != nil {
			t.Fatal(err)
		}
		stores := make([]Store, parts)
		recs := make([]*recordingStore, parts)
		for i := range stores {
			recs[i] = newRecordingStore()
			stores[i] = recs[i]
		}
		if _, err := w.RunPartitioned(stores, ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
		for i, part := range PartitionSource(src, parts) {
			o, err := NewOperator(cfg.Operator)
			if err != nil {
				t.Fatal(err)
			}
			want, m := expected(GenerateCustom(part, o))
			if got, n := recs[i].sum(); got != want || n != m {
				t.Errorf("%s partition %d: RunPartitioned issued %d ops (digest %#x), Generate %d (%#x)", op, i, n, got, m, want)
			}
		}
	}
}
