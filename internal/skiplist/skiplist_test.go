package skiplist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
)

// Test keys follow the LSM's shape: a group that ends in a byte no group
// contains elsewhere (so no group is a prefix of another), then eight
// bytes holding the complement of a version, so that a higher version
// sorts first.
const testSuffix = 8

func testGroup(name string) []byte { return append([]byte(name), 0x00) }

func testKey(group []byte, version uint64) []byte {
	k := append([]byte(nil), group...)
	return binary.BigEndian.AppendUint64(k, ^version)
}

func goodHash(group []byte) uint64 {
	h := fnv.New64a()
	h.Write(group)
	return h.Sum64()
}

// clashHash leaves four distinct values in the half the index uses, so
// that probe chains, equal tags and the key comparison behind them are
// all exercised.
func clashHash(group []byte) uint64 { return goodHash(group) % 4 << 32 }

type entry struct{ key, value []byte }

// oracle is the sorted-slice model a List is checked against.
type oracle struct {
	hash    func([]byte) uint64
	entries []entry
	groups  map[string]bool
}

func (o *oracle) add(l *List, group []byte, version uint64, value []byte) {
	k := testKey(group, version)
	l.Add(k, value, o.hash(group))
	i := sort.Search(len(o.entries), func(i int) bool { return bytes.Compare(o.entries[i].key, k) >= 0 })
	o.entries = append(o.entries, entry{})
	copy(o.entries[i+1:], o.entries[i:])
	o.entries[i] = entry{k, append([]byte(nil), value...)}
	o.groups[string(group)] = true
}

func sameEntry(it *Iterator, e entry) bool {
	return it.Valid() && bytes.Equal(it.Key(), e.key) && bytes.Equal(it.Value(), e.value)
}

// check compares every way of reaching an entry with the model: First
// and Next over the whole list, SeekGE to each key, to just below it and
// to just above it followed by a few Nexts, and SeekGroup for every
// group the model holds and for the absent ones given. Versions within a
// group must be even (see below).
func (o *oracle) check(t testing.TB, l *List, absent [][]byte) {
	t.Helper()
	if l.Len() != len(o.entries) {
		t.Fatalf("Len = %d, model has %d", l.Len(), len(o.entries))
	}
	it := l.Iter()
	it.First()
	for i, e := range o.entries {
		if !sameEntry(&it, e) {
			t.Fatalf("walk: entry %d differs from the model (valid %v)", i, it.Valid())
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatalf("walk: entries past the model's %d", len(o.entries))
	}
	for i, e := range o.entries {
		below := append([]byte(nil), e.key...)
		below[len(below)-1]-- // versions are even, so complements end in an odd byte: no borrow, no collision
		above := append(append([]byte(nil), e.key...), 0)
		for _, c := range []struct {
			target []byte
			want   int
		}{{e.key, i}, {below, i}, {above, i + 1}} {
			it.SeekGE(c.target)
			for j := c.want; j < c.want+3; j++ {
				if j >= len(o.entries) {
					if it.Valid() {
						t.Fatalf("SeekGE(%x): valid past the end", c.target)
					}
					break
				}
				if !sameEntry(&it, o.entries[j]) {
					t.Fatalf("SeekGE(%x) + %d Next: not the model's entry %d", c.target, j-c.want, j)
				}
				it.Next()
			}
		}
	}
	for g := range o.groups {
		first := sort.Search(len(o.entries), func(i int) bool { return bytes.Compare(o.entries[i].key, []byte(g)) >= 0 })
		if !it.SeekGroup([]byte(g), o.hash([]byte(g))) || !sameEntry(&it, o.entries[first]) {
			t.Fatalf("SeekGroup(%x): not the group's first entry", g)
		}
	}
	for _, g := range absent {
		if o.groups[string(g)] {
			continue
		}
		if it.SeekGroup(g, o.hash(g)) || it.Valid() {
			t.Fatalf("SeekGroup(%x) found a group never added", g)
		}
	}
}

func TestEmpty(t *testing.T) {
	l := New(testSuffix)
	it := l.Iter()
	it.Next() // must not panic on an iterator never positioned
	if it.Valid() {
		t.Fatal("unpositioned iterator became valid on Next")
	}
	it.First()
	if it.Valid() || l.Len() != 0 || l.ApproxBytes() != 0 {
		t.Fatal("empty list is not empty")
	}
	it.SeekGE([]byte("a"))
	if it.Valid() || it.SeekGroup(testGroup("a"), 1) {
		t.Fatal("seek in an empty list found something")
	}
}

func TestApproxBytesIsTheThresholdCharge(t *testing.T) {
	l := New(testSuffix)
	g := testGroup("k")
	l.Add(testKey(g, 1), make([]byte, 900), goodHash(g))
	l.Add(testKey(g, 2), nil, goodHash(g))
	want := int64(2*len(testKey(g, 1)) + 900 + 2*48)
	if l.ApproxBytes() != want {
		t.Fatalf("ApproxBytes = %d, want %d", l.ApproxBytes(), want)
	}
	if l.MemBytes() < 16<<10 {
		t.Fatalf("MemBytes = %d, less than one chunk", l.MemBytes())
	}
}

// TestMatchesOracle drives first inserts, newer versions (linked in
// front without a search), older versions out of order (the ordinary
// path) and long groups through both hashes.
func TestMatchesOracle(t *testing.T) {
	long := testGroup(string(bytes.Repeat([]byte("long-group-"), 12))) // 133 bytes
	absent := [][]byte{testGroup("nope"), testGroup("g1"), testGroup(""), long[1:]}
	for name, hash := range map[string]func([]byte) uint64{"good": goodHash, "clash": clashHash} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			l := New(testSuffix)
			o := &oracle{hash: hash, groups: map[string]bool{}}
			groups := [][]byte{long, testGroup("a"), testGroup("a\x01"), testGroup("b")}
			for i := 0; i < 120; i++ {
				groups = append(groups, testGroup(fmt.Sprintf("g%03d", rng.Intn(1000))))
			}
			next := map[string]uint64{}
			for i := 0; i < 1500; i++ {
				g := groups[rng.Intn(len(groups))]
				if i%3 == 0 {
					g = groups[rng.Intn(6)] // a few groups collect many versions
				}
				next[string(g)] += 4
				v := next[string(g)]
				if rng.Intn(10) == 0 && v > 6 {
					v -= 6 // older than the newest: not a head insert
				}
				var val []byte
				if rng.Intn(4) > 0 {
					val = []byte(fmt.Sprintf("v%d", i))
				}
				o.add(l, g, v, val)
			}
			o.check(t, l, absent)
		})
	}
}

// TestValueLargerThanAChunk stores a value that needs a chunk of its
// own between ordinary entries.
func TestValueLargerThanAChunk(t *testing.T) {
	l := New(testSuffix)
	o := &oracle{hash: goodHash, groups: map[string]bool{}}
	big := make([]byte, maxChunk+12345)
	rand.New(rand.NewSource(1)).Read(big)
	o.add(l, testGroup("a"), 2, []byte("before"))
	o.add(l, testGroup("b"), 2, big)
	o.add(l, testGroup("a"), 4, []byte("after"))
	o.add(l, testGroup("c"), 2, []byte("after too"))
	o.check(t, l, nil)
}

// TestSlicesHandedOutAreSealed: keys and values come out with cap ==
// len, so an append cannot write into the neighbouring entry, and an
// empty value is nil.
func TestSlicesHandedOutAreSealed(t *testing.T) {
	l := New(testSuffix)
	o := &oracle{hash: goodHash, groups: map[string]bool{}}
	for i := 0; i < 50; i++ {
		o.add(l, testGroup(fmt.Sprintf("g%02d", i)), 1, []byte(fmt.Sprintf("value-%02d", i)))
	}
	o.add(l, testGroup("empty"), 1, []byte{})
	it := l.Iter()
	for it.First(); it.Valid(); it.Next() {
		k, v := it.Key(), it.Value()
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Fatalf("key cap %d len %d, value cap %d len %d", cap(k), len(k), cap(v), len(v))
		}
		_ = append(k, "scribble"...)
		_ = append(v, "scribble"...)
	}
	it.SeekGroup(testGroup("empty"), goodHash(testGroup("empty")))
	if it.Value() != nil {
		t.Fatalf("empty value = %#v, want nil", it.Value())
	}
	o.check(t, l, nil)
}

// TestParkedIteratorAcrossHeadInsert pins what an iterator parked on a
// group's first entry sees when a newer version is linked in front of
// it: the node it sits on now shows the newer key, and the key it was
// parked on is one Next away — nothing is skipped.
func TestParkedIteratorAcrossHeadInsert(t *testing.T) {
	l := New(testSuffix)
	a, b, c := testGroup("a"), testGroup("b"), testGroup("c")
	for _, g := range [][]byte{a, b, c} {
		l.Add(testKey(g, 10), []byte("old"), goodHash(g))
	}
	it := l.Iter()
	it.SeekGE(testKey(b, ^uint64(0)))
	if !bytes.Equal(it.Key(), testKey(b, 10)) {
		t.Fatal("not parked on b's first entry")
	}
	for v := uint64(11); v < 200; v++ { // some of these take the ordinary path
		l.Add(testKey(b, v), []byte("new"), goodHash(b))
	}
	var seen []uint64
	for ; it.Valid() && bytes.HasPrefix(it.Key(), b); it.Next() {
		seen = append(seen, ^binary.BigEndian.Uint64(it.Key()[len(b):]))
	}
	if len(seen) == 0 || seen[len(seen)-1] != 10 || !bytes.Equal(it.Key(), testKey(c, 10)) {
		t.Fatalf("parked iterator lost its place: saw versions %v", seen)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] >= seen[i-1] {
			t.Fatalf("versions out of order after the park: %v", seen)
		}
	}
}

// TestHotGroupKeepsTowers: a group rewritten many times must not become
// one long run of low nodes, or a seek to the next group walks all of
// it. One version in 16 is inserted by descent with the tower it drew.
func TestHotGroupKeepsTowers(t *testing.T) {
	l := New(testSuffix)
	hot, after := testGroup("hot"), testGroup("hot-next")
	l.Add(testKey(after, 1), nil, goodHash(after))
	const versions = 1 << 15
	for v := uint64(1); v <= versions; v++ {
		l.Add(testKey(hot, v), nil, goodHash(hot))
	}
	it := l.Iter()
	if !it.SeekGroup(hot, goodHash(hot)) {
		t.Fatal("hot group not indexed")
	}
	var tall, low, longestLow int
	for n := it.n; n != 0 && bytes.HasPrefix(l.key(l.nodes[n]), hot); n = l.nodes[n+nodeNext] {
		if l.nodes[n+nodeHeight] > headInsertMaxHeight {
			tall++
			low = 0
			continue
		}
		low++
		longestLow = max(longestLow, low)
	}
	if tall < versions/32 || longestLow > 400 {
		t.Fatalf("%d versions: %d towers above %d, longest stretch without one %d", versions, tall, headInsertMaxHeight, longestLow)
	}
}

// FuzzMemtableOrder interprets its input as a script of Adds over a few
// groups — newer versions, older versions, new groups — and checks the
// result against the sorted-slice model.
func FuzzMemtableOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 0, 129, 130, 7, 7, 7})
	f.Add(bytes.Repeat([]byte{5, 5, 133, 6}, 40))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 400 {
			script = script[:400]
		}
		l := New(testSuffix)
		o := &oracle{hash: clashHash, groups: map[string]bool{}}
		long := string(bytes.Repeat([]byte("x"), 100))
		next := map[string]uint64{}
		used := map[string]bool{}
		var absent [][]byte
		for i, b := range script {
			name := fmt.Sprintf("g%d", b&31)
			if b&31 == 31 {
				name = long
			}
			g := testGroup(name)
			next[name] += 4
			v := next[name]
			if b&128 != 0 && v > 8 {
				v -= 2 * uint64(1+b>>5&3) // an older version, unique because odd multiples of 2 are never the newest
			}
			id := fmt.Sprint(name, v)
			if used[id] {
				continue
			}
			used[id] = true
			o.add(l, g, v, script[i:min(len(script), i+int(b>>5))])
		}
		for i := 0; i < 33; i++ {
			absent = append(absent, testGroup(fmt.Sprintf("g%d", i)))
		}
		o.check(t, l, absent)
	})
}

func BenchmarkAddNewGroup(b *testing.B) {
	l := New(testSuffix)
	keys := make([][]byte, b.N)
	hashes := make([]uint64, b.N)
	for i := range keys {
		g := testGroup(fmt.Sprintf("key-%09d", i))
		keys[i], hashes[i] = testKey(g, 1), goodHash(g)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Add(keys[i], keys[i], hashes[i])
	}
}

func BenchmarkAddResidentGroup(b *testing.B) {
	l := New(testSuffix)
	const n = 10000
	groups := make([][]byte, n)
	for i := range groups {
		groups[i] = testGroup(fmt.Sprintf("key-%09d", i))
		l.Add(testKey(groups[i], 0), groups[i], goodHash(groups[i]))
	}
	key := make([]byte, 0, 64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := groups[i*7919%n]
		key = binary.BigEndian.AppendUint64(append(key[:0], g...), ^uint64(i+1))
		l.Add(key, g, goodHash(g))
	}
}

func BenchmarkSeekGroup(b *testing.B) {
	l := New(testSuffix)
	const n = 100000
	groups := make([][]byte, n)
	for i := range groups {
		groups[i] = testGroup(fmt.Sprintf("key-%09d", i))
		l.Add(testKey(groups[i], 1), groups[i], goodHash(groups[i]))
	}
	b.ResetTimer()
	b.ReportAllocs()
	it := l.Iter()
	for i := 0; i < b.N; i++ {
		g := groups[i*7919%n]
		if !it.SeekGroup(g, goodHash(g)) {
			b.Fatal("miss")
		}
	}
}
