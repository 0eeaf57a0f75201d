package bloom

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestNoFalseNegatives(t *testing.T) {
	b := NewBuilder()
	const n = 10000
	for i := 0; i < n; i++ {
		b.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	if b.Len() != n {
		t.Fatalf("Len = %d", b.Len())
	}
	f := b.Build(10)
	for i := 0; i < n; i++ {
		if !f.MayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	b := NewBuilder()
	const n = 10000
	for i := 0; i < n; i++ {
		b.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	f := b.Build(10)
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if f.MayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Fatalf("false positive rate %v too high", rate)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 100; i++ {
		b.Add([]byte(fmt.Sprintf("k%d", i)))
	}
	f := b.Build(10)
	f2 := FromBytes(f.Bytes())
	for i := 0; i < 100; i++ {
		if !f2.MayContain([]byte(fmt.Sprintf("k%d", i))) {
			t.Fatalf("false negative after round trip: k%d", i)
		}
	}
	if f2.k != f.k {
		t.Fatalf("k mismatch: %d vs %d", f2.k, f.k)
	}
}

// TestMayContainHashAgrees: probing with a precomputed Hash answers
// exactly as MayContain does, for members and non-members alike, on a
// built filter and on one reloaded from its serialized form.
func TestMayContainHashAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randKey := func() []byte {
		k := make([]byte, 1+rng.Intn(40))
		rng.Read(k)
		return k
	}
	b := NewBuilder()
	var members [][]byte
	for i := 0; i < 2000; i++ {
		k := randKey()
		members = append(members, k)
		b.Add(k)
	}
	built := b.Build(10)
	for _, f := range []*Filter{built, FromBytes(built.Bytes()), FromBytes(nil)} {
		for _, k := range members {
			if !f.MayContainHash(Hash(k)) {
				t.Fatalf("false negative by hash for %x", k)
			}
		}
		admitted := 0
		for i := 0; i < 20000; i++ {
			k := randKey()
			byHash := f.MayContainHash(Hash(k))
			if byHash != f.MayContain(k) {
				t.Fatalf("MayContainHash(Hash(%x)) = %v, MayContain disagrees", k, byHash)
			}
			if byHash {
				admitted++
			}
		}
		if len(f.bits) > 0 && admitted > 20000*3/100 {
			t.Fatalf("%d of 20000 random keys admitted", admitted)
		}
	}
}

func TestMalformedBytesAdmitsAll(t *testing.T) {
	f := FromBytes([]byte{1, 2})
	if !f.MayContain([]byte("anything")) {
		t.Fatal("malformed filter must admit everything (safe fallback)")
	}
	var empty Filter
	if !empty.MayContain([]byte("x")) {
		t.Fatal("zero filter must admit everything")
	}
}

func TestEmptyBuilder(t *testing.T) {
	f := NewBuilder().Build(10)
	// An empty filter should reject most keys (all bits zero).
	if f.MayContain([]byte("x")) {
		t.Fatal("empty built filter should reject")
	}
}

func TestLowBitsPerKeyClamped(t *testing.T) {
	b := NewBuilder()
	b.Add([]byte("a"))
	f := b.Build(0) // clamped to 1
	if !f.MayContain([]byte("a")) {
		t.Fatal("false negative with minimal bits")
	}
}

func BenchmarkMayContain(b *testing.B) {
	bl := NewBuilder()
	for i := 0; i < 100000; i++ {
		bl.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	f := bl.Build(10)
	key := []byte("key-54321")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.MayContain(key)
	}
}
