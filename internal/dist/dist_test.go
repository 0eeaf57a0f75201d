package dist

import (
	"math"
	"math/rand"
	"testing"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestNewAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		s, err := New(k, 100, rng())
		if err != nil {
			t.Fatalf("New(%q): %v", k, err)
		}
		if s.N() != 100 {
			t.Errorf("%q: N = %d", k, s.N())
		}
		for i := 0; i < 1000; i++ {
			if v := s.Next(); v >= 100 {
				t.Fatalf("%q: out-of-range sample %d", k, v)
			}
		}
	}
	if _, err := New("nope", 10, rng()); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestZeroDomain(t *testing.T) {
	for _, k := range Kinds() {
		s, err := New(k, 0, rng())
		if err != nil {
			t.Fatal(err)
		}
		if v := s.Next(); v != 0 {
			t.Errorf("%q over empty domain: %d", k, v)
		}
	}
}

func TestUniformCoverage(t *testing.T) {
	s := NewUniform(10, rng())
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[s.Next()]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("uniform bucket %d count %d far from 1000", i, c)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	s := NewZipfian(1000, DefaultZipfTheta, rng())
	counts := make(map[uint64]int)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Next()]++
	}
	// Item 0 should dominate: roughly 1/zeta share.
	if frac := float64(counts[0]) / n; frac < 0.05 {
		t.Errorf("zipf item 0 frequency %v too low", frac)
	}
	if counts[0] <= counts[500] {
		t.Error("zipf should heavily favor low indexes")
	}
}

func TestZipfianMonotoneFrequency(t *testing.T) {
	s := NewZipfian(100, 0.99, rng())
	counts := make([]int, 100)
	for i := 0; i < 200000; i++ {
		counts[s.Next()]++
	}
	// Frequency should broadly decrease; compare head vs tail aggregates.
	head := counts[0] + counts[1] + counts[2]
	tail := counts[97] + counts[98] + counts[99]
	if head <= tail {
		t.Errorf("zipf head %d <= tail %d", head, tail)
	}
}

func TestScrambledZipfianSpreads(t *testing.T) {
	s := NewScrambledZipfian(1000, DefaultZipfTheta, rng())
	counts := make(map[uint64]int)
	for i := 0; i < 50000; i++ {
		counts[s.Next()]++
	}
	// The most popular item should not be 0 with high probability
	// (scrambling relocates it), and skew should persist.
	var maxK uint64
	var maxC int
	for k, c := range counts {
		if c > maxC {
			maxK, maxC = k, c
		}
	}
	if maxC < 1000 {
		t.Errorf("scrambled zipf lost skew: max count %d", maxC)
	}
	_ = maxK
}

func TestHotspot(t *testing.T) {
	s := NewHotspot(1000, 0.2, 0.8, rng())
	hot := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if s.Next() < 200 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.75 || frac > 0.85 {
		t.Errorf("hot fraction = %v, want ~0.8", frac)
	}
}

func TestHotspotAllHot(t *testing.T) {
	s := NewHotspot(10, 1.0, 0.5, rng())
	for i := 0; i < 100; i++ {
		if s.Next() >= 10 {
			t.Fatal("out of range")
		}
	}
}

func TestSequentialCycles(t *testing.T) {
	s := NewSequential(3)
	want := []uint64{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("step %d: got %d want %d", i, got, w)
		}
	}
}

func TestExponentialShape(t *testing.T) {
	s := NewExponential(1000, 0.95, 0.10, rng())
	inHead := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if s.Next() < 100 {
			inHead++
		}
	}
	frac := float64(inHead) / n
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("exponential head mass = %v, want ~0.95", frac)
	}
}

func TestLatestFavorsRecent(t *testing.T) {
	s := NewLatest(1000, rng())
	high := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if s.Next() >= 900 {
			high++
		}
	}
	if frac := float64(high) / n; frac < 0.5 {
		t.Errorf("latest should favor recent keys, got top-decile frac %v", frac)
	}
}

func TestLatestAdvance(t *testing.T) {
	s := NewLatest(10, rng())
	s.max = 0
	if v := s.Next(); v != 0 {
		t.Fatalf("frontier 0 must sample 0, got %d", v)
	}
	for i := 0; i < 20; i++ {
		s.Advance()
	}
	if s.max != 9 {
		t.Fatalf("Advance should clamp at n-1, got %d", s.max)
	}
}

func TestFNV64Deterministic(t *testing.T) {
	if FNV64(12345) != FNV64(12345) {
		t.Fatal("FNV must be deterministic")
	}
	if FNV64(1) == FNV64(2) {
		t.Fatal("FNV collision on trivial inputs")
	}
}

func TestECDF(t *testing.T) {
	// 3 values: 10 with p=.5, 20 with p=.3, 30 with p=.2
	s, err := NewECDF([]uint64{10, 20, 30}, []float64{0.5, 0.8, 1.0}, rng())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[s.Next()]++
	}
	for v, want := range map[uint64]float64{10: 0.5, 20: 0.3, 30: 0.2} {
		got := float64(counts[v]) / n
		if math.Abs(got-want) > 0.03 {
			t.Errorf("ECDF value %d frequency %v, want %v", v, got, want)
		}
	}
	if s.N() != 31 {
		t.Errorf("N = %d", s.N())
	}
}

func TestECDFValidation(t *testing.T) {
	r := rng()
	if _, err := NewECDF(nil, nil, r); err == nil {
		t.Error("empty ECDF should error")
	}
	if _, err := NewECDF([]uint64{1}, []float64{0.5, 1}, r); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NewECDF([]uint64{1, 2}, []float64{0.8, 0.5}, r); err == nil {
		t.Error("non-monotone cum should error")
	}
	if _, err := NewECDF([]uint64{1, 2}, []float64{0.2, 0.5}, r); err == nil {
		t.Error("cum not ending at 1 should error")
	}
}

func TestPoissonArrivals(t *testing.T) {
	p := NewPoissonArrivals(100, rng()) // 100 ev/s => mean gap 10ms
	var sum int64
	const n = 20000
	for i := 0; i < n; i++ {
		g := p.NextGap()
		if g < 0 {
			t.Fatal("negative gap")
		}
		sum += g
	}
	mean := float64(sum) / n
	if mean < 8 || mean > 12 {
		t.Errorf("mean gap = %v ms, want ~10", mean)
	}
	if NewPoissonArrivals(0, rng()).meanGapMs != 1000 {
		t.Error("zero rate should default to 1/s")
	}
}

func TestConstantArrivals(t *testing.T) {
	c := NewConstantArrivals(200)
	if c.NextGap() != 5 {
		t.Fatalf("gap = %d", c.NextGap())
	}
	if NewConstantArrivals(1e9).NextGap() != 1 {
		t.Fatal("gap should clamp at 1ms")
	}
	if NewConstantArrivals(-1).NextGap() != 1000 {
		t.Fatal("negative rate should default")
	}
}

func BenchmarkZipfian(b *testing.B) {
	s := NewZipfian(1_000_000, DefaultZipfTheta, rng())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Next()
	}
}

func BenchmarkScrambledZipfian(b *testing.B) {
	s := NewScrambledZipfian(1_000_000, DefaultZipfTheta, rng())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Next()
	}
}

// The zipfian's item-1 bound is computed once per source. Its draws
// must be the ones of the per-draw expression it replaced,
// 1+math.Pow(0.5, theta), draw for draw.
func TestZipfianHoistedBoundUnchanged(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, n := range []uint64{2, 100_000} {
		for _, theta := range []float64{0.3, DefaultZipfTheta} {
			for _, seed := range []int64{1, 7} {
				z := NewZipfian(n, theta, rand.New(rand.NewSource(seed)))
				ref := rand.New(rand.NewSource(seed))
				for i := 0; i < draws; i++ {
					u := ref.Float64()
					var want uint64
					switch uz := u * z.zetan; {
					case uz < 1:
						want = 0
					case uz < 1+math.Pow(0.5, theta):
						want = 1
					default:
						want = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
					}
					if got := z.Next(); got != want {
						t.Fatalf("n=%d theta=%v seed=%d draw %d: %d, per-draw bound gives %d", n, theta, seed, i, got, want)
					}
				}
			}
		}
	}
}
