package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if Percentile([]float64{7}, 50) != 7 {
		t.Error("single-element percentile")
	}
}

func TestPercentileBounds(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		p = math.Mod(math.Abs(p), 100)
		got := Percentile(xs, p)
		return got >= xs[0] && got <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("mean = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// shuffle to prove Summarize sorts its own copy
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	s := Summarize(xs)
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.P50-500.5) > 1 || math.Abs(s.P999-999) > 1.5 {
		t.Fatalf("percentiles = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	if (Summary{}) != Summarize(nil) {
		t.Error("empty summarize should be zero value")
	}
}

func TestKSTestIdentical(t *testing.T) {
	a := make([]float64, 500)
	for i := range a {
		a[i] = float64(i)
	}
	r := KSTest(a, a)
	if r.D != 0 {
		t.Fatalf("D = %v for identical samples", r.D)
	}
	if r.PValue < 0.99 {
		t.Fatalf("p = %v for identical samples", r.PValue)
	}
}

func TestKSTestDisjoint(t *testing.T) {
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i + 1000)
	}
	r := KSTest(a, b)
	if r.D != 1 {
		t.Fatalf("D = %v for disjoint samples, want 1", r.D)
	}
	if !r.Reject(0.001) {
		t.Fatalf("p = %v should reject", r.PValue)
	}
}

func TestKSTestDifferentDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()*3 + 2
	}
	r := KSTest(a, b)
	if !r.Reject(0.001) {
		t.Fatalf("different normals should reject: %+v", r)
	}
}

func TestKSTestSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 1000)
	b := make([]float64, 1000)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	r := KSTest(a, b)
	if r.Reject(0.001) {
		t.Fatalf("same uniform should not reject at 0.001: %+v", r)
	}
}

func TestKSTestEmpty(t *testing.T) {
	r := KSTest(nil, []float64{1, 2})
	if r.PValue != 1 || r.D != 0 {
		t.Fatalf("empty sample: %+v", r)
	}
}

func TestWasserstein(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 1, 1}
	if got := Wasserstein(a, b); math.Abs(got-1) > 1e-9 {
		t.Fatalf("W(a,b) = %v, want 1", got)
	}
	if got := Wasserstein(a, a); got != 0 {
		t.Fatalf("W(a,a) = %v", got)
	}
	if got := Wasserstein(nil, b); got != 0 {
		t.Fatalf("W(nil,b) = %v", got)
	}
	// Shift invariance: W(x, x+c) == c.
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		ys[i] = xs[i] + 2.5
	}
	if got := Wasserstein(xs, ys); math.Abs(got-2.5) > 0.01 {
		t.Fatalf("W(x, x+2.5) = %v", got)
	}
}

func TestWassersteinSymmetry(t *testing.T) {
	f := func(ra, rb []float64) bool {
		bound := func(xs []float64) []float64 {
			out := make([]float64, 0, len(xs))
			for _, x := range xs {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					continue
				}
				out = append(out, math.Mod(x, 1e6))
			}
			return out
		}
		a, b := bound(ra), bound(rb)
		d1 := Wasserstein(a, b)
		d2 := Wasserstein(b, a)
		return math.Abs(d1-d2) < 1e-9*(1+math.Abs(d1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-500.5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	// Relative error bound: 1/32 per octave.
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := 1000 * q
		got := float64(h.Quantile(q))
		if got < want*0.95 || got > want*1.10 {
			t.Errorf("q%.3f = %v, want ~%v", q, got, want)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Quantile(1) != 0 {
		t.Fatal("negative values should clamp to 0")
	}
}

func TestHistogramLargeValues(t *testing.T) {
	h := NewHistogram()
	v := int64(1) << 55
	h.Record(v)
	got := h.Quantile(0.99)
	if got < v || float64(got) > float64(v)*1.05 {
		t.Fatalf("large value quantile = %d, want ~%d", got, v)
	}
}

func TestHistogramMerge(t *testing.T) {
	h1 := NewHistogram()
	h2 := NewHistogram()
	for i := int64(0); i < 100; i++ {
		h1.Record(i)
		h2.Record(i + 1000)
	}
	h1.Merge(h2)
	if h1.Count() != 200 {
		t.Fatalf("merged count = %d", h1.Count())
	}
	if h1.Min() != 0 || h1.Max() != 1099 {
		t.Fatalf("merged min/max = %d/%d", h1.Min(), h1.Max())
	}
	empty := NewHistogram()
	empty.Merge(NewHistogram())
	if empty.Count() != 0 {
		t.Fatal("merging empties should stay empty")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		h.Record(rng.Int63n(1 << 40))
	}
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram()
	h.Record(1500)
	if h.Snapshot() == "" {
		t.Fatal("empty snapshot string")
	}
}

func TestBucketIndexValueConsistency(t *testing.T) {
	// Every value must land in a bucket whose representative value is >= v
	// and within the relative error bound.
	for _, v := range []int64{0, 1, 31, 32, 33, 100, 1023, 1024, 1 << 20, 1<<40 + 12345} {
		i := bucketIndex(v)
		rep := bucketValue(i)
		if rep < v {
			t.Errorf("bucketValue(%d)=%d < v=%d", i, rep, v)
		}
		if v > 64 && float64(rep) > float64(v)*1.07 {
			t.Errorf("bucket error too large: v=%d rep=%d", v, rep)
		}
	}
}

// TestBucketIndexPinned holds the bucket layout where recorded results
// put it: around every power of two, bucketIndex agrees with a layout
// derived bit by bit (octave from the highest set bit found by shifting,
// sub-bucket from the subBucketBits bits below it).
func TestBucketIndexPinned(t *testing.T) {
	want := func(v int64) int {
		if v < subBuckets {
			return int(v)
		}
		msb := 0
		for x := uint64(v); x > 1; x >>= 1 {
			msb++
		}
		return (msb-subBucketBits+1)*subBuckets + int(uint64(v)>>uint(msb-subBucketBits))&(subBuckets-1)
	}
	vals := []int64{0, 1}
	for k := uint(1); k <= 62; k++ {
		vals = append(vals, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, v := range vals {
		if got := bucketIndex(v); got != want(v) {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, want(v))
		}
	}
	// Spot values fixed as literals, so the reference above cannot drift
	// together with the implementation.
	for v, idx := range map[int64]int{0: 0, 31: 31, 32: 32, 63: 63, 64: 64, 65: 64, 1023: 191, 1024: 192, 1 << 62: 58 * 32} {
		if got := bucketIndex(v); got != idx {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, idx)
		}
	}
}

func TestHistogramQuantilesBatch(t *testing.T) {
	h := NewHistogram()
	// Empty histogram: all zeros, one slot per requested quantile.
	if got := h.Quantiles(SummaryQuantiles); len(got) != len(SummaryQuantiles) {
		t.Fatalf("got %d quantiles, want %d", len(got), len(SummaryQuantiles))
	} else {
		for i, v := range got {
			if v != 0 {
				t.Fatalf("empty histogram quantile[%d] = %d, want 0", i, v)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		h.Record(int64(rng.Intn(1_000_000)))
	}
	batch := h.Quantiles(SummaryQuantiles)
	prev := int64(-1)
	for i, q := range SummaryQuantiles {
		// The single-pass batch must agree with the one-at-a-time path.
		if want := h.Quantile(q); batch[i] != want {
			t.Fatalf("Quantiles[%v] = %d, Quantile(%v) = %d", q, batch[i], q, want)
		}
		if batch[i] < prev {
			t.Fatalf("quantiles not monotone: %v", batch)
		}
		prev = batch[i]
	}
	if max := h.Max(); batch[len(batch)-1] > max {
		t.Fatalf("p99.9 %d exceeds recorded max %d", batch[len(batch)-1], max)
	}
}
