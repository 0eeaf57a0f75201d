package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Histogram is a log-bucketed histogram of non-negative int64 values
// (typically latencies in nanoseconds). It offers HDR-style bounded
// relative error with O(1) recording and compact memory, and is safe for
// concurrent use.
//
// Values are bucketed as (exponent, mantissa-slice): each power-of-two
// range is split into subBuckets linear sub-buckets, bounding relative
// quantile error to 1/subBuckets.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

const (
	subBucketBits = 5 // 32 sub-buckets per octave => <= ~3% relative error
	subBuckets    = 1 << subBucketBits
	numOctaves    = 64 - subBucketBits
	histBuckets   = numOctaves * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets), min: math.MaxInt64}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	// Highest set bit determines the octave; the subBucketBits bits below
	// it select the linear sub-bucket.
	msb := bits.Len64(u) - 1
	shift := msb - subBucketBits
	sub := (u >> uint(shift)) & (subBuckets - 1)
	octave := msb - subBucketBits + 1
	return octave*subBuckets + int(sub)
}

// bucketValue returns a representative (upper-bound) value for bucket i.
func bucketValue(i int) int64 {
	octave := i / subBuckets
	sub := uint64(i % subBuckets)
	if octave == 0 {
		return int64(sub)
	}
	shift := uint(octave - 1)
	base := uint64(subBuckets) << shift
	return int64(base + (sub+1)<<shift - 1)
}

// Record adds v to the histogram.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the mean of recorded values, or 0 if empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// CumulativeCounts returns, for each bound in bounds (which must be
// sorted ascending), the number of recorded values whose bucket
// representative is <= that bound — the cumulative bucket counts of a
// Prometheus histogram exposition. The trailing +Inf bucket is the
// caller's job (it equals Count()).
func (h *Histogram) CumulativeCounts(bounds []int64) []uint64 {
	out := make([]uint64, len(bounds))
	if len(bounds) == 0 {
		return out
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	j := 0
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		v := bucketValue(i)
		for j < len(bounds) && bounds[j] < v {
			out[j] = cum
			j++
		}
		if j == len(bounds) {
			break
		}
		cum += c
	}
	for ; j < len(bounds); j++ {
		out[j] = cum
	}
	return out
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) with
// bounded relative error, or 0 if the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// SummaryQuantiles is the harness-wide quantile ladder: both the
// Prometheus exposition's per-histogram summary lines and the textual
// replay result derive these (via Quantiles) so the two views always
// agree.
var SummaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// Quantiles returns an upper bound for each quantile in qs (which must
// be sorted ascending, each in [0, 1]) in a single pass over the
// buckets — the shared implementation behind the Prometheus summary
// lines and the textual result quantile block, so both always agree.
// Returns all zeros if the histogram is empty.
func (h *Histogram) Quantiles(qs []float64) []int64 {
	out := make([]int64, len(qs))
	if len(qs) == 0 {
		return out
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return out
	}
	targets := make([]uint64, len(qs))
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		t := uint64(math.Ceil(q * float64(h.total)))
		if t == 0 {
			t = 1
		}
		targets[i] = t
	}
	j := 0
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		for j < len(qs) && cum >= targets[j] {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			out[j] = v
			j++
		}
		if j == len(qs) {
			return out
		}
	}
	for ; j < len(qs); j++ {
		out[j] = h.max
	}
	return out
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	counts := append([]uint64(nil), other.counts...)
	total, sum, mn, mx := other.total, other.sum, other.min, other.max
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range counts {
		h.counts[i] += c
	}
	h.total += total
	h.sum += sum
	if total > 0 {
		if mn < h.min {
			h.min = mn
		}
		if mx > h.max {
			h.max = mx
		}
	}
}

// Snapshot returns a human-readable one-line summary in microseconds,
// assuming the recorded values are nanoseconds.
func (h *Histogram) Snapshot() string {
	return fmt.Sprintf("n=%d mean=%.2fus p50=%.2fus p99=%.2fus p99.9=%.2fus max=%.2fus",
		h.Count(), h.Mean()/1e3,
		float64(h.Quantile(0.5))/1e3,
		float64(h.Quantile(0.99))/1e3,
		float64(h.Quantile(0.999))/1e3,
		float64(h.Max())/1e3)
}
