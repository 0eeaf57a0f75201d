// Package dist implements the random distributions used by the Gadget
// event generator and the YCSB-compatible workload generator: uniform,
// zipfian (Gray et al.'s rejection-inversion method, as in YCSB),
// scrambled zipfian, hotspot, sequential, exponential, latest, and
// user-supplied empirical CDFs. All generators are deterministic given a
// seed and are NOT safe for concurrent use; each worker owns its own.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Source produces indexes in [0, N) under some distribution. It is the
// key-choosing abstraction shared by the event generator and YCSB.
type Source interface {
	// Next returns the next sampled index.
	Next() uint64
	// N returns the size of the domain.
	N() uint64
}

// Kind names a built-in distribution for configuration files.
type Kind string

const (
	Uniform     Kind = "uniform"
	Zipfian     Kind = "zipfian"
	Scrambled   Kind = "scrambled_zipfian"
	Hotspot     Kind = "hotspot"
	Sequential  Kind = "sequential"
	Exponential Kind = "exponential"
	Latest      Kind = "latest"
	// Drifting is a hotspot whose hot set re-centers on a fixed sample
	// schedule (time-varying skew; see DriftingHotspotSource).
	Drifting Kind = "drifting_hotspot"
)

// Kinds lists every built-in distribution kind.
func Kinds() []Kind {
	return []Kind{Uniform, Zipfian, Scrambled, Hotspot, Sequential, Exponential, Latest, Drifting}
}

// New constructs a Source of the given kind over [0, n) using default
// parameters (zipfian theta 0.99, hotspot 20% of keys receiving 80% of
// accesses, exponential with 95% of mass in the first 10% of the domain —
// YCSB's defaults).
func New(kind Kind, n uint64, rng *rand.Rand) (Source, error) {
	switch kind {
	case Uniform:
		return NewUniform(n, rng), nil
	case Zipfian:
		return NewZipfian(n, DefaultZipfTheta, rng), nil
	case Scrambled:
		return NewScrambledZipfian(n, DefaultZipfTheta, rng), nil
	case Hotspot:
		return NewHotspot(n, 0.2, 0.8, rng), nil
	case Sequential:
		return NewSequential(n), nil
	case Exponential:
		return NewExponential(n, 0.95, 0.10, rng), nil
	case Latest:
		return NewLatest(n, rng), nil
	case Drifting:
		return NewDriftingHotspot(n, DefaultDriftHotFrac, DefaultDriftHotProb, DefaultDriftEvery, 0, rng)
	default:
		return nil, fmt.Errorf("dist: unknown distribution %q", kind)
	}
}

// uniformSource samples uniformly from [0, n).
type uniformSource struct {
	n   uint64
	rng *rand.Rand
}

// NewUniform returns a uniform Source over [0, n).
func NewUniform(n uint64, rng *rand.Rand) Source {
	if n == 0 {
		n = 1
	}
	return &uniformSource{n: n, rng: rng}
}

func (u *uniformSource) Next() uint64 { return uint64(u.rng.Int63n(int64(u.n))) }
func (u *uniformSource) N() uint64    { return u.n }

// DefaultZipfTheta is YCSB's default zipfian skew constant.
const DefaultZipfTheta = 0.99

// ZipfianSource samples from a zipfian distribution over [0, n) where
// item 0 is the most popular, using the method of Gray et al. ("Quickly
// Generating Billion-Record Synthetic Databases", SIGMOD '94) — the same
// algorithm YCSB uses.
type ZipfianSource struct {
	n                      uint64
	alpha, zetan, eta, zt2 float64
	// one is the bound of item 1's draw, 1 + 0.5^theta. It is not zt2
	// (1 + 1/2^theta), which can differ in the last bit.
	one float64
	rng *rand.Rand
}

// NewZipfian returns a zipfian Source over [0, n) with skew theta in (0, 1).
func NewZipfian(n uint64, theta float64, rng *rand.Rand) *ZipfianSource {
	if n == 0 {
		n = 1
	}
	z := &ZipfianSource{n: n, rng: rng}
	z.zetan = zetaStatic(n, theta)
	z.zt2 = zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zt2/z.zetan)
	z.one = 1 + math.Pow(0.5, theta)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(0); i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
	}
	return sum
}

func (z *ZipfianSource) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.one {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

func (z *ZipfianSource) N() uint64 { return z.n }

// scrambledSource spreads a zipfian's popular items across the key space
// via FNV hashing, matching YCSB's ScrambledZipfianGenerator.
type scrambledSource struct {
	z *ZipfianSource
}

// NewScrambledZipfian returns a scrambled zipfian Source over [0, n).
func NewScrambledZipfian(n uint64, theta float64, rng *rand.Rand) Source {
	return &scrambledSource{z: NewZipfian(n, theta, rng)}
}

func (s *scrambledSource) Next() uint64 { return FNV64(s.z.Next()) % s.z.n }
func (s *scrambledSource) N() uint64    { return s.z.n }

// FNV64 hashes a uint64 with FNV-1a, the scrambling function YCSB uses.
func FNV64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x100000001B3
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= prime
		v >>= 8
	}
	return h
}

// hotspotSource accesses a "hot" fraction of the key space with a given
// probability, uniform within each region (YCSB HotspotIntegerGenerator).
type hotspotSource struct {
	n       uint64
	hotN    uint64
	hotProb float64
	rng     *rand.Rand
}

// NewHotspot returns a hotspot Source: hotFrac of the keys receive
// hotProb of the accesses.
func NewHotspot(n uint64, hotFrac, hotProb float64, rng *rand.Rand) Source {
	if n == 0 {
		n = 1
	}
	hotN := uint64(float64(n) * hotFrac)
	if hotN == 0 {
		hotN = 1
	}
	if hotN > n {
		hotN = n
	}
	return &hotspotSource{n: n, hotN: hotN, hotProb: hotProb, rng: rng}
}

func (h *hotspotSource) Next() uint64 {
	if h.rng.Float64() < h.hotProb {
		return uint64(h.rng.Int63n(int64(h.hotN)))
	}
	if h.hotN == h.n {
		return uint64(h.rng.Int63n(int64(h.n)))
	}
	return h.hotN + uint64(h.rng.Int63n(int64(h.n-h.hotN)))
}

func (h *hotspotSource) N() uint64 { return h.n }

// sequentialSource cycles 0, 1, ..., n-1, 0, 1, ...
type sequentialSource struct {
	n    uint64
	next uint64
}

// NewSequential returns a sequential Source over [0, n).
func NewSequential(n uint64) Source {
	if n == 0 {
		n = 1
	}
	return &sequentialSource{n: n}
}

func (s *sequentialSource) Next() uint64 {
	v := s.next
	s.next = (s.next + 1) % s.n
	return v
}

func (s *sequentialSource) N() uint64 { return s.n }

// exponentialSource samples an exponential truncated to [0, n), tuned so
// that `frac` of the mass falls in the first `percentile` share of the
// domain (YCSB's ExponentialGenerator parameterization).
type exponentialSource struct {
	n     uint64
	gamma float64
	rng   *rand.Rand
}

// NewExponential returns an exponential Source over [0, n) with the given
// percentile/fraction shape (e.g. 0.95 of accesses in the first 0.10).
func NewExponential(n uint64, frac, percentile float64, rng *rand.Rand) Source {
	if n == 0 {
		n = 1
	}
	gamma := -math.Log(1-frac) / (percentile * float64(n))
	return &exponentialSource{n: n, gamma: gamma, rng: rng}
}

func (e *exponentialSource) Next() uint64 {
	for {
		v := uint64(-math.Log(e.rng.Float64()) / e.gamma)
		if v < e.n {
			return v
		}
	}
}

func (e *exponentialSource) N() uint64 { return e.n }

// latestSource favors recently inserted items: index = max - zipf(), as
// in YCSB's SkewedLatestGenerator. The "max" advances via Advance (for
// workloads that insert) or stays at n-1 for preloaded databases.
type latestSource struct {
	z   *ZipfianSource
	max uint64
}

// NewLatest returns a latest Source over a preloaded domain [0, n).
func NewLatest(n uint64, rng *rand.Rand) *latestSource {
	if n == 0 {
		n = 1
	}
	return &latestSource{z: NewZipfian(n, DefaultZipfTheta, rng), max: n - 1}
}

func (l *latestSource) Next() uint64 {
	off := l.z.Next()
	if off > l.max {
		off = l.max
	}
	return l.max - off
}

func (l *latestSource) N() uint64 { return l.z.n }

// Advance moves the "latest" frontier forward by one inserted item.
func (l *latestSource) Advance() {
	if l.max < l.z.n-1 {
		l.max++
	}
}

// ECDFSource samples from a user-provided empirical CDF given as sorted
// (value, cumulative-probability) points; sampling inverts the CDF with a
// binary search (Gadget §5.1 "the event generator can also work with
// empirical cumulative distribution functions provided by the user").
type ECDFSource struct {
	values []uint64
	cum    []float64
	rng    *rand.Rand
}

// NewECDF builds a Source from parallel slices of values and cumulative
// probabilities. cum must be non-decreasing and end at (approximately) 1.
func NewECDF(values []uint64, cum []float64, rng *rand.Rand) (*ECDFSource, error) {
	if len(values) == 0 || len(values) != len(cum) {
		return nil, fmt.Errorf("dist: ECDF needs equal-length non-empty values/cum, got %d/%d", len(values), len(cum))
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			return nil, fmt.Errorf("dist: ECDF cum not monotone at %d", i)
		}
	}
	if last := cum[len(cum)-1]; last < 0.999 || last > 1.001 {
		return nil, fmt.Errorf("dist: ECDF cum must end at 1, got %v", last)
	}
	return &ECDFSource{values: values, cum: cum, rng: rng}, nil
}

func (e *ECDFSource) Next() uint64 {
	u := e.rng.Float64()
	i := sort.SearchFloat64s(e.cum, u)
	if i >= len(e.values) {
		i = len(e.values) - 1
	}
	return e.values[i]
}

func (e *ECDFSource) N() uint64 { return e.values[len(e.values)-1] + 1 }

// Interarrival generates gaps between consecutive events in milliseconds.
type Interarrival interface {
	NextGap() int64
}

// PoissonArrivals produces exponentially distributed gaps with the given
// mean events/second rate, i.e. a Poisson arrival process.
type PoissonArrivals struct {
	meanGapMs float64
	rng       *rand.Rand
}

// NewPoissonArrivals returns Poisson arrivals at ratePerSec events/second.
func NewPoissonArrivals(ratePerSec float64, rng *rand.Rand) *PoissonArrivals {
	if ratePerSec <= 0 {
		ratePerSec = 1
	}
	return &PoissonArrivals{meanGapMs: 1000 / ratePerSec, rng: rng}
}

func (p *PoissonArrivals) NextGap() int64 {
	g := int64(p.rng.ExpFloat64() * p.meanGapMs)
	if g < 0 {
		g = 0
	}
	return g
}

// ConstantArrivals produces fixed gaps (a deterministic arrival process).
type ConstantArrivals struct{ GapMs int64 }

// NewConstantArrivals returns constant arrivals at ratePerSec events/second.
func NewConstantArrivals(ratePerSec float64) *ConstantArrivals {
	if ratePerSec <= 0 {
		ratePerSec = 1
	}
	g := int64(1000 / ratePerSec)
	if g < 1 {
		g = 1
	}
	return &ConstantArrivals{GapMs: g}
}

func (c *ConstantArrivals) NextGap() int64 { return c.GapMs }
