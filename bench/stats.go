package main

import (
	"sort"

	"gadget/internal/stats"
)

// median returns the middle of vs (the mean of the middle two for an
// even count), or 0 for none.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return stats.Percentile(s, 50)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) gives them (the exclusive method), so
// the spreads printed here are the ones the driver computes. Fewer than
// two values have no spread: both quartiles are the value itself.
func quartiles(vs []float64) (q1, q3 float64) {
	if len(vs) < 2 {
		return median(vs), median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		delta := float64(i*m - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > len(s)-1 {
			j, delta = len(s)-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// micros converts nanoseconds to microseconds.
func micros(ns float64) float64 { return ns / 1e3 }

// histQuantile reads the q-quantile of h in nanoseconds, interpolating
// linearly inside the bucket that holds it. The histogram's own Quantile
// answers with that bucket's upper bound, a 3 % lattice on which a steady
// latency reads exactly the same on every run; the driver refuses such a
// time. Nothing here knows the bucket layout: Quantile names the bucket
// by its upper bound, CumulativeCounts gives the counts on both sides of
// it, and the quantile of the count below names the occupied bucket
// before it, whose upper bound is the lower edge.
func histQuantile(h *stats.Histogram, q float64) float64 {
	total := float64(h.Count())
	if total == 0 {
		return 0
	}
	hi := h.Quantile(q)
	cum := h.CumulativeCounts([]int64{hi - 1, hi})
	below, through := float64(cum[0]), float64(cum[1])
	if through <= below {
		through = total // the last bucket: Quantile stopped at Max, short of the bucket's bound
	}
	lo := float64(h.Min())
	if below > 0 {
		lo = float64(h.Quantile((below - 0.5) / total))
	}
	return lo + (float64(hi)-lo)*(q*total-below)/(through-below)
}

// quantileMicros is histQuantile in microseconds.
func quantileMicros(h *stats.Histogram, q float64) float64 { return micros(histQuantile(h, q)) }
