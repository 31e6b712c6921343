package main

import (
	"math"
	"slices"
)

// median returns the middle of xs (mean of the middle two for an even
// count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quantileNs estimates the p-quantile of sorted nanosecond samples as the
// mean of the samples ranked within a narrow band around p (a tenth of the
// distance to the nearer end, at most ±0.5 %). On a clock that ticks in
// whole nanoseconds a bare order statistic of a 100 ns operation can only
// move in 1 % steps; the band mean resolves below the tick, which is what
// lets a 2 % gate fail. Returns NaN for no samples.
func quantileNs(sorted []uint32, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	band := math.Min(0.005, math.Min(p, 1-p)/10)
	lo := int(math.Floor((p - band) * float64(n)))
	hi := int(math.Ceil((p + band) * float64(n)))
	lo, hi = max(lo, 0), min(hi, n)
	if hi <= lo {
		hi = lo + 1
	}
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them; with fewer than two values both
// are the value itself (NaN for none).
func quartiles(xs []float64) (q1, q3 float64) {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	q := func(i int) float64 {
		ld, m := len(xs), len(xs)+1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(3)
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median — the spread the acceptance check and -repeat
// use. With fewer than four values it falls back to (max-min)/median.
func quartileSpread(xs []float64) float64 {
	med := median(xs)
	if med == 0 || len(xs) < 2 {
		return 0
	}
	if len(xs) < 4 {
		return (slices.Max(xs) - slices.Min(xs)) / math.Abs(med)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
