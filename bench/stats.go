package main

import "sort"

// median returns the middle value of xs (mean of the middle two for an
// even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile of xs by nearest rank: the
// value with p% of the samples below it. xs must not be empty.
func percentile(xs []float64, p int) float64 {
	return sorted(xs)[len(xs)*p/100]
}

// quartiles returns the first and third quartile of xs by the
// exclusive method (the one Python's statistics.quantiles(n=4) uses),
// so spreads printed by -compare match the ones the driver computes.
// Fewer than two samples have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(k int) float64 {
		// Position k(n+1)/4 on a 1-based scale; the interval is clamped
		// to the sample and the weight is not, exactly as Python does.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail returns the highest percentile of xs that still has at least
// ten samples beyond it, and which percentile that is. With ten or
// fewer samples no such percentile exists and the median is returned
// as percentile 50.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= 10 {
		return median(xs), 50
	}
	s := sorted(xs)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
