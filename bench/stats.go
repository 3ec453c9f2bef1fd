package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching the input.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first, second and third quartile of v exactly
// as Python's statistics.quantiles(v, n=4) does (the "exclusive"
// method), because the acceptance rule for this benchmark is stated in
// those terms. Fewer than two values have no spread: all three
// quartiles are the single value (or NaN for none).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the second quartile.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice. Only meaningful with many samples beyond the
// rank; it is used where there are a thousand or more.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
