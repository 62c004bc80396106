package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// spreads printed here match the ones the benchmark is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailPercentiles are the tail percentiles a run may report, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// tailPercentile returns the highest of tailPercentiles that has at least
// ten samples beyond it, as the nearest-rank value; ok is false when even
// p90 has fewer than ten samples beyond it.
func tailPercentile(xs []float64) (p, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		// The 1-based nearest rank, ceil(n·p/100). The epsilon keeps a
		// product such as 10000·99.9/100 from rounding up past 9990.
		rank := int(math.Ceil(float64(n)*p/100 - 1e-9))
		if rank < 1 || n-rank < 10 {
			continue
		}
		return p, sorted(xs)[rank-1], true
	}
	return 0, 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
