// Package stats holds the order statistics the benchmark reports.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MinTail is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1,000 samples, so a tail figure is never
// one or two outliers dressed up as a percentile.
const MinTail = 10

// Percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, refusing a tail percentile with fewer than MinTail
// samples beyond it. The median of a non-empty sample is always allowed.
func Percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p)
	}
	beyond := int(math.Floor(float64(n) * (100 - p) / 100))
	if p > 50 && beyond < MinTail {
		return 0, fmt.Errorf("percentile p%g needs %d samples beyond it, have %d of %d",
			p, MinTail, beyond, n)
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// Median is the middle value of xs (the mean of the middle two for an even
// count); 0 for no samples.
func Median(xs []float64) float64 {
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

// Quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// the spreads printed here are the ones an external check computes. It
// needs at least two samples; one sample is its own quartiles.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// Mean is the arithmetic mean of xs; 0 for no samples.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
