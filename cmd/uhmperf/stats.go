package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as a measurement rather than a guess.
const minBeyond = 10

// tailCandidates are the percentiles tailQuantile chooses from, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// rank is the 1-based nearest rank of quantile q in n samples: the smallest
// rank whose share of the samples is at least q.  The epsilon keeps a product
// such as 0.99*1200 that lands a hair above a whole number on it.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond is how many of n samples lie strictly above quantile q's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// tailQuantile is the highest candidate percentile with at least minBeyond
// samples beyond it; ok is false when even the median has fewer.
func tailQuantile(n int) (q float64, ok bool) {
	for _, c := range tailCandidates {
		if beyond(n, c) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// dist is a sorted sample set.
type dist []float64

func newDist(xs []float64) dist {
	d := slices.Clone(xs)
	slices.Sort(d)
	return d
}

// q is the nearest-rank quantile; 0 for an empty set.
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), q)-1]
}

func median(xs []float64) float64 { return newDist(xs).q(0.5) }

// sum adds a sample set.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio divides, answering 0 for an empty base so a metric stays a finite
// JSON number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
