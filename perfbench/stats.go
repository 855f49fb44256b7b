package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks (the "type 7" estimator of R
// and NumPy's default). xs need not be sorted; NaN when empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
