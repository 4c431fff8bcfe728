package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank definition: the smallest value with at least q·n
// values at or below it. xs need not be sorted; it is not modified.
// An empty input reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// windowedPercentile splits xs, in arrival order, into equal windows
// and returns the median of the windows' q-quantiles. It uses as many
// windows as keep at least ten samples above the quantile in each, at
// most ten. One stall then moves one window's figure instead of the
// whole run's tail.
func windowedPercentile(xs []float64, q float64) float64 {
	const minBeyond, maxWindows = 10, 10
	n := len(xs)
	if n == 0 {
		return 0
	}
	windows := int(float64(n) * (1 - q) / float64(minBeyond))
	if windows > maxWindows {
		windows = maxWindows
	}
	if windows < 2 {
		return percentile(xs, q)
	}
	per := make([]float64, windows)
	for w := range per {
		per[w] = percentile(xs[w*n/windows:(w+1)*n/windows], q)
	}
	return median(per)
}
