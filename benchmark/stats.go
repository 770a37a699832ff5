package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median of xs (mean of the two middle values for an even count).
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

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance procedure computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// quantileIdx is the nearest-rank index of quantile q in n sorted samples.
func quantileIdx(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// tailIdx is the index of the highest percentile, capped at p90, that
// still leaves at least ten samples beyond it; below 21 samples it is
// whatever sits closest to that without dropping under the median. The
// cap is p90 because further out the samples of sub-millisecond calls
// are a thin, GC-shaped tail that does not repeat from run to run.
func tailIdx(n int) int {
	k := quantileIdx(n, 0.90)
	if k > n-11 {
		k = n - 11
	}
	if k < n/2 {
		k = n / 2
	}
	return k
}

// durMeanUS is the mean of virtual durations, in µs, with every digit:
// a percentile of the cost model's few distinct values would read the
// same for every seed.
func durMeanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum.Nanoseconds()) / float64(len(ds)) / 1e3
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
