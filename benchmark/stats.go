package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest value with at least p percent of
// the samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
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

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the acceptance check of this benchmark is computed with. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// window is one fixed-length slice of the measured interval: how many
// messages completed in it and their latencies in milliseconds.
type window struct {
	count int
	latMS []float64
}

// windowStats condenses the windows of one run: each window yields its
// own rate, p50 and p99, and the run reports its best window — the
// highest rate, the lowest percentiles. README.md gives the reason: on
// the shared host this runs on, interference only ever slows a window
// down, by up to a factor of two for seconds on end, so the quietest
// window is the one closest to what the program itself can do, and the
// only figure that repeats from run to run. The windows' median and
// spread are printed beside it. A window yields a p99 only if it holds at
// least minSamples latencies; where none does, the one p99 is that of all
// latencies pooled.
type windowStats struct {
	perSec   []float64 // messages completed per second, per window
	p50      []float64
	p99      []float64 // of the windows with enough samples, or one pooled value
	pooled99 bool
	samples  int
}

func condense(ws []window, windowSeconds float64, minSamples int) windowStats {
	var out windowStats
	var all []float64
	for _, w := range ws {
		s := sortedCopy(w.latMS)
		out.samples += len(s)
		out.perSec = append(out.perSec, float64(w.count)/windowSeconds)
		out.p50 = append(out.p50, percentile(s, 50))
		if len(s) >= minSamples {
			out.p99 = append(out.p99, percentile(s, 99))
		}
		all = append(all, s...)
	}
	if len(out.p99) == 0 && len(ws) > 0 {
		out.pooled99 = true
		sort.Float64s(all)
		out.p99 = []float64{percentile(all, 99)}
	}
	return out
}

// highest and lowest return the best of a series for a metric where
// more, or less, is better; 0 for an empty series.
func highest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Max(v)
}

func lowest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}
