package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentiles are the candidates for a timing's reported tail, in
// rising order.
var tailPercentiles = []float64{0.75, 0.90, 0.95, 0.99}

// tailFor picks the highest candidate percentile that still has at least
// ten samples beyond it among n; ok is false when even p75 has fewer
// (n < 40), where a tail is not supported by the sample.
func tailFor(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n-rank(n, c) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// spread is the distance between the first and third quartile as a share
// of the median — the run-to-run noise measure the acceptance rule uses.
// It needs four samples for quartiles; below that it falls back to the
// full range, and to 0 for a single sample.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / math.Abs(med)
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method) on sorted input with at least two samples.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(i int) float64 {
		n := len(sorted)
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}
