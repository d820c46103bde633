package main

import (
	"math"
	"testing"
)

func TestTailSelection(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{12, 0, false},
		{36, 0, false},
		{39, 0, false},
		{40, 0.75, true},
		{60, 0.75, true},
		{100, 0.90, true},
		{200, 0.95, true},
		{1000, 0.99, true},
	} {
		p, ok := tailFor(tc.n)
		if ok != tc.ok || p != tc.want {
			t.Errorf("tailFor(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(tc.n, p) < 10 {
			t.Errorf("tailFor(%d) = p%v leaves %d samples beyond it", tc.n, p*100, tc.n-rank(tc.n, p))
		}
	}
	// Below 40 samples the p75 is still what gets reported, flagged.
	if p, supported := tailOf(12); p != 0.75 || supported {
		t.Errorf("tailOf(12) = %v, %v", p, supported)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v", got)
	}
	if got := percentile(xs[:60], 0.75); got != 85 { // 41..100 → rank 45
		t.Errorf("p75 of 41..100 = %v", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if median(nil) != 0 || percentile(nil, 0.5) != 0 {
		t.Error("empty samples must give 0")
	}
}

// TestSpreadMatchesPython pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the acceptance rule uses.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11, 30], n=4) == [10.25, 11.5, 25.5]
	if got, want := spread([]float64{10, 12, 11, 30}), (25.5-10.25)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 4 = %v, want %v", got, want)
	}
	if got := spread([]float64{10, 11}); math.Abs(got-1/10.5) > 1e-12 {
		t.Errorf("spread of 2 falls back to the range: %v", got)
	}
	if spread([]float64{7}) != 0 {
		t.Error("a single sample has no spread")
	}
}
