package main

import (
	"fmt"
	"io"
	"math"
)

// verdicts of one metric × workload cell of a comparison.
const (
	within     = "within"
	regressed  = "regressed"
	unresolved = "unresolved" // run-to-run spread wider than the bound: no statement either way
	moved      = "moved"      // an exact metric changed for the better: not a regression, but not the same program output
)

// cell is one compared metric on one workload.
type cell struct {
	Metric  string
	A, B    float64 // medians over each file's runs
	Worse   float64 // how much B is worse than A, as a share of A (negative: better)
	Spread  float64 // the wider of the two sides' run-to-run spreads
	Verdict string
}

// compareMetric applies a metric's own bound to the two sides' samples.
// sameSeeds reports whether a[i] and b[i] come from the same seed and
// window, which exact metrics need.
func compareMetric(d metricDef, a, b []float64, sameSeeds bool) cell {
	c := cell{Metric: d.Name, A: median(a), B: median(b)}
	delta := c.B - c.A
	if d.Better == "higher" {
		delta = -delta
	}
	if c.A != 0 {
		c.Worse = delta / math.Abs(c.A)
	}
	if d.Exact {
		switch {
		case !sameSeeds:
			c.Verdict = unresolved
		case equalBits(a, b):
			c.Verdict = within
		case anyWorse(d, a, b):
			c.Verdict = regressed
		default:
			c.Verdict = moved
		}
		return c
	}
	c.Spread = math.Max(spread(a), spread(b))
	allowed := math.Max(d.Bound*math.Abs(c.A), d.Floor)
	switch {
	case c.Spread > d.Bound && c.Spread*math.Abs(c.A) > d.Floor:
		c.Verdict = unresolved
	case delta > allowed:
		c.Verdict = regressed
	default:
		c.Verdict = within
	}
	return c
}

// anyWorse reports whether any paired run of b is worse than a's.
func anyWorse(d metricDef, a, b []float64) bool {
	for i := range min(len(a), len(b)) {
		if (d.Better == "lower" && b[i] > a[i]) || (d.Better == "higher" && b[i] < a[i]) {
			return true
		}
	}
	return len(a) != len(b)
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// compareFiles prints, per workload row, each end-to-end metric's verdict
// for result file B against result file A, and reports whether any cell
// regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	fa, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if len(fa.Runs) == 0 || len(fb.Runs) == 0 {
		return false, fmt.Errorf("a result file holds no runs")
	}
	fmt.Fprintf(w, "# A: %s (%d runs, %s)\n# B: %s (%d runs, %s)\n", pathA, len(fa.Runs), fa.Header.CPU, pathB, len(fb.Runs), fb.Header.CPU)
	sameSeeds := len(fa.Runs) == len(fb.Runs)
	for i := 0; sameSeeds && i < len(fa.Runs); i++ {
		ha, hb := fa.Runs[i].Header, fb.Runs[i].Header
		sameSeeds = ha.Seed == hb.Seed && ha.Seconds == hb.Seconds
	}
	if !sameSeeds {
		fmt.Fprintln(w, "# the two files' runs do not pair up by seed and window: exact metrics are unresolved")
	}

	anyRegressed := false
	for _, wl := range workloads {
		samples := func(f resultFile, metric string) (vals []float64, failed int) {
			for _, run := range f.Runs {
				if r, ok := run.Workloads[wl.Name]; ok {
					vals = append(vals, r.EndToEnd[metric])
					failed += r.Failed
				}
			}
			return vals, failed
		}
		a, failedA := samples(fa, endToEnd[0].Name)
		b, failedB := samples(fb, endToEnd[0].Name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n== %s\n%-22s %14s %14s %8s %7s %7s  %s\n", wl.Name, "metric", "A", "B", "worse", "bound", "spread", "verdict")
		for _, d := range endToEnd {
			a, _ := samples(fa, d.Name)
			b, _ := samples(fb, d.Name)
			c := compareMetric(d, a, b, sameSeeds)
			bound := fmt.Sprintf("%.0f%%", d.Bound*100)
			if d.Exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-22s %14.4f %14.4f %+7.1f%% %7s %6.1f%%  %s\n", c.Metric, c.A, c.B, c.Worse*100, bound, c.Spread*100, c.Verdict)
			anyRegressed = anyRegressed || c.Verdict == regressed
		}
		verdict := within
		if failedB > failedA {
			verdict, anyRegressed = regressed, true
		}
		fmt.Fprintf(w, "%-22s %14d %14d %8s %7s %7s  %s\n", "failed_rounds", failedA, failedB, "", "0", "", verdict)
	}
	return anyRegressed, nil
}
