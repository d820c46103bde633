package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func def(t *testing.T, name string) metricDef {
	t.Helper()
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return metricDef{}
}

func TestCompareBounds(t *testing.T) {
	p50 := def(t, "round_ms_p50")
	rep := func(v float64) []float64 { return []float64{v, v, v} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"inside the bound", p50, rep(100), rep(100 * (1 + p50.Bound*0.9)), within},
		{"beyond the bound", p50, rep(100), rep(100 * (1 + p50.Bound*1.1)), regressed},
		{"faster is never a regression", p50, rep(100), rep(50), within},
		{"higher-is-better flips the sign", def(t, "tx_per_s"), rep(100), rep(70), regressed},
		{"higher-is-better gain", def(t, "tx_per_s"), rep(100), rep(170), within},
		{"spread wider than the bound", p50, []float64{100, 160, 100, 170, 100}, rep(100), unresolved},
		// setup_s: 40 ms on 100 ms is 40%, but inside the 50 ms floor.
		{"setup floor absorbs small absolute moves", def(t, "setup_s"), rep(0.100), rep(0.140), within},
		{"setup beyond floor and bound", def(t, "setup_s"), rep(1.0), rep(1.3), regressed},
		{"setup inside the bound", def(t, "setup_s"), rep(1.0), rep(1.2), within},
	} {
		if got := compareMetric(tc.d, tc.a, tc.b, true).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareExact(t *testing.T) {
	ticks := def(t, "sim_ticks_per_round")
	a := []float64{582.925, 582.925}
	if got := compareMetric(ticks, a, []float64{582.925, 582.925}, true).Verdict; got != within {
		t.Errorf("bit-equal exact metric: %q", got)
	}
	next := math.Nextafter(582.925, 1000)
	if got := compareMetric(ticks, a, []float64{582.925, next}, true).Verdict; got != regressed {
		t.Errorf("one ulp worse on an exact metric: %q", got)
	}
	if got := compareMetric(ticks, a, []float64{500, 500}, true).Verdict; got != moved {
		t.Errorf("exact metric that got better: %q", got)
	}
	if got := compareMetric(ticks, a, a, false).Verdict; got != unresolved {
		t.Errorf("exact metric across different seeds: %q", got)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		r := &workloadResult{
			W:        workloads[0],
			Untraced: &runResult{Attempted: 40},
			EndToEnd: map[string]float64{"setup_s": 0.5, "round_ms_p50": p50, "tx_per_s": 40000 / p50, "tx_per_round": 110.2, "sim_ticks_per_round": 582.925, "bytes_per_tx": 93647.4, "msgs_per_tx": 109, "heap_live_mb": 9.3},
		}
		for i := 0; i < 2; i++ {
			if err := appendResults(path, hostHeader(1, 10), []*workloadResult{r}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.json", 240), write("same.json", 240), write("slow.json", 400)

	var out bytes.Buffer
	bad, err := compareFiles(&out, a, same)
	if err != nil || bad {
		t.Fatalf("A/A comparison: regressed=%v err=%v\n%s", bad, err, out.String())
	}
	if strings.Contains(out.String(), regressed) || strings.Count(out.String(), within) != len(endToEnd)+1 {
		t.Errorf("A/A comparison should be within on every row:\n%s", out.String())
	}
	out.Reset()
	bad, err = compareFiles(&out, a, slow)
	if err != nil || !bad {
		t.Fatalf("slower B must regress: regressed=%v err=%v\n%s", bad, err, out.String())
	}
}
