package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// line is a canned cycbench result line.
func line(heap, txPerRound float64, correct bool) string {
	return fmt.Sprintf(`{"correct":%t,"attempted":75,"failed":0,"metrics":{`+
		`"heap_live_mb":{"value":%v,"unit":"MB"},"tx_per_round":{"value":%v,"unit":"tx"},`+
		`"round_ms_p50":{"value":24.5,"unit":"ms"}}}`, correct, heap, txPerRound)
}

func parse(t *testing.T, lines ...string) []result {
	t.Helper()
	var out []result
	for _, l := range lines {
		// A run prints its checks before the result line.
		r, err := parseResult([]byte("ok   steady-state\n" + l + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

var better = map[string]string{"heap_live_mb": "lower", "tx_per_round": "higher", "round_ms_p50": "lower"}

func TestStatsAreExclusiveQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([1, 2, 3], n=4) = [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := stats(c.xs); got != c.want {
			t.Errorf("stats(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSummaryCountsWinsAndExactMetrics(t *testing.T) {
	parent := parse(t, line(2.77, 113.7, true), line(2.78, 113.7, true), line(2.76, 113.7, true), line(2.77, 113.7, true))
	change := parse(t, line(2.46, 113.7, true), line(2.47, 113.7, true), line(2.80, 113.7, true), line(2.45, 113.7, true))
	s := summarize(parent, change, better)
	rows := map[string]row{}
	for _, r := range s.rows {
		rows[r.name] = r
	}
	heap := rows["heap_live_mb"]
	if heap.won != 3 || heap.pairs != 4 || heap.exact || !heap.beyondParentSpread {
		t.Errorf("heap_live_mb: %+v, want 3 of 4 pairs won, beyond the parent's spread", heap)
	}
	if tx := rows["tx_per_round"]; !tx.exact || !tx.equal || tx.won != 0 {
		t.Errorf("tx_per_round: %+v, want exact and bit-equal", tx)
	}
	if p50 := rows["round_ms_p50"]; p50.beyondParentSpread || p50.won != 0 {
		t.Errorf("round_ms_p50: %+v, want no move", p50)
	}
	var out bytes.Buffer
	s.write(&out)
	if status := s.verdict(&out, false); status != 0 {
		t.Fatalf("verdict %d on bit-equal exact metrics:\n%s", status, out.String())
	}
	for _, want := range []string{"| `heap_live_mb` | 2.762 / 2.77 / 2.777 | 2.453 / 2.465 / 2.717 | -11.0 % | 3/4 | yes |  |",
		"| `tx_per_round` | 113.7 / 113.7 / 113.7 | 113.7 / 113.7 / 113.7 | +0.0 % | 0/4 | no | bit-equal |",
		"exact metrics: bit-equal on every pair"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("the table lacks %q:\n%s", want, out.String())
		}
	}
}

func TestMovedExactMetricFails(t *testing.T) {
	parent := parse(t, line(2.77, 113.7, true), line(2.77, 113.7, true))
	change := parse(t, line(2.77, 113.7, true), line(2.77, 113.6, true))
	s := summarize(parent, change, better)
	var out bytes.Buffer
	if status := s.verdict(&out, false); status == 0 || !strings.Contains(out.String(), "FAIL: exact metrics moved: tx_per_round") {
		t.Errorf("verdict %d on a moved exact metric:\n%s", status, out.String())
	}
	out.Reset()
	if status := s.verdict(&out, true); status != 0 {
		t.Errorf("verdict %d with -exact-moves:\n%s", status, out.String())
	}
}

func TestIncorrectRunFails(t *testing.T) {
	s := summarize(parse(t, line(2.77, 113.7, false)), parse(t, line(2.77, 113.7, true)), better)
	var out bytes.Buffer
	if status := s.verdict(&out, true); status == 0 || !strings.Contains(out.String(), "1 of 2 runs were not correct") {
		t.Errorf("verdict %d on an incorrect run:\n%s", status, out.String())
	}
}

func TestMetricMissingOnOneSideIsNotCompared(t *testing.T) {
	parent := parse(t, line(2.77, 113.7, true))
	change := parse(t, `{"correct":true,"attempted":75,"failed":0,"metrics":{"heap_live_mb":{"value":2.5,"unit":"MB"},"chain.append_ns_per_block":{"value":5,"unit":"ns"}}}`)
	s := summarize(parent, change, better)
	if want := []string{"chain.append_ns_per_block", "round_ms_p50", "tx_per_round"}; strings.Join(s.oneSided, ",") != strings.Join(want, ",") {
		t.Errorf("one-sided metrics %v, want %v", s.oneSided, want)
	}
	if len(s.rows) != 1 || s.rows[0].name != "heap_live_mb" || s.rows[0].won != 1 {
		t.Errorf("rows %+v, want heap_live_mb alone, won", s.rows)
	}
}

func TestReadSpec(t *testing.T) {
	better, seconds, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if seconds <= 0 || better["heap_live_mb"] != "lower" || better["tx_per_s"] != "higher" || better["chain.append_ns_per_block"] != "lower" {
		t.Errorf("read %v s and directions %v", seconds, better)
	}
}

func TestParseResultRefusesJunk(t *testing.T) {
	for _, out := range []string{"", "ok   steady-state\n", `{"correct":true,"metrics":{}}`} {
		if _, err := parseResult([]byte(out)); err == nil {
			t.Errorf("parseResult(%q) succeeded", out)
		}
	}
}
