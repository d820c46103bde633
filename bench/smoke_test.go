package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func checkNames(cs []check) map[string]bool {
	out := make(map[string]bool, len(cs))
	for _, c := range cs {
		out[c.Name] = true
	}
	return out
}

// TestSmokeEveryWorkload measures one round of each workload and asserts
// that every output check ran and passed and that no end-to-end metric
// is zero.
func TestSmokeEveryWorkload(t *testing.T) {
	b := newBench(1, referenceSeconds)
	b.rounds = 1
	for _, w := range workloads {
		r, err := b.endToEnd(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, c := range r.Checks {
			if c.Err != nil {
				t.Errorf("%s: check %s: %v", w.Name, c.Name, c.Err)
			}
		}
		ran := checkNames(r.Checks)
		want := []string{"rounds", "chain-length", "chain-replay", "value-conservation", "steady-state"}
		if w.Parity {
			want = append(want, "parity-with-"+w.Baseline)
		}
		if r.Untraced.Cfg.Faults != nil {
			want = append(want, "faults-bite")
		}
		for _, name := range want {
			if !ran[name] {
				t.Errorf("%s: check %q did not run", w.Name, name)
			}
		}
		for _, d := range endToEnd {
			if v := r.EndToEnd[d.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.Name, d.Name, v)
			}
		}
		var line bytes.Buffer
		if err := printResultLine(&line, r, false); err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line.Bytes(), &got); err != nil {
			t.Fatalf("%s: result line: %v", w.Name, err)
		}
		if !got.Correct || got.Attempted != 1 || got.Failed != 0 || len(got.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %s", w.Name, line.String())
		}
	}
}

// TestSmokeTracedPass runs the traced pass and the layer cells on the
// baseline workload and asserts every per-layer metric is produced.
func TestSmokeTracedPass(t *testing.T) {
	defer func(d time.Duration) { cellTime = d }(cellTime)
	cellTime = 3 * time.Millisecond
	b := newBench(7, referenceSeconds)
	b.rounds = 2
	w, _ := findWorkload("small-faulted")
	r, err := b.endToEnd(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.traced(r); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Checks {
		if c.Err != nil {
			t.Errorf("check %s: %v", c.Name, c.Err)
		}
	}
	ran := checkNames(r.Checks)
	for _, name := range []string{"traced-equals-untraced", "spans-cover-round", "traced:faults-bite"} {
		if !ran[name] {
			t.Errorf("check %q did not run", name)
		}
	}
	if len(r.Layers) != len(perLayer) {
		t.Errorf("%d per-layer values for %d metrics", len(r.Layers), len(perLayer))
	}
	for _, d := range perLayer {
		v, ok := r.Layers[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v)", d.Name, v, ok)
		}
	}
	for _, name := range []string{"protocol.span.config_ms", "committee.cfg_records_per_round", "crypto.vrf_verify_ns", "consensus.instances_per_round", "wire.decode_ns_per_msg.cons", "ledger.apply_ns_per_tx", "simnet.dropped_per_round", "protocol.recoveries_per_round", "protocol.recovery_tick_penalty"} {
		if !(r.Layers[name] > 0) {
			t.Errorf("%s = %v, want a positive measurement", name, r.Layers[name])
		}
	}
	// The spans of a round are in the log, under their round, under the run.
	byID := map[int]span{}
	for _, s := range b.log.spans {
		byID[s.ID] = s
	}
	phasesSeen := 0
	for _, s := range b.log.spans {
		if s.Name == "config" {
			phasesSeen++
			round := byID[s.Parent]
			if round.Name != "round" || round.Round != s.Round || byID[round.Parent].Name != "traced-run" {
				t.Errorf("config span %d is not nested round→run: parent %+v", s.ID, round)
			}
		}
	}
	if phasesSeen != len(r.Traced.Reports) {
		t.Errorf("%d config spans for %d traced rounds", phasesSeen, len(r.Traced.Reports))
	}
}

// TestStarvedWorkloadIsCaught offers far more transactions than the
// generator has users: throughput collapses within a dozen rounds and
// the steady-state check must say so.
func TestStarvedWorkloadIsCaught(t *testing.T) {
	w := workload{Name: "starved", Overlay: map[string]any{"tx_per_committee": 200}, Rounds: 9}
	cfg, err := w.config(1)
	if err != nil {
		t.Fatal(err)
	}
	if checkSizing(cfg) == nil {
		t.Error("the sizing rule accepts 800 offered tx for 146 users")
	}
	res, s, err := run(w, 1, runOpts{rounds: w.Rounds, setups: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var steady error
	for _, c := range res.Checks {
		if c.Name == "steady-state" {
			steady = c.Err
		} else if c.Err != nil {
			t.Errorf("check %s: %v", c.Name, c.Err)
		}
	}
	if steady == nil || !strings.Contains(steady.Error(), "throughput fell") {
		t.Errorf("steady-state check on a starved workload: %v", steady)
	}
	if res.ok() {
		t.Error("a starved run must not count as correct")
	}
}
