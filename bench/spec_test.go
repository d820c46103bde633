package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"

	"cycledger/sim"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
		if w.Baseline != "" {
			if _, ok := findWorkload(w.Baseline); !ok {
				t.Errorf("%s: unknown baseline %q", w.Name, w.Baseline)
			}
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name != "setup_s" && d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: setup_s must carry the largest bound", d.Name)
		}
	}
	for _, d := range perLayer {
		if d.Moves == "" || d.On == "" {
			t.Errorf("%s: the interaction map needs what it moves and where", d.Name)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// TestBenchmarkJSONInSync keeps the committed contract file equal to
// what the tables render: go run -C bench . -spec > BENCHMARK.json.
func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := benchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Error("BENCHMARK.json differs from `go run -C bench . -spec`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

func TestWorkloadConfigs(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 7} {
			cfg, err := w.config(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if cfg.Seed != seed {
				t.Errorf("%s: seed %d became %d", w.Name, seed, cfg.Seed)
			}
			// The document survives a trip through the facade's own
			// serialisation and still validates.
			doc, err := cfg.ToJSON()
			if err != nil {
				t.Fatal(err)
			}
			back, err := sim.ParseConfig(doc)
			if err != nil {
				t.Fatalf("%s: re-parsing resolved config: %v", w.Name, err)
			}
			p, err := back.Params()
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("%s seed %d: %v", w.Name, seed, err)
			}
			if err := checkSizing(cfg); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
		if got := w.roundsFor(referenceSeconds); got != w.Rounds {
			t.Errorf("%s: %d rounds at the reference window, want %d", w.Name, got, w.Rounds)
		}
		if got := w.roundsFor(0.001); got != 1 {
			t.Errorf("%s: a tiny window must still measure one round, got %d", w.Name, got)
		}
	}
	if math.Abs(offeredShare(sim.DefaultConfig())-120.0/146) > 1e-9 {
		t.Errorf("offeredShare(default) = %v", offeredShare(sim.DefaultConfig()))
	}
}

// config resolves the workload's document against the defaults, as
// sim.New will.
func (w workload) config(seed int64) (sim.Config, error) {
	doc, err := w.configJSON(seed)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.ParseConfig(doc)
}

// offeredShare is the transactions offered per round as a share of the
// generator's users (2n). Above generatorHeadroom the generator runs out
// of spendable outputs and rounds get silently cheaper.
func offeredShare(c sim.Config) float64 {
	return float64(c.M*c.TxPerCommittee) / float64(2*c.TotalNodes())
}

const generatorHeadroom = 0.85

func checkSizing(c sim.Config) error {
	if s := offeredShare(c); s > generatorHeadroom {
		return fmt.Errorf("offered tx/round is %.2f of the generator's users, above %.2f", s, generatorHeadroom)
	}
	return nil
}
