package sim_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cycledger/internal/protocol"
	"cycledger/sim"
)

// extraRows are configurations no scenario has, each a document over
// DefaultConfig: a workload with invalid and cross-shard transactions,
// byzantine members as well as leaders, the adaptive adversary with every
// strategy, and small()'s topology plain, byzantine and faulted, cheap
// enough for the race detector.
var extraRows = []struct{ name, doc string }{
	{"mixed-workload", `{"cross_frac": 0.5, "invalid_frac": 0.1}`},
	{"byzantine", `{"rounds": 2, "malicious_frac": 0.2, "behavior": "equivocate,conceal", "corrupt_leaders": true}`},
	{"adaptive-full", `{"rounds": 2, "faults": {"adaptive": {"budget": 6, "crash_leaders": true, "gray_top_k": true, "bracket_deadlines": true}}}`},
	{"small", `{"m": 2, "c": 6, "lambda": 1, "ref_size": 3, "tx_per_committee": 6, "cross_frac": 0.25, "seed": 7}`},
	{"small-byzantine", `{"m": 2, "c": 6, "lambda": 1, "ref_size": 3, "tx_per_committee": 6, "cross_frac": 0.25, "seed": 7,
		"malicious_frac": 0.2, "behavior": "equivocate,conceal", "corrupt_leaders": true}`},
	{"small-faulted", `{"m": 2, "c": 6, "lambda": 1, "ref_size": 3, "tx_per_committee": 6, "cross_frac": 0.25, "seed": 7,
		"faults": {"loss": 0.02, "adaptive": {"budget": 4, "crash_leaders": true}}}`},
}

// raceRows are the rows the matrix runs under the race detector, which
// makes a run about ten times slower: the default scenario, the
// eviction-heavy and fault scenarios, whose handlers race if anything
// does, parallel-blockgen, whose members each build an overlay over the
// shared store on the lanes, and the small rows.
var raceRows = []string{"default", "leader-fault", "lossy", "partition-heal", "churn", "gray-failure", "targeted-leaders",
	"parallel-blockgen", "small", "small-byzantine", "small-faulted"}

// A column is one way to run a row: overlay, a run document, applied over
// the row's options. Its reports must equal those of the column named
// base ("" is the golden) after mask has zeroed, on both sides, the fields
// the column's mode may change; with lower, its Duration must also be
// strictly lower than base's in every round.
type column struct {
	name, overlay, base string
	mask                func(sim.RoundReport) sim.RoundReport
	lower               bool
	faultFree           bool // only on rows without a fault model
}

var columns = []column{
	{name: "lanes", overlay: `{"parallelism": 4}`},
	{name: "live", overlay: `{"transport": "live"}`},
	{name: "inert", overlay: `{"faults": {"partition": {"split": 0.5, "start_tick": 1000000000000}}}`, faultFree: true},
	{name: "pipelined", overlay: `{"pipelined": true}`, mask: noDuration, lower: true},
	{name: "pipelined-lanes-live", overlay: `{"pipelined": true, "parallelism": 4, "transport": "live"}`, base: "pipelined"},
	{name: "aggregate", overlay: `{"aggregate_certs": true}`, mask: noTraffic, faultFree: true},
	{name: "aggregate-lanes-live", overlay: `{"aggregate_certs": true, "parallelism": 4, "transport": "live"}`,
		base: "aggregate", faultFree: true},
	{name: "aggregate-pipelined-lanes", overlay: `{"aggregate_certs": true, "pipelined": true, "parallelism": 4}`,
		base: "aggregate", mask: noDuration, lower: true, faultFree: true},
}

// noDuration zeroes what the pipelined schedule changes: Duration alone.
func noDuration(r sim.RoundReport) sim.RoundReport {
	r.Duration = 0
	return r
}

// noTraffic zeroes what aggregate certificates change: the traffic totals
// (fewer, smaller messages) and the Duration they induce.
func noTraffic(r sim.RoundReport) sim.RoundReport {
	r.Duration, r.Messages, r.Bytes, r.PhaseTraffic, r.RoleTraffic = 0, 0, 0, nil, nil
	return r
}

// TestScenarioGolden is the determinism and parity matrix. Its rows are
// the registered scenarios, paper-scale at one round, and extraRows; each
// row's golden, testdata/runs/<row>.json, is its reports as
// json.MarshalIndent writes them, with a final newline. A row's run must
// reproduce its golden byte for byte, and so must the same configuration
// built by protocol.NewEngine directly. The columns then run it over four
// simnet lanes, over the live transport, with an inert fault model, and in
// the pipelined and aggregate modes, each mode alone and over lanes and
// live together, and the two modes together over lanes (see columns). paper-scale runs only with
// CYCLEDGER_PAPER_SCALE=1, and only its golden and engine columns.
// -update rewrites the goldens: only for a change that moves reports on
// purpose, and saying why.
func TestScenarioGolden(t *testing.T) {
	type row struct {
		name string
		opts []sim.Option
	}
	var rows []row
	for _, scen := range sim.List() {
		opts := slices.Clip(scen.Options)
		if scen.Name == "paper-scale" {
			opts = append(opts, sim.FromJSON([]byte(`{"rounds": 1}`)))
		}
		rows = append(rows, row{scen.Name, opts})
	}
	for _, x := range extraRows {
		rows = append(rows, row{x.name, []sim.Option{sim.FromJSON([]byte(x.doc))}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			switch {
			case r.name == "paper-scale" && os.Getenv("CYCLEDGER_PAPER_SCALE") == "":
				t.Skip("set CYCLEDGER_PAPER_SCALE=1 to run the paper-scale row")
			case raceEnabled && !slices.Contains(raceRows, r.name):
				t.Skip("not among the rows run under the race detector")
			}
			t.Parallel()
			cfg, err := sim.Resolve(r.opts...)
			if err != nil {
				t.Fatal(err)
			}
			runs := map[string][]*sim.RoundReport{}
			t.Run("golden", func(t *testing.T) {
				runs[""] = golden(t, r.name, runReports(t, r.opts...))
			})
			t.Run("engine", func(t *testing.T) {
				if runs[""] == nil {
					t.Skip("no golden")
				}
				p, err := cfg.Params()
				if err != nil {
					t.Fatal(err)
				}
				eng, err := protocol.NewEngine(p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if d := reportsDiff(got, runs[""], nil, false); d != "" {
					t.Errorf("protocol.NewEngine run differs from the golden: %s", d)
				}
			})
			if r.name == "paper-scale" {
				return
			}
			for _, c := range columns {
				if c.faultFree && cfg.Faults != nil {
					continue
				}
				t.Run(c.name, func(t *testing.T) {
					want := runs[c.base]
					if want == nil {
						t.Skipf("column %q did not run", c.base)
					}
					got := runReports(t, append(r.opts, sim.FromJSON([]byte(c.overlay)))...)
					if d := reportsDiff(got, want, c.mask, c.lower); d != "" {
						t.Errorf("reports differ from %s's (overlay %s): %s", cmp.Or(c.base, "the golden"), c.overlay, d)
					}
					runs[c.name] = got
				})
			}
		})
	}
}

// runReports runs a simulation built from opts to the end.
func runReports(t *testing.T, opts ...sim.Option) []*sim.RoundReport {
	t.Helper()
	s, err := sim.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reports, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// golden checks that reports reproduce the row's golden file byte for
// byte, with -update after writing them there, and returns the file's
// reports.
func golden(t *testing.T, row string, reports []*sim.RoundReport) []*sim.RoundReport {
	t.Helper()
	got, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "runs", row+".json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var golden []*sim.RoundReport
	if err := json.Unmarshal(want, &golden); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("reports differ from %s: %s", path, cmp.Or(reportsDiff(reports, golden, nil, false), "in formatting"))
	}
	return golden
}

// reportsDiff describes how got differs from want, round by round, after
// mask (nil for none); with lower, a Duration that is not strictly lower
// than want's is a difference too. "" means none.
func reportsDiff(got, want []*sim.RoundReport, mask func(sim.RoundReport) sim.RoundReport, lower bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rounds, want %d", len(got), len(want))
	}
	var out []string
	for i := range got {
		g, w := *got[i], *want[i]
		if lower && g.Duration >= w.Duration {
			out = append(out, fmt.Sprintf("round %d: Duration %d, want below %d", g.Round, g.Duration, w.Duration))
		}
		if mask != nil {
			g, w = mask(g), mask(w)
		}
		out = append(out, fieldsDiff(g, w)...)
	}
	return strings.Join(out, "\n\t")
}

// fieldsDiff lists the fields in which two reports' JSON forms differ.
func fieldsDiff(got, want sim.RoundReport) (out []string) {
	var g, w map[string]json.RawMessage
	gb, _ := json.Marshal(got) // a report holds nothing json cannot encode
	wb, _ := json.Marshal(want)
	_, _ = json.Unmarshal(gb, &g), json.Unmarshal(wb, &w)
	for _, k := range slices.Sorted(maps.Keys(w)) {
		if !bytes.Equal(g[k], w[k]) {
			out = append(out, fmt.Sprintf("round %d: %s = %s, want %s", want.Round, k, g[k], w[k]))
		}
	}
	return out
}
