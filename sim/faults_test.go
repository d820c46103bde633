package sim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cycledger/sim"
)

// runScenario builds the named scenario with extra options and runs it to
// completion, returning the canonical JSON of its reports.
func runScenario(t *testing.T, name string, extra ...sim.Option) string {
	t.Helper()
	scen, ok := sim.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	s, err := scen.New(extra...)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestFaultScenarioDeterminism extends the determinism suite to the fault
// scenarios: every seeded fault scenario must be byte-identical at any
// simnet parallelism, in both the sequential and the pipelined engine.
func TestFaultScenarioDeterminism(t *testing.T) {
	for _, name := range []string{"lossy", "partition-heal", "churn", "gray-failure", "targeted-leaders"} {
		for _, pipelined := range []bool{false, true} {
			mode := "sequential"
			if pipelined {
				mode = "pipelined"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				mode := func(par int) sim.Option {
					return sim.FromJSON(fmt.Appendf(nil, `{"pipelined": %t, "parallelism": %d}`, pipelined, par))
				}
				want := runScenario(t, name, mode(1))
				for _, par := range []int{4, 0} { // 0 = GOMAXPROCS
					if got := runScenario(t, name, mode(par)); got != want {
						t.Fatalf("scenario %s diverged at parallelism %d", name, par)
					}
				}
			})
		}
	}
}

// TestFaultScenariosExerciseFaults: each registered fault scenario must
// actually degrade the network — dropped traffic for loss and partitions,
// at least one silence recovery or timeout verdict under churn. The
// small-faulted row's golden must drop traffic and recover a leader, or its
// matrix cells (the live transport's among them) compare fault-free runs.
func TestFaultScenariosExerciseFaults(t *testing.T) {
	t.Run("small-faulted", func(t *testing.T) {
		raw, err := os.ReadFile(filepath.Join("testdata", "runs", "small-faulted.json"))
		if err != nil {
			t.Fatal(err)
		}
		var reports []*sim.RoundReport
		if err := json.Unmarshal(raw, &reports); err != nil {
			t.Fatal(err)
		}
		var dropped uint64
		var recoveries int
		for _, r := range reports {
			dropped += r.Dropped
			recoveries += len(r.Recoveries)
		}
		if dropped == 0 || recoveries == 0 {
			t.Errorf("small-faulted's golden dropped %d messages and recovered %d leaders; both must be non-zero", dropped, recoveries)
		}
	})
	// Scenarios whose injected faults must additionally force at least one
	// completed leader recovery (crashed or silenced seats get impeached).
	needsRecovery := map[string]bool{"targeted-leaders": true}
	for _, name := range []string{"lossy", "partition-heal", "churn", "gray-failure", "targeted-leaders"} {
		t.Run(name, func(t *testing.T) {
			scen, _ := sim.Lookup(name)
			s, err := scen.New()
			if err != nil {
				t.Fatal(err)
			}
			reports, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var dropped, tx uint64
			var recoveries int
			for _, r := range reports {
				dropped += r.Dropped
				tx += uint64(r.Throughput())
				recoveries += len(r.Recoveries)
			}
			if dropped == 0 {
				t.Fatalf("scenario %s dropped no traffic", name)
			}
			if tx == 0 {
				t.Fatalf("scenario %s committed nothing — degradation should be graceful", name)
			}
			if needsRecovery[name] && recoveries == 0 {
				t.Fatalf("scenario %s completed no leader recovery", name)
			}
		})
	}
}

// TestInertFaultModelChangesNothing: on every registered scenario without
// a fault model, installing one that never acts — a partition that starts
// long after the run ends — gives equal reports. Silence detection runs
// on every network, so whether a model is installed is not a switch.
func TestInertFaultModelChangesNothing(t *testing.T) {
	inert := sim.FromJSON([]byte(`{"faults": {"partition": {"split": 0.5, "start_tick": 1000000000000}}}`))
	for _, scen := range sim.List() {
		cfg, err := scen.Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Faults != nil {
			continue
		}
		t.Run(scen.Name, func(t *testing.T) {
			if scen.Name == "paper-scale" && os.Getenv("CYCLEDGER_PAPER_SCALE") == "" {
				t.Skip("set CYCLEDGER_PAPER_SCALE=1 to run the paper-scale scenario")
			}
			run := func(extra ...sim.Option) any {
				s, err := scen.New(extra...)
				if err != nil {
					t.Fatal(err)
				}
				reports, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return reports
			}
			if want, got := run(), run(inert); !reflect.DeepEqual(want, got) {
				t.Fatal("an installed fault model that never acts changed the reports")
			}
		})
	}
}

// TestFaultsConfigJSONRoundTrip: Config.Faults survives ToJSON/ParseConfig
// and overlays merge leaf by leaf without clobbering sibling fields.
func TestFaultsConfigJSONRoundTrip(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Faults = &sim.FaultsConfig{
		Loss:      0.05,
		Partition: &sim.PartitionSpec{Split: 0.5, HealTick: 200},
	}
	data, err := cfg.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := sim.ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Faults == nil || back.Faults.Loss != 0.05 || back.Faults.Partition == nil ||
		back.Faults.Partition.HealTick != 200 {
		t.Fatalf("faults did not round-trip: %+v", back.Faults)
	}

	// Overlaying one leaf keeps the others.
	merged, err := sim.Resolve(sim.FromConfig(cfg), sim.FromJSON([]byte(`{"faults":{"loss":0.1}}`)))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Faults.Loss != 0.1 || merged.Faults.Partition == nil || merged.Faults.Partition.Split != 0.5 {
		t.Fatalf("overlay clobbered sibling fault fields: %+v", merged.Faults)
	}
	// ...and never mutates the config it started from.
	if cfg.Faults.Loss != 0.05 {
		t.Fatalf("overlay mutated the shared base spec: %+v", cfg.Faults)
	}

	// Unknown fault fields are rejected like any other config typo.
	if _, err := sim.Resolve(sim.FromJSON([]byte(`{"faults":{"losss":0.1}}`))); err == nil {
		t.Fatal("unknown fault field accepted")
	}
}

// TestRetiredFaultFormsRejected: a document that still sets one of the
// fault forms the config no longer has — burst loss, a one-way partition,
// explicit churn windows — fails as it decodes instead of running without
// them.
func TestRetiredFaultFormsRejected(t *testing.T) {
	for _, doc := range []string{
		`{"faults":{"burst":{}}}`,
		`{"faults":{"one_way":{}}}`,
		`{"faults":{"churn":{"windows":[]}}}`,
	} {
		if _, err := sim.ParseConfig([]byte(doc)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("ParseConfig(%s) error = %v, want an unknown field", doc, err)
		}
	}
}

// TestExtendedFaultsJSONRoundTrip: gray failures, periodic churn and the
// adaptive adversary survive ToJSON/ParseConfig, and the dotted-leaf
// overlay the sweep axes rely on ("faults.adaptive.budget") merges without
// clobbering the sibling strategy flags.
func TestExtendedFaultsJSONRoundTrip(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Faults = &sim.FaultsConfig{
		Gray:     &sim.GraySpec{Frac: 0.1},
		Churn:    &sim.ChurnSpec{Frac: 0.2, Period: 300, Downtime: 40},
		Adaptive: &sim.AdaptiveSpec{Budget: 4, CrashLeaders: true, GrayTopK: true, BracketDeadlines: true},
	}
	data, err := cfg.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := sim.ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	f := back.Faults
	if f == nil || f.Gray == nil || f.Gray.Frac != 0.1 ||
		f.Churn == nil || f.Churn.Period != 300 || f.Churn.Downtime != 40 ||
		f.Adaptive == nil || f.Adaptive.Budget != 4 || !f.Adaptive.BracketDeadlines {
		t.Fatalf("extended fault fields did not round-trip: %+v", f)
	}

	// The frontier sweep overlays only the budget (and the static flag);
	// the strategy flags of the base config must survive the merge.
	merged, err := sim.Resolve(sim.FromConfig(cfg),
		sim.FromJSON([]byte(`{"faults":{"adaptive":{"budget":12,"static":true}}}`)))
	if err != nil {
		t.Fatal(err)
	}
	a := merged.Faults.Adaptive
	if a.Budget != 12 || !a.Static || !a.CrashLeaders || !a.GrayTopK || !a.BracketDeadlines {
		t.Fatalf("adaptive leaf overlay clobbered sibling fields: %+v", a)
	}
	if cfg.Faults.Adaptive.Budget != 4 || cfg.Faults.Adaptive.Static {
		t.Fatalf("overlay mutated the shared base spec: %+v", cfg.Faults.Adaptive)
	}
}
