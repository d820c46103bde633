package sim

import (
	"fmt"
	"sort"
	"sync"

	"cycledger/internal/protocol"
)

// A Scenario is a named, registered experiment: a description, the paper
// anchor it reproduces, and the option list that configures it. Scenario
// diversity is data — a registry entry — not a copy-pasted main function.
type Scenario struct {
	Name        string
	Description string
	// Paper anchors the scenario to the section/figure of the CycLedger
	// paper (or this repo's extension) it reproduces.
	Paper   string
	Options []Option
}

// New builds a simulation from the scenario's options plus extra
// overrides, applied after (and therefore over) the preset.
func (s Scenario) New(extra ...Option) (*Sim, error) {
	opts := make([]Option, 0, len(s.Options)+len(extra))
	opts = append(opts, s.Options...)
	opts = append(opts, extra...)
	return New(opts...)
}

// Config resolves the scenario's options to the Config a run would use.
func (s Scenario) Config() (Config, error) {
	return Resolve(s.Options...)
}

var registry = struct {
	sync.RWMutex
	m map[string]Scenario
}{m: make(map[string]Scenario)}

// Register adds a scenario to the registry. Names must be non-empty and
// unique; registering a duplicate is an error so presets cannot be
// silently shadowed.
func Register(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("sim: scenario with empty name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[s.Name]; dup {
		return fmt.Errorf("sim: scenario %q already registered", s.Name)
	}
	registry.m[s.Name] = s
	return nil
}

// Lookup finds a registered scenario by name.
func Lookup(name string) (Scenario, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.m[name]
	return s, ok
}

// List returns every registered scenario, sorted by name.
func List() []Scenario {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Scenario, 0, len(registry.m))
	for _, s := range registry.m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func mustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Built-in presets reproducing the paper's evaluation matrix. The
// leader-fault pair corrupts exactly the m bootstrap leader seats: with
// the default topology (n = 4·16+9 = 73) a 0.06 budget is ⌊4.38⌋ = 4
// nodes, all spent on the four leader seats via CorruptLeaders (0.06
// rather than 4/73, whose float product can truncate to 3).
func init() {
	mustRegister(Scenario{
		Name:        "default",
		Description: "3 honest rounds at the default small topology (4 committees of 16, |C_R| = 9)",
		Paper:       "§VI (small-scale smoke run)",
	})
	paper := Config(protocol.PaperScaleParams())
	paper.Parallelism = 0 // GOMAXPROCS lanes: the round is heavy, and its report the same at any parallelism
	mustRegister(Scenario{
		Name:        "paper-scale",
		Description: "the paper's headline setting: n = 2000, 20 committees of 97, λ = 40, |C_R| = 60 (heavy: ≈ 9 s per round on a two-core Xeon)",
		Paper:       "§VI, Figs. 6–8 / Table II",
		Options:     []Option{FromConfig(paper)},
	})
	mustRegister(Scenario{
		Name:        "scale-10x",
		Description: "the ROADMAP scale ceiling: the paper's geometry with 10× the committees (m = 200, n ≈ 19.5k) on the sharded simnet core (very heavy: use few rounds and full parallelism)",
		Paper:       "§III-D scalability, extrapolated ×10",
		Options: []Option{
			WithTopology(200, 97, 40, 60),
			WithWorkload(100, 1.0/3, 0),
			WithPipeline(false, 0),
		},
	})
	mustRegister(Scenario{
		Name:        "scale-50x",
		Description: "the lane-sharded scheduler's ceiling: the paper's geometry with 50× the committees (m = 1000, n ≈ 97k); extremely heavy — run a single round at full parallelism",
		Paper:       "§III-D scalability, extrapolated ×50",
		Options: []Option{
			WithTopology(1000, 97, 40, 60),
			WithWorkload(100, 1.0/3, 0),
			WithPipeline(false, 0),
			WithRounds(1),
		},
	})
	mustRegister(Scenario{
		Name:        "leader-fault",
		Description: "every bootstrap leader equivocates and conceals cross-shard lists; recovery evicts them mid-round",
		Paper:       "§V-D, Algorithm 6 / Fig. 6",
		Options: []Option{
			WithRounds(1),
			WithWorkload(30, 0.5, 0),
			WithAdversary(0.06, "equivocate,conceal", true),
		},
	})
	mustRegister(Scenario{
		Name:        "no-recovery",
		Description: "the leader-fault adversary with leader re-selection disabled — the RapidChain-style liveness baseline",
		Paper:       "§V-D baseline / Table I \"dishonest leaders\" row",
		Options: []Option{
			WithRounds(1),
			WithWorkload(30, 0.5, 0),
			WithAdversary(0.06, "equivocate,conceal", true),
			WithRecovery(false),
		},
	})
	mustRegister(Scenario{
		Name:        "dos-prescreen",
		Description: "a DoS-flavoured workload (60% cross-shard, half invalid) with §VIII-A receiver pre-screening enabled",
		Paper:       "§VIII-A (cross-shard pre-screening)",
		Options: []Option{
			WithWorkload(40, 0.6, 0.5),
			WithPreScreenCross(true),
		},
	})
	mustRegister(Scenario{
		Name:        "parallel-blockgen",
		Description: "copy-on-write overlay validation so same-round dependent transactions are both accepted",
		Paper:       "§VIII-B (parallel block generation)",
		Options: []Option{
			WithWorkload(40, 1.0/3, 0),
			WithParallelBlockGen(true),
		},
	})
	mustRegister(Scenario{
		Name:        "cross-heavy",
		Description: "6 committees with 80% cross-shard payments — the workload that stresses inter-committee consensus",
		Paper:       "§IV-D (inter-committee consensus)",
		Options: []Option{
			WithTopology(6, 16, 3, 9),
			WithWorkload(40, 0.8, 0),
		},
	})
	mustRegister(Scenario{
		Name:        "reputation",
		Description: "4 rounds with a 20% vote-inverting minority: honest reputation climbs, byzantine reward weight collapses",
		Paper:       "§VII (incentive layer) / Fig. 4",
		Options: []Option{
			WithRounds(4),
			WithAdversary(0.2, "invert", false),
		},
	})
	// Fault-model scenarios: the network degrades, the protocol degrades
	// gracefully — dropped traffic is accounted, silent leaders are
	// impeached, and phases that cannot reach quorum conclude with
	// timeout verdicts instead of wedging the round.
	mustRegister(Scenario{
		Name:        "lossy",
		Description: "5% iid message loss: throughput dips, dropped traffic is accounted, quorums still carry the round",
		Paper:       "§III-B network model under loss (this repo's fault extension)",
		Options: []Option{
			WithRounds(3),
			WithFaults(FaultsConfig{Loss: 0.05}),
		},
	})
	mustRegister(Scenario{
		Name:        "partition-heal",
		Description: "the population is split in half until tick 250, then heals: round 1 degrades with timeout verdicts, later rounds recover",
		Paper:       "partition tolerance (this repo's fault extension)",
		Options: []Option{
			WithRounds(2),
			WithFaults(FaultsConfig{Partition: &PartitionSpec{Split: 0.5, HealTick: 250}}),
		},
	})
	mustRegister(Scenario{
		Name:        "churn",
		Description: "15% of nodes crash and rejoin on a staggered 500-tick cycle; silence watchdogs impeach crashed leaders mid-round",
		Paper:       "§V-D recovery under crash faults (this repo's fault extension)",
		Options: []Option{
			WithRounds(3),
			WithFaults(FaultsConfig{Churn: &ChurnSpec{Frac: 0.15, Period: 500, Downtime: 150}}),
		},
	})
	mustRegister(Scenario{
		Name:        "gray-failure",
		Description: "10% of nodes gray-fail — they receive and their timers fire, but every message they send is lost; silent seats are impeached, not framed",
		Paper:       "gray/asymmetric failures (this repo's fault extension)",
		Options: []Option{
			WithRounds(3),
			WithFaults(FaultsConfig{Gray: &GraySpec{Frac: 0.10}}),
		},
	})
	mustRegister(Scenario{
		Name:        "targeted-leaders",
		Description: "the reactive adversary spends 4 budget units per round crashing the leaders the lottery just elected; recovery chains through successors",
		Paper:       "adaptive adversary frontier (this repo's robustness extension)",
		Options: []Option{
			WithRounds(3),
			WithFaults(FaultsConfig{Adaptive: &AdaptiveSpec{Budget: 4, CrashLeaders: true}}),
		},
	})
}
