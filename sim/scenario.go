package sim

import (
	"fmt"
	"sort"

	"cycledger/internal/protocol"
)

// A Scenario is a named, registered experiment: a description, the paper
// anchor it reproduces, and the options that configure it — for the
// built-in presets, one run-document overlay. Scenario diversity is data —
// a registry entry — not a copy-pasted main function.
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

// registry is the fixed table of built-in scenarios, filled by init.
var registry = map[string]Scenario{}

// Lookup finds a registered scenario by name.
func Lookup(name string) (Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// List returns every registered scenario, sorted by name.
func List() []Scenario {
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// mustRegister adds a built-in scenario; an empty or repeated name is a
// programming error.
func mustRegister(s Scenario) {
	if _, dup := registry[s.Name]; dup || s.Name == "" {
		panic(fmt.Sprintf("sim: scenario name %q empty or already registered", s.Name))
	}
	registry[s.Name] = s
}

// doc is a preset written as one run-document overlay on DefaultConfig:
// the JSON keys of a bench workload or a -config file.
func doc(overlay string) []Option { return []Option{FromJSON([]byte(overlay))} }

// Built-in presets reproducing the paper's evaluation matrix. The
// leader-fault pair corrupts exactly the m bootstrap leader seats: with
// the default topology (n = 4·16+9 = 73) a 0.06 budget is ⌊4.38⌋ = 4
// nodes, all spent on the four leader seats via corrupt_leaders (0.06
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
		Name:        "leader-fault",
		Description: "every bootstrap leader equivocates and conceals cross-shard lists; recovery evicts them mid-round",
		Paper:       "§V-D, Algorithm 6 / Fig. 6",
		Options:     doc(`{"rounds": 1, "tx_per_committee": 30, "cross_frac": 0.5, "malicious_frac": 0.06, "behavior": "equivocate,conceal", "corrupt_leaders": true}`),
	})
	mustRegister(Scenario{
		Name:        "no-recovery",
		Description: "the leader-fault adversary with leader re-selection disabled — the RapidChain-style liveness baseline",
		Paper:       "§V-D baseline / Table I \"dishonest leaders\" row",
		Options:     doc(`{"rounds": 1, "tx_per_committee": 30, "cross_frac": 0.5, "malicious_frac": 0.06, "behavior": "equivocate,conceal", "corrupt_leaders": true, "disable_recovery": true}`),
	})
	mustRegister(Scenario{
		Name:        "dos-prescreen",
		Description: "a DoS-flavoured workload (60% cross-shard, half invalid) with §VIII-A receiver pre-screening enabled",
		Paper:       "§VIII-A (cross-shard pre-screening)",
		Options:     doc(`{"tx_per_committee": 40, "cross_frac": 0.6, "invalid_frac": 0.5, "pre_screen_cross": true}`),
	})
	mustRegister(Scenario{
		Name:        "parallel-blockgen",
		Description: "copy-on-write overlay validation so same-round dependent transactions are both accepted",
		Paper:       "§VIII-B (parallel block generation)",
		Options:     doc(`{"tx_per_committee": 40, "parallel_block_gen": true}`),
	})
	mustRegister(Scenario{
		Name:        "cross-heavy",
		Description: "6 committees with 80% cross-shard payments — the workload that stresses inter-committee consensus",
		Paper:       "§IV-D (inter-committee consensus)",
		Options:     doc(`{"m": 6, "c": 16, "lambda": 3, "ref_size": 9, "tx_per_committee": 40, "cross_frac": 0.8}`),
	})
	mustRegister(Scenario{
		Name:        "reputation",
		Description: "4 rounds with a 20% vote-inverting minority: honest reputation climbs, byzantine reward weight collapses",
		Paper:       "§VII (incentive layer) / Fig. 4",
		Options:     doc(`{"rounds": 4, "malicious_frac": 0.2, "behavior": "invert"}`),
	})
	// Fault-model scenarios: the network degrades, the protocol degrades
	// gracefully — dropped traffic is accounted, silent leaders are
	// impeached, and phases that cannot reach quorum conclude with
	// timeout verdicts instead of wedging the round.
	mustRegister(Scenario{
		Name:        "lossy",
		Description: "5% iid message loss: throughput dips, dropped traffic is accounted, quorums still carry the round",
		Paper:       "§III-B network model under loss (this repo's fault extension)",
		Options:     doc(`{"rounds": 3, "faults": {"loss": 0.05}}`),
	})
	mustRegister(Scenario{
		Name:        "partition-heal",
		Description: "the population is split in half until tick 250, then heals: round 1 degrades with timeout verdicts, later rounds recover",
		Paper:       "partition tolerance (this repo's fault extension)",
		Options:     doc(`{"rounds": 2, "faults": {"partition": {"split": 0.5, "heal_tick": 250}}}`),
	})
	mustRegister(Scenario{
		Name:        "churn",
		Description: "15% of nodes crash and rejoin on a staggered 500-tick cycle; silence watchdogs impeach crashed leaders mid-round",
		Paper:       "§V-D recovery under crash faults (this repo's fault extension)",
		Options:     doc(`{"rounds": 3, "faults": {"churn": {"frac": 0.15, "period": 500, "downtime": 150}}}`),
	})
	mustRegister(Scenario{
		Name:        "gray-failure",
		Description: "10% of nodes gray-fail — they receive and their timers fire, but every message they send is lost; silent seats are impeached, not framed",
		Paper:       "gray/asymmetric failures (this repo's fault extension)",
		Options:     doc(`{"rounds": 3, "faults": {"gray": {"frac": 0.1}}}`),
	})
	mustRegister(Scenario{
		Name:        "targeted-leaders",
		Description: "the reactive adversary spends 4 budget units per round crashing the leaders the lottery just elected; recovery chains through successors",
		Paper:       "adaptive adversary frontier (this repo's robustness extension)",
		Options:     doc(`{"rounds": 3, "faults": {"adaptive": {"budget": 4, "crash_leaders": true}}}`),
	})
}
