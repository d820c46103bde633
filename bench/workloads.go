package main

import (
	"encoding/json"
	"math"
)

// warmupRounds run before every measured window; setup_s covers sim.New
// plus these.
const warmupRounds = 2

// A workload is one named configuration of the simulator, written as an
// overlay on sim.DefaultConfig().
type workload struct {
	Name string
	Why  string
	// Overlay holds the JSON config fields that differ from the default;
	// configJSON adds the seed and the round cap.
	Overlay map[string]any
	// Rounds is the fixed number of measured rounds at the reference
	// window of referenceSeconds; -seconds scales it. Fixed work, not
	// fixed time: the four virtual-time/traffic metrics are then exact for
	// a seed, and both sides of a comparison time the same rounds.
	Rounds int
	// Setups is how often an end-to-end run repeats the set-up, so setup_s
	// is a median and not one sample: five where a set-up is under a
	// second, three where it is not.
	Setups int
	// Baseline names the workload this one deforms in a single dimension,
	// so a difference between the two is that dimension's cost.
	Baseline string
	// Parity says the baseline must produce identical round reports (the
	// live transport against its simulator oracle).
	Parity bool
}

// referenceSeconds is the window the Rounds fields are sized for
// (BENCHMARK.json's run_seconds).
const referenceSeconds = 15

// The live transport's node goroutines outlive Close for a moment and
// hold their buffers until they exit, so small-live runs last: nothing
// measures heap_live_mb after it in the same process.
var workloads = []workload{
	{
		Name: "steady-small",
		Why:  "BenchmarkRoundHotPath's configuration: every layer has a visible share of the round (VRF ~49%, PoW ~21%, PVSS ~17%), so most optimisations move it a little.",
		Overlay: map[string]any{
			"pow_hardness": 4096,
		},
		Rounds: 60,
		Setups: 5,
	},
	{
		Name: "big-committee",
		Why:  "The paper's regime (lambda/c ~ 1/3, c large): config-phase VRF re-verification is O(lambda*c^2) and ~85% of the round; PoW, PVSS, consensus and ledger are each under 5%.",
		Overlay: map[string]any{
			"m": 2, "c": 48, "lambda": 16, "ref_size": 15,
			"tx_per_committee": 90,
			"pow_hardness":     4096,
		},
		Rounds: 10,
		Setups: 3,
	},
	{
		Name: "wide-cross",
		Why:  "Many small committees and 80% cross-shard traffic on the pipelined engine, two simnet lanes and aggregate certificates: Algorithm 3, routing, ledger and workload at their largest, VRF at its smallest.",
		Overlay: map[string]any{
			"m": 24, "c": 8, "lambda": 2, "ref_size": 9,
			"tx_per_committee": 14,
			"cross_frac":       0.8,
			"pow_hardness":     64,
			"pipelined":        true,
			"parallelism":      2,
			"aggregate_certs":  true,
		},
		Rounds: 54,
		Setups: 5,
	},
	{
		Name: "small-faulted",
		Why:  "steady-small with every elected leader crashed and 2% message loss: four evictions a round through section V-D recovery, silence watchdogs, and the simnet's fault-aware executor.",
		Overlay: map[string]any{
			"pow_hardness": 4096,
			"faults": map[string]any{
				"loss":     0.02,
				"adaptive": map[string]any{"budget": 4, "crash_leaders": true},
			},
		},
		Rounds:   75,
		Setups:   5,
		Baseline: "steady-small",
	},
	{
		Name: "small-live",
		Why:  "steady-small over the live transport: identical protocol work and reports, but every payload crosses wire encode/decode and transport framing on a goroutine per node.",
		Overlay: map[string]any{
			"pow_hardness": 4096,
			"transport":    "live",
		},
		Rounds:   28,
		Setups:   3,
		Baseline: "steady-small",
		Parity:   true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundsFor scales the workload's fixed round count to a window of
// seconds, never below one round.
func (w workload) roundsFor(seconds float64) int {
	n := int(math.Round(float64(w.Rounds) * seconds / referenceSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// configJSON renders the workload's config document for a seed: the
// overlay plus the seed and a round cap the run never reaches. This
// document is the only input the simulator receives.
func (w workload) configJSON(seed int64) ([]byte, error) {
	doc := make(map[string]any, len(w.Overlay)+2)
	for k, v := range w.Overlay {
		doc[k] = v
	}
	doc["seed"] = seed
	doc["rounds"] = 1 << 30
	return json.Marshal(doc)
}
