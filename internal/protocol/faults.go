package protocol

import (
	"fmt"
	"math/rand"

	"cycledger/internal/simnet"
)

// FaultsConfig is the serialisable description of the network fault model
// a run injects underneath the protocol: iid message loss, beyond-bound
// message lag, a two-group partition with a heal tick, periodic node
// churn, gray failure and the reactive adversary. It is pure data — the
// sim facade carries it in Config.Faults and sweep axes address its fields
// by dotted JSON path (e.g. "faults.loss") — and the engine compiles it
// (Build) into simnet fault layers at construction time.
//
// A nil pointer, a config that compiles to no fault (the zero config, a
// split that leaves one side empty, a fraction below one node) and one
// whose faults never act within the run are equivalent: the engine's
// reports are byte-identical (TestNoFaultsByteIdenticalToFaultFree).
type FaultsConfig struct {
	// Loss is the iid probability that any message is dropped in flight.
	Loss float64 `json:"loss"`
	// LagFrac is the fraction of messages held LagTicks beyond their
	// synchrony bound — late, not lost (the adversary scheduling outside
	// the bound).
	LagFrac float64 `json:"lag_frac"`
	// LagTicks is the extra delay applied to lagged messages.
	LagTicks int64 `json:"lag_ticks"`
	// Partition, when non-nil with 0 < Split < 1, cuts the population in
	// two groups that cannot exchange messages until the heal tick.
	Partition *PartitionSpec `json:"partition"`
	// Churn, when non-nil with Frac > 0, crashes a deterministic subset of
	// nodes on a periodic schedule; crashed nodes rejoin after their
	// downtime window.
	Churn *ChurnSpec `json:"churn"`
	// Gray, when non-nil with Frac > 0, gray-fails a seed-derived subset:
	// those nodes receive but never send, their outbound traffic charged
	// sent + dropped.
	Gray *GraySpec `json:"gray"`
	// Adaptive, when non-nil with Budget > 0, arms the reactive adversary:
	// a planner that watches each round's roster and re-targets its fault
	// budget at the nodes that matter (see AdaptiveSpec).
	Adaptive *AdaptiveSpec `json:"adaptive"`
}

// PartitionSpec cuts the population into two groups by node ID: the first
// ⌊Split·n⌋ node IDs against the rest, from StartTick until HealTick.
type PartitionSpec struct {
	// Split is the fraction of the population on the first side of the cut.
	Split float64 `json:"split"`
	// StartTick is the virtual time at which the cut takes effect
	// (0 = from the start of the run).
	StartTick int64 `json:"start_tick"`
	// HealTick is the virtual time at which the partition heals
	// (0 = never). A non-zero HealTick must come after StartTick.
	HealTick int64 `json:"heal_tick"`
}

// GraySpec gray-fails ⌊Frac·n⌋ nodes (a seed-derived uniform subset):
// they receive and their timers fire, but every message they send is lost
// in flight.
type GraySpec struct {
	// Frac is the fraction of the population that gray-fails.
	Frac float64 `json:"frac"`
}

// ChurnSpec crashes ⌊Frac·n⌋ nodes (a seed-derived uniform subset) on a
// staggered periodic schedule: each churner is down for Downtime ticks
// out of every Period, with per-node phase offsets so the population
// never drops all at once.
type ChurnSpec struct {
	// Frac is the fraction of the population subject to churn.
	Frac float64 `json:"frac"`
	// Period is the cycle length in ticks.
	Period int64 `json:"period"`
	// Downtime is how many ticks of each period a churner spends crashed.
	Downtime int64 `json:"downtime"`
}

// AdaptiveSpec arms the reactive adversary (adversary.go): at every round
// boundary a planner reads the AdversaryView — the new roster, succession
// order, reputation ranking, and the phase deadline schedule — and spends
// Budget units on the highest-value targets. Each unit buys one node
// crashed or gray-failed for the round, or one committee's leader→referee
// link cut around a phase deadline. Allocation order: leaders first
// (CrashLeaders), then the reputation top-k gray-failed (GrayTopK), then
// deadline-bracketing cuts (BracketDeadlines), then succession chains
// (CrashLeaders again, successor by successor). With Static the same
// budget is spent obliviously — seed-random nodes crashed for the round —
// the equal-budget baseline the resilience frontier compares against.
type AdaptiveSpec struct {
	// Budget is how many units the adversary may spend per round (0 = off).
	Budget int `json:"budget"`
	// Static replaces the reactive targeting with seed-random crashes of
	// the same budget — the oblivious control arm. Strategy flags are
	// ignored under Static.
	Static bool `json:"static"`
	// CrashLeaders spends budget crashing the round's leaders the moment
	// they are known, then their successors in succession order.
	CrashLeaders bool `json:"crash_leaders"`
	// GrayTopK spends budget gray-failing the reputation ranking's top
	// nodes — the likely next-round leaders keep receiving but lose their
	// voice.
	GrayTopK bool `json:"gray_top_k"`
	// BracketDeadlines spends budget on one-way leader→referee cuts
	// bracketing the intra-committee result deadline, so a live leader's
	// certified result misses the referee collection window.
	BracketDeadlines bool `json:"bracket_deadlines"`
}

// Validate checks the spec's structural consistency.
func (f *FaultsConfig) Validate() error {
	if f == nil {
		return nil
	}
	if f.Loss < 0 || f.Loss > 1 {
		return fmt.Errorf("protocol: fault loss probability %v out of [0,1]", f.Loss)
	}
	if f.LagFrac < 0 || f.LagFrac > 1 {
		return fmt.Errorf("protocol: fault lag fraction %v out of [0,1]", f.LagFrac)
	}
	if f.LagTicks < 0 {
		return fmt.Errorf("protocol: negative fault lag (%d ticks)", f.LagTicks)
	}
	if p := f.Partition; p != nil {
		if p.Split < 0 || p.Split > 1 {
			return fmt.Errorf("protocol: partition split %v out of [0,1]", p.Split)
		}
		if p.StartTick < 0 {
			return fmt.Errorf("protocol: negative partition start tick (%d)", p.StartTick)
		}
		if p.HealTick < 0 {
			return fmt.Errorf("protocol: negative partition heal tick (%d)", p.HealTick)
		}
		if p.HealTick > 0 && p.HealTick <= p.StartTick {
			return fmt.Errorf("protocol: partition heals at tick %d, at or before its start tick %d", p.HealTick, p.StartTick)
		}
	}
	if g := f.Gray; g != nil {
		if g.Frac < 0 || g.Frac > 1 {
			return fmt.Errorf("protocol: gray-failure fraction %v out of [0,1]", g.Frac)
		}
	}
	if c := f.Churn; c != nil {
		if c.Frac < 0 || c.Frac > 1 {
			return fmt.Errorf("protocol: churn fraction %v out of [0,1]", c.Frac)
		}
		if c.Frac > 0 {
			if c.Period < 1 {
				return fmt.Errorf("protocol: churn period %d must be ≥ 1", c.Period)
			}
			if c.Downtime < 1 || c.Downtime >= c.Period {
				return fmt.Errorf("protocol: churn downtime %d must be in [1, period %d)", c.Downtime, c.Period)
			}
		}
	}
	if a := f.Adaptive; a != nil {
		if a.Budget < 0 {
			return fmt.Errorf("protocol: negative adversary budget (%d)", a.Budget)
		}
		if a.Budget > 0 && !a.Static && !a.CrashLeaders && !a.GrayTopK && !a.BracketDeadlines {
			return fmt.Errorf("protocol: adversary budget %d with no strategy selected (crash_leaders, gray_top_k, bracket_deadlines, or static)", a.Budget)
		}
	}
	return nil
}

// Clone returns a deep copy (nil-safe), so JSON overlays and sweep cells
// never mutate a spec shared with another config value.
func (f *FaultsConfig) Clone() *FaultsConfig {
	if f == nil {
		return nil
	}
	c := *f
	if f.Partition != nil {
		p := *f.Partition
		c.Partition = &p
	}
	if f.Churn != nil {
		ch := *f.Churn
		c.Churn = &ch
	}
	if f.Gray != nil {
		g := *f.Gray
		c.Gray = &g
	}
	if f.Adaptive != nil {
		a := *f.Adaptive
		c.Adaptive = &a
	}
	return &c
}

// Seed-domain separators so each sub-model consumes an independent RNG
// stream derived from the run seed.
const (
	faultSeedLoss  = 0x6c6f7373 // "loss"
	faultSeedLag   = 0x6c616721 // "lag!"
	faultSeedChurn = 0x63687572 // "chur"
	faultSeedGray  = 0x67726179 // "gray"
	faultSeedAdapt = 0x61646170 // "adap"
)

// splitGroups cuts the ID space [0, n) at ⌊split·n⌋: the first group
// against the rest. Both groups must be non-empty for the cut to exist.
func splitGroups(split float64, n int) (a, b []simnet.NodeID, ok bool) {
	cut := int(split * float64(n))
	if cut <= 0 || cut >= n {
		return nil, nil, false
	}
	a = make([]simnet.NodeID, 0, cut)
	b = make([]simnet.NodeID, 0, n-cut)
	for i := 0; i < n; i++ {
		if i < cut {
			a = append(a, simnet.NodeID(i))
		} else {
			b = append(b, simnet.NodeID(i))
		}
	}
	return a, b, true
}

// seedSubset draws ⌊frac·n⌋ distinct node IDs from a domain-separated RNG.
func seedSubset(frac float64, n int, seed int64) []simnet.NodeID {
	count := int(frac * float64(n))
	if count <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	out := make([]simnet.NodeID, count)
	for j := 0; j < count; j++ {
		out[j] = simnet.NodeID(perm[j])
	}
	return out
}

// Build compiles the spec for a population of n nodes under the given run
// seed into the model the engine installs: the RNG layers Loss and Lag in
// that order (each draws from its own seeded stream once per message, so
// their order is part of the output), then one Schedule holding every
// static directive — a partition is the cuts A→B and B→A, gray failure a
// mute from tick 0, churn periodic crashes. With an adaptive budget it
// also returns plan, the planner's own Schedule, stacked last in the
// model; it stays apart from the static one so that the planner's
// CloseOpen never retires a static open-ended window. A config that
// compiles to no layer returns a nil model, and that changes no outcome:
// an installed model that never acts gives the same reports.
func (f *FaultsConfig) Build(n int, seed int64) (model simnet.Faults, plan *simnet.Schedule) {
	if f == nil {
		return nil, nil
	}
	var layers simnet.Composite
	if f.Loss > 0 {
		layers = append(layers, simnet.NewLoss(f.Loss, seed^faultSeedLoss))
	}
	if f.LagFrac > 0 && f.LagTicks > 0 {
		layers = append(layers, simnet.NewLag(f.LagFrac, simnet.Time(f.LagTicks), seed^faultSeedLag))
	}
	var static *simnet.Schedule
	sched := func() *simnet.Schedule {
		if static == nil {
			static = simnet.NewSchedule()
		}
		return static
	}
	if p := f.Partition; p != nil {
		if a, b, ok := splitGroups(p.Split, n); ok {
			from, to := simnet.Time(p.StartTick), simnet.Time(p.HealTick)
			sched().Cut(a, b, from, to)
			sched().Cut(b, a, from, to)
		}
	}
	if g := f.Gray; g != nil {
		for _, id := range seedSubset(g.Frac, n, seed^faultSeedGray) {
			sched().Mute(id, 0, 0)
		}
	}
	if c := f.Churn; c != nil {
		nodes := seedSubset(c.Frac, n, seed^faultSeedChurn)
		for j, id := range nodes {
			// Stagger churners evenly across the period so the crash load
			// is spread, not synchronised.
			offset := int64(j) * c.Period / int64(len(nodes))
			sched().CrashEvery(id, simnet.Time(offset), simnet.Time(c.Period), simnet.Time(c.Downtime))
		}
	}
	if static != nil {
		layers = append(layers, static)
	}
	if a := f.Adaptive; a != nil && a.Budget > 0 {
		plan = simnet.NewSchedule()
		layers = append(layers, plan)
	}
	switch len(layers) {
	case 0:
		return nil, nil
	case 1:
		return layers[0], plan
	}
	return layers, plan
}
