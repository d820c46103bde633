package protocol

import (
	"math/rand"
	"sort"

	"cycledger/internal/simnet"
)

// Reactive (adaptive) adversary scheduling.
//
// The static fault models of faults.go are oblivious: they pick their
// victims before the run and cannot aim at the leaders the lottery just
// elected. This file closes that gap. At every round boundary — after the
// roster for the round is fixed, before any of its traffic moves — the
// engine snapshots an AdversaryView (who leads, who succeeds whom, who
// referees, who ranks where on reputation, and when each phase's deadline
// is expected to fall) and hands it to a budgeted planner. The planner
// compiles its decisions into its own simnet.Schedule: pure crash/mute
// windows and directed cuts that the existing Fate/Down machinery
// executes, so every determinism invariant of the fault layer (Fate once
// per message, Down pure over (now, node), par-1 ≡ par-N) survives
// untouched. Re-planning happens on the engine's round-driving goroutine
// while the network is idle, and only ever schedules windows at or after
// the current tick, so in-flight evaluation never observes a plan change.

// AdversaryView is the read-only protocol snapshot the adaptive planner
// targets from: everything a real network-level adversary could learn by
// watching one round of announcements.
type AdversaryView struct {
	// Round is the round about to run.
	Round uint64
	// Now is the virtual time of the snapshot (the round's start tick).
	Now simnet.Time
	// Leaders holds the round's leader of each committee, indexed by
	// committee.
	Leaders []simnet.NodeID
	// Successors holds each committee's succession order: the partial-set
	// members sorted ascending by ID, the order §V-D's eviction installs
	// replacements in (Roster.successorFor picks the lowest ID).
	Successors [][]simnet.NodeID
	// Referee is the referee committee C_R.
	Referee []simnet.NodeID
	// ReputationRank is the whole population ranked by reputation,
	// descending (ties by name) — the §IV-F ranking the referee committee
	// will draw next round's leaders from.
	ReputationRank []simnet.NodeID
	// PhaseWindows holds each network stage's expected span, indexed by
	// Phase, as offsets from Now: the previous round's measured stage spans
	// when available, otherwise an estimate from the synchrony bounds —
	// including the tree dissemination depth stretch under AggregateCerts.
	PhaseWindows [len(Phases)]simnet.Window
}

// AdversaryView snapshots the state a reactive adversary plans against.
// It allocates fresh slices, so callers may not mutate engine state
// through it.
func (e *Engine) AdversaryView() AdversaryView {
	v := AdversaryView{
		Round:   e.round,
		Now:     e.Net.Now(),
		Leaders: append([]simnet.NodeID(nil), e.roster.Leaders...),
		Referee: append([]simnet.NodeID(nil), e.roster.Referee...),
	}
	v.Successors = make([][]simnet.NodeID, len(e.roster.Partials))
	for k, ps := range e.roster.Partials {
		order := append([]simnet.NodeID(nil), ps...)
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		v.Successors[k] = order
	}
	byName := make(map[string]simnet.NodeID, len(e.names))
	for i, name := range e.names {
		byName[name] = simnet.NodeID(i)
	}
	ranked := e.reput.TopK(e.names, len(e.names))
	v.ReputationRank = make([]simnet.NodeID, len(ranked))
	for i, name := range ranked {
		v.ReputationRank[i] = byName[name]
	}
	v.PhaseWindows = e.phaseSchedule()
	return v
}

// phaseSchedule estimates, as offsets from the coming round's start, the
// window each network stage will occupy. After round 1 the estimate is
// simply the previous round's measured stage spans (the adversary watched
// the schedule happen); for the first round, whose spans are all still
// zero, it is derived from the synchrony bounds Δ/Γ, stretched by the
// dissemination tree depth when aggregate certificates route committee
// broadcasts over the binomial tree.
func (e *Engine) phaseSchedule() [len(Phases)]simnet.Window {
	spans := e.stageSpans
	if spans == [len(Phases)]simnet.Time{} {
		d, g := e.lat.Delta, e.lat.Gamma
		stretch := treeStretch(&e.P, e.lat, e.P.C)
		spans = [...]simnet.Time{
			PhaseConfig:     2 + 2*d,
			PhaseSemiCommit: 2 + 2*g + stretch,
			PhaseIntra:      2 + 6*d + stretch + 2*g, // §IV-C collection deadline + result to C_R
			PhaseInter:      2 + 4*g,
			PhaseScore:      2 + 2*g + stretch,
			PhaseSelect:     2 + 2*g,
			PhaseBlock:      2 + 2*g + 2*d,
		}
	}
	var out [len(Phases)]simnet.Window
	var off simnet.Time
	for ph, span := range spans {
		out[ph] = simnet.Window{From: off, To: off + span}
		off += span
	}
	return out
}

// adversaryPlanner spends AdaptiveSpec.Budget against each round's
// AdversaryView, appending directives to its simnet.Schedule. Budget
// accounting: one unit buys one node crashed for the round, one node
// gray-failed for the round, or one committee's acting-seat→referee link
// cut around the intra result deadline. Allocation order (reactive mode):
//
//  1. crash the round's leaders (CrashLeaders),
//  2. gray-fail the reputation top-k, k capped at the leader count — the
//     likely next-round leaders (GrayTopK),
//  3. cut the acting seat's link to C_R bracketing the intra deadline
//     (BracketDeadlines),
//  4. chase succession: crash each committee's successors depth by depth
//     (CrashLeaders again).
//
// Static mode spends the identical budget crashing seed-random nodes for
// the same per-round window — the oblivious control arm of the resilience
// frontier.
type adversaryPlanner struct {
	spec   AdaptiveSpec
	model  *simnet.Schedule
	n      int
	margin simnet.Time // bracket slack: the key-member synchrony bound Γ
	rng    *rand.Rand
}

func newAdversaryPlanner(spec AdaptiveSpec, model *simnet.Schedule, n int, margin simnet.Time, seed int64) *adversaryPlanner {
	return &adversaryPlanner{
		spec:   spec,
		model:  model,
		n:      n,
		margin: margin,
		rng:    rand.New(rand.NewSource(seed ^ faultSeedAdapt)),
	}
}

// replan retires the previous round's directives and spends this round's
// budget against the view. It runs between rounds on the round-driving
// goroutine; the network is idle.
func (pl *adversaryPlanner) replan(v AdversaryView) {
	m := pl.model
	m.CloseOpen(v.Now)
	budget := pl.spec.Budget
	if pl.spec.Static {
		// Oblivious arm: same spend, no view. The RNG re-draws victims
		// every round so the comparison is against "budget random crashes
		// per round", not one fixed unlucky subset.
		for _, i := range pl.rng.Perm(pl.n) {
			if budget == 0 {
				return
			}
			m.Crash(simnet.NodeID(i), v.Now, 0)
			budget--
		}
		return
	}
	targeted := make(map[simnet.NodeID]bool)
	crash := func(id simnet.NodeID) {
		m.Crash(id, v.Now, 0)
		targeted[id] = true
		budget--
	}
	if pl.spec.CrashLeaders {
		for _, id := range v.Leaders {
			if budget == 0 {
				return
			}
			if !targeted[id] {
				crash(id)
			}
		}
	}
	if pl.spec.GrayTopK {
		k := len(v.Leaders)
		for _, id := range v.ReputationRank {
			if budget == 0 || k == 0 {
				break
			}
			if targeted[id] {
				continue
			}
			m.Mute(id, v.Now, 0)
			targeted[id] = true
			budget--
			k--
		}
		if budget == 0 {
			return
		}
	}
	if pl.spec.BracketDeadlines {
		from, to := pl.bracket(v)
		for k, leader := range v.Leaders {
			if budget == 0 {
				return
			}
			// Cut the seat that will actually hold the committee when the
			// deadline falls: the leader if it is still standing, else the
			// first successor the eviction machinery will install.
			seat := leader
			if targeted[seat] {
				seat = -1
				for _, s := range v.Successors[k] {
					if !targeted[s] {
						seat = s
						break
					}
				}
				if seat < 0 {
					continue
				}
			}
			m.Cut([]simnet.NodeID{seat}, v.Referee, from, to)
			targeted[seat] = true
			budget--
		}
	}
	if pl.spec.CrashLeaders {
		for depth := 0; budget > 0; depth++ {
			any := false
			for _, succ := range v.Successors {
				if depth >= len(succ) {
					continue
				}
				any = true
				if id := succ[depth]; !targeted[id] {
					crash(id)
					if budget == 0 {
						return
					}
				}
			}
			if !any {
				return
			}
		}
	}
}

// bracket computes the absolute cut window around the intra result
// deadline: from the expected start of the intra stage until its expected
// end plus a Γ margin, so the certified result's flight to C_R falls
// inside the cut however the drain schedules it.
func (pl *adversaryPlanner) bracket(v AdversaryView) (from, to simnet.Time) {
	w := v.PhaseWindows[PhaseIntra]
	return v.Now + w.From, v.Now + w.To + 2*pl.margin
}
