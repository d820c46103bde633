package protocol

import (
	"math"
	"testing"
)

func TestMediumScaleRound(t *testing.T) {
	// A committee-count and committee-size step-up over the default: 8
	// committees of 24 (λ=4) with a 15-member referee committee, one
	// third byzantine voters.
	if testing.Short() {
		t.Skip("medium-scale run")
	}
	p := DefaultParams()
	p.M, p.C, p.Lambda, p.RefSize = 8, 24, 4, 15
	p.Rounds = 2
	p.TxPerCommittee = 40
	p.MaliciousFrac = 0.3
	p.ByzantineBehavior = Behavior{Vote: VoteInvert}
	e, reports := runEngine(t, p)
	for _, r := range reports {
		if r.Throughput() == 0 {
			t.Fatalf("round %d included nothing", r.Round)
		}
	}
	genesis, err := e.GenesisUTXO()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Chain().Verify(genesis); err != nil {
		t.Fatal(err)
	}
}

func TestRefereeMinorityOfflineStillProducesBlocks(t *testing.T) {
	// C_R tolerates an offline minority: Algorithm 3 quorums inside the
	// referee committee still form and the block is certified.
	p := DefaultParams()
	p.Rounds = 1
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	// Knock out 4 of 9 referees (but keep the block proposer online).
	down := 0
	for _, id := range e.roster.Referee[1:] {
		if down == 4 {
			break
		}
		e.nodes[id].Behavior = Behavior{Offline: true}
		down++
	}
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Throughput() == 0 {
		t.Fatal("offline referee minority stalled block production")
	}
}

func TestRefereeMajorityOfflineStallsBlocks(t *testing.T) {
	// The flip side: with a majority of C_R down, the block instance
	// cannot reach quorum — no block certificate, nothing delivered.
	p := DefaultParams()
	p.Rounds = 1
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range e.roster.Referee[4:] {
		e.nodes[id].Behavior = Behavior{Offline: true}
	}
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].BlockDelivered != 0 {
		t.Fatalf("block certified without a referee majority (%d deliveries)", reports[0].BlockDelivered)
	}
}

func TestMixedAdversaryRound(t *testing.T) {
	// Forging leaders, inverted voters, and offline nodes all at once,
	// within the 1/3 budget; the round must still complete and recover.
	p := DefaultParams()
	p.Rounds = 2
	p.MaliciousFrac = 0.25
	p.CorruptLeaders = true
	p.ByzantineBehavior = Behavior{ForgeSemiCommit: true, Vote: VoteInvert}
	_, reports := runEngine(t, p)
	if len(reports[0].Recoveries) == 0 {
		t.Fatal("no recovery despite forging leaders")
	}
	for _, r := range reports {
		if r.Throughput() == 0 {
			t.Fatalf("round %d stalled", r.Round)
		}
	}
}

func TestThroughputScalesWithCommittees(t *testing.T) {
	// The §III-D scalability property at test scale: throughput at m=8
	// must be at least 2.5× the throughput at m=2 (ideal 4×).
	if testing.Short() {
		t.Skip("scaling sweep")
	}
	tput := func(m int) int {
		p := DefaultParams()
		p.M = m
		p.Rounds = 1
		_, reports := runEngine(t, p)
		return reports[0].Throughput()
	}
	t2, t8 := tput(2), tput(8)
	if float64(t8) < 2.5*float64(t2) {
		t.Fatalf("throughput m=2→8: %d→%d, expected ≥2.5× growth", t2, t8)
	}
}

func TestRoundDurationBounded(t *testing.T) {
	// §III-A: each round terminates within a fixed virtual time T. With
	// Δ=10, Γ=40 the phase structure bounds a round well under 10k ticks.
	p := DefaultParams()
	p.Rounds = 2
	_, reports := runEngine(t, p)
	for _, r := range reports {
		if r.Duration > 10_000 {
			t.Fatalf("round %d took %d ticks", r.Round, r.Duration)
		}
	}
}

func TestRosterRolesDisjointAcrossRounds(t *testing.T) {
	// Selection invariant: after each round, referee ∩ leaders ∩ partial
	// sets are pairwise disjoint and every participant has exactly one
	// role.
	p := DefaultParams()
	p.Rounds = 3
	e, _ := runEngine(t, p)
	r := e.Roster()
	seen := map[int32]string{}
	mark := func(id int32, role string) {
		if prev, dup := seen[id]; dup {
			t.Fatalf("node %d holds both %s and %s", id, prev, role)
		}
		seen[id] = role
	}
	for _, id := range r.Referee {
		mark(int32(id), "referee")
	}
	for k := uint64(0); k < r.M; k++ {
		mark(int32(r.Leaders[k]), "leader")
		for _, id := range r.Partials[k] {
			mark(int32(id), "partial")
		}
		for _, id := range r.Commons[k] {
			mark(int32(id), "common")
		}
	}
	if len(seen) == 0 {
		t.Fatal("empty roster")
	}
}

func TestPartialSetsFullyStaffed(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2
	e, _ := runEngine(t, p)
	r := e.Roster()
	for k := uint64(0); k < r.M; k++ {
		if len(r.Partials[k]) != p.Lambda {
			t.Fatalf("committee %d partial set has %d members, want %d",
				k, len(r.Partials[k]), p.Lambda)
		}
	}
}

func TestReputationGapGrowsOverRounds(t *testing.T) {
	// The honest-vs-byzantine reputation gap must widen monotonically —
	// "not to advance is to go back" (§VII-A).
	p := DefaultParams()
	p.MaliciousFrac = 0.2
	p.ByzantineBehavior = Behavior{Vote: VoteInvert}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	gap := func() float64 {
		var h, b float64
		var hn, bn int
		for _, n := range e.nodes {
			rep := e.reput.Get(n.Name)
			if n.Behavior.IsByzantine() {
				b += rep
				bn++
			} else {
				h += rep
				hn++
			}
		}
		return h/float64(hn) - b/float64(bn)
	}
	prev := math.Inf(-1)
	for i := 0; i < 3; i++ {
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
		g := gap()
		if g <= prev {
			t.Fatalf("round %d: gap %.3f did not grow from %.3f", i+1, g, prev)
		}
		prev = g
	}
}
