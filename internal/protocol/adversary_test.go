package protocol

import (
	"slices"
	"testing"
)

func TestForgedSemiCommitmentEvictsLeader(t *testing.T) {
	// Theorem 2 / Claim 3: a leader announcing a semi-commitment that does
	// not match its member list is detected by C_R and replaced; the round
	// still completes.
	p := DefaultParams()
	p.Rounds = 1
	p.MaliciousFrac = 0.06 // enough budget for the leader seats
	p.CorruptLeaders = true
	p.ByzantineBehavior = Behavior{ForgeSemiCommit: true}
	_, reports := runEngine(t, p)
	r := reports[0]
	if len(r.Recoveries) == 0 {
		t.Fatal("forged semi-commitment went unpunished")
	}
	for _, rec := range r.Recoveries {
		if rec.Kind != "semicommit" {
			t.Fatalf("recovery kind = %q, want semicommit", rec.Kind)
		}
	}
	if r.Throughput() == 0 {
		t.Fatal("round produced no transactions despite recovery")
	}
}

func TestEquivocatingLeaderEvictedAndRoundCompletes(t *testing.T) {
	// §V-E: an intra-consensus equivocation yields a witness, an
	// impeachment, an eviction, and a re-run under the new leader.
	p := DefaultParams()
	p.Rounds = 1
	p.MaliciousFrac = 0.03
	p.CorruptLeaders = true
	p.ByzantineBehavior = Behavior{EquivocateIntra: true}
	_, reports := runEngine(t, p)
	r := reports[0]
	if len(r.Recoveries) == 0 {
		t.Fatal("equivocation went unpunished")
	}
	found := false
	for _, rec := range r.Recoveries {
		if rec.Kind == "equivocation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no equivocation recovery in %v", r.Recoveries)
	}
	if r.Throughput() == 0 {
		t.Fatal("round produced no transactions despite recovery")
	}
}

func TestEvictedLeaderLosesReputation(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	p.MaliciousFrac = 0.03
	p.CorruptLeaders = true
	p.ByzantineBehavior = Behavior{ForgeSemiCommit: true}
	e, reports := runEngine(t, p)
	if len(reports[0].Recoveries) == 0 {
		t.Fatal("no recovery happened")
	}
	ev := reports[0].Recoveries[0]
	// The punishment lands before the score phase, so the evicted leader
	// may earn some voting score back — but it must end the round clearly
	// below an honest leader (punishment −1 plus no leader bonus).
	evictedRep := e.Reputation().Get(e.NameOf(ev.Evicted))
	honestLeaderRep := e.Reputation().Get(e.NameOf(ev.Successor))
	if evictedRep >= honestLeaderRep {
		t.Fatalf("evicted leader reputation %g not below successor's %g", evictedRep, honestLeaderRep)
	}
}

func TestConcealingLeaderCrossShardLiveness(t *testing.T) {
	// Lemma 7: a receiving leader that conceals cross-shard lists cannot
	// block them — the partial set's fallback path completes consensus.
	p := DefaultParams()
	p.Rounds = 1
	p.CrossFrac = 0.6
	p.MaliciousFrac = 0.06
	p.CorruptLeaders = true
	p.ByzantineBehavior = Behavior{ConcealCross: true}
	_, reports := runEngine(t, p)
	if reports[0].CrossIncluded == 0 {
		t.Fatal("concealing leaders blocked all cross-shard transactions")
	}
}

func TestConcealWithRecoveryDisabledStallsCross(t *testing.T) {
	// The RapidChain-style ablation: with recovery (and the fallback
	// proposers) off, concealing leaders strangle cross-shard throughput.
	// This is the Table I row "High Efficiency w.r.t Dishonest Leaders".
	base := DefaultParams()
	base.Rounds = 1
	base.CrossFrac = 0.6
	base.MaliciousFrac = 0.9 // budget far above the leader count
	base.CorruptLeaders = true
	base.MaliciousFrac = float64(base.M) / float64(base.TotalNodes()) // exactly the leader seats
	base.ByzantineBehavior = Behavior{ConcealCross: true}

	withRecovery := base
	withRecovery.DisableRecovery = false
	_, recReports := runEngine(t, withRecovery)

	noRecovery := base
	noRecovery.DisableRecovery = true
	eng, noRecReports, err := runEngineNoFatal(noRecovery)
	if err != nil {
		t.Fatal(err)
	}
	_ = eng
	if recReports[0].CrossIncluded <= noRecReports[0].CrossIncluded {
		t.Fatalf("recovery should improve cross-shard inclusion: with=%d without=%d",
			recReports[0].CrossIncluded, noRecReports[0].CrossIncluded)
	}
}

func runEngineNoFatal(p Params) (*Engine, []*RoundReport, error) {
	e, err := NewEngine(p)
	if err != nil {
		return nil, nil, err
	}
	reports, err := e.Run()
	return e, reports, err
}

func TestCensoringLeaderReducesThroughput(t *testing.T) {
	honest := DefaultParams()
	honest.Rounds = 1
	_, honestReports := runEngine(t, honest)

	censor := honest
	censor.MaliciousFrac = float64(censor.M) / float64(censor.TotalNodes())
	censor.CorruptLeaders = true
	censor.ByzantineBehavior = Behavior{CensorAll: true}
	_, censorReports := runEngine(t, censor)

	if censorReports[0].IntraIncluded >= honestReports[0].IntraIncluded {
		t.Fatalf("censorship had no effect: %d vs honest %d",
			censorReports[0].IntraIncluded, honestReports[0].IntraIncluded)
	}
}

func TestInvertedVotersLoseReputation(t *testing.T) {
	// §VII: wrong votes cost reputation; honest voters gain it.
	p := DefaultParams()
	p.Rounds = 2
	p.MaliciousFrac = 0.15
	p.ByzantineBehavior = Behavior{Vote: VoteInvert}
	e, _ := runEngine(t, p)

	var honestSum, byzSum float64
	var honestN, byzN int
	for _, n := range e.nodes {
		rep := e.Reputation().Get(n.Name)
		if n.Behavior.Vote == VoteInvert {
			byzSum += rep
			byzN++
		} else {
			honestSum += rep
			honestN++
		}
	}
	if byzN == 0 || honestN == 0 {
		t.Fatal("population split failed")
	}
	if byzSum/float64(byzN) >= honestSum/float64(honestN) {
		t.Fatalf("inverted voters average %.2f, honest %.2f — incentive broken",
			byzSum/float64(byzN), honestSum/float64(honestN))
	}
}

func TestLazyVotersEarnNothing(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2
	p.MaliciousFrac = 0.15
	p.ByzantineBehavior = Behavior{Vote: VoteLazy}
	e, _ := runEngine(t, p)
	for _, n := range e.nodes {
		if n.Behavior.Vote == VoteLazy {
			if rep := e.Reputation().Get(n.Name); rep != 0 {
				t.Fatalf("lazy voter %s has reputation %g, want 0", n.Name, rep)
			}
		}
	}
}

func TestOfflineMinorityDoesNotStallProtocol(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	p.MaliciousFrac = 0.2
	p.ByzantineBehavior = Behavior{Offline: true}
	_, reports := runEngine(t, p)
	if reports[0].Throughput() == 0 {
		t.Fatal("offline minority stalled the protocol")
	}
	if reports[0].Participants >= p.TotalNodes() {
		t.Fatal("offline nodes should not submit PoW")
	}
}

func TestSuppressedScorePhaseOnlyHurtsOwnCommittee(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	p.MaliciousFrac = float64(p.M) / float64(p.TotalNodes())
	p.CorruptLeaders = true
	p.ByzantineBehavior = Behavior{SuppressScore: true}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	leaders := slices.Clone(e.Roster().Leaders)
	commons := slices.Clone(e.Roster().CommonsOfAll())
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := reports[0]
	if r.Throughput() == 0 {
		t.Fatal("suppressing scores should not block transactions")
	}
	// Every suppressing leader is silence-evicted in the score phase: it
	// ends the round a common member at -1.
	if len(r.Recoveries) != len(leaders) {
		t.Fatalf("%d recoveries, want one per suppressing leader: %v", len(r.Recoveries), r.Recoveries)
	}
	for k, rec := range r.Recoveries {
		n := e.nodes[leaders[k]]
		if rec.Committee != uint64(k) || rec.Evicted != n.ID || rec.Kind != "silence" {
			t.Fatalf("recovery %d is %+v, want committee %d's leader %d evicted for silence", k, rec, k, n.ID)
		}
		if n.role != RoleCommon || e.Reputation().Get(n.Name) != -1 {
			t.Fatalf("evicted leader %d: role %v, reputation %g; want common at -1", n.ID, n.role, e.Reputation().Get(n.Name))
		}
	}
	// No committee scored, so no node that was a common member at round
	// start has a voting reputation.
	for _, id := range commons {
		if rep := e.Reputation().Get(e.names[id]); rep != 0 {
			t.Fatalf("common member %d was scored (%g) though every leader suppressed the score phase", id, rep)
		}
	}
}

func TestInvalidTxsAreRejected(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	p.InvalidFrac = 0.3
	_, reports := runEngine(t, p)
	r := reports[0]
	if r.Rejected == 0 {
		t.Fatal("invalid transactions were not rejected")
	}
	if r.Throughput() == 0 {
		t.Fatal("valid transactions should still pass")
	}
}

func TestUTXOConservationAcrossRounds(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 3
	p.InvalidFrac = 0.1
	e, reports := runEngine(t, p)
	// Genesis minted 2n users × 1000 coins; every included tx burns only
	// its fee. Total value must equal genesis minus cumulative fees.
	var fees uint64
	for _, r := range reports {
		fees += r.Fees
	}
	genesis := uint64(2*p.TotalNodes()) * 1000
	if got := e.UTXO().TotalValue() + fees; got != genesis {
		t.Fatalf("value leak: utxo+fees = %d, genesis = %d", got, genesis)
	}
}

func TestRewardsSumToFees(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	_, reports := runEngine(t, p)
	r := reports[0]
	var sum uint64
	for _, amt := range r.Rewards {
		sum += amt
	}
	if sum != r.Fees {
		t.Fatalf("rewards sum %d != fees %d", sum, r.Fees)
	}
}

func TestLeadersSelectedByReputation(t *testing.T) {
	// After a round with inverted voters, next-round leaders must come
	// from the honest (higher-reputation) population.
	p := DefaultParams()
	p.Rounds = 2
	p.MaliciousFrac = 0.2
	p.ByzantineBehavior = Behavior{Vote: VoteInvert}
	e, _ := runEngine(t, p)
	for _, id := range e.Roster().Leaders {
		if e.nodes[id].Behavior.Vote == VoteInvert {
			t.Fatalf("inverted voter %d became a leader", id)
		}
	}
}
