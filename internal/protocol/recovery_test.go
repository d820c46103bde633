package protocol

import (
	"math/rand"
	"testing"

	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// TestEvictReqRejectsReplayedApprovals: the referee coordinator counts an
// approval only if it was signed for the request in hand. A silence witness
// carries no leader-signed evidence, so the >c/2 approval certificate is the
// whole case — if approvals validly signed in an earlier round, or for a
// different accuser's motion, could be stapled onto a fresh request, any
// partial-set member who once saw a majority could evict an honest leader at
// will (against Claim 4) — and likewise approvals its members signed about
// another committee's leader. The same signers approving the current request
// do start the eviction. Checked for both evidence forms.
func TestEvictReqRejectsReplayedApprovals(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		name := map[bool]string{false: "per-voter", true: "aggregate"}[aggregate]
		t.Run(name, func(t *testing.T) {
			p := DefaultParams()
			p.AggregateCerts = aggregate
			e, err := NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range e.nodes {
				n.resetRound(e.roster)
			}
			e.Net.Metrics().SetPhase(int(PhaseIntra))
			scheme := consensus.HashScheme{}

			// evicts hands committee k's referee coordinator a silence
			// request for the current round from k's first partial member,
			// backed by a strict majority of k signing an approval for
			// signedRound, signedCommittee and either that accuser or
			// (otherAccuser) a different member's motion, and reports whether
			// the coordinator proposed an eviction. Each case uses its own
			// committee, so no case rides on another's in-flight eviction.
			evicts := func(k, signedRound, signedCommittee uint64, otherAccuser bool) bool {
				members := e.roster.Committee(k)
				accuser := e.roster.Partials[k][0]
				signedAccuser := accuser
				if otherAccuser {
					signedAccuser = members[len(members)-1]
				}
				req := EvictReqMsg{Round: e.roster.Round, Committee: k, Accuser: accuser,
					Witness: RecoveryWitness{Kind: "silence", Committee: k, Phase: "intra"}}
				for _, id := range members[:len(members)/2+1] {
					ap := ApproveMsg{Round: signedRound, Committee: signedCommittee, Accuser: signedAccuser, Voter: id}
					req.Approvals.Votes = append(req.Approvals.Votes, consensus.Vote{Voter: id, Sig: scheme.Sign(e.nodes[id].Keys, wire.SigningBytes(nil, ap))})
				}
				if aggregate {
					var err error
					if req.Approvals, err = req.Approvals.Fold(scheme, members); err != nil {
						t.Fatal(err)
					}
				}
				coord := e.nodes[e.roster.coordinatorFor(k)]
				e.Net.After(coord.ID, 1, func(ctx *simnet.Context) { coord.onEvictReq(ctx, req) })
				e.Net.RunUntilIdle()
				return coord.crEvictGen[k] > 0
			}

			if evicts(0, e.roster.Round-1, 0, false) {
				t.Error("approvals signed in the previous round started an eviction")
			}
			if evicts(1, e.roster.Round, 1, true) {
				t.Error("approvals signed for another accuser started an eviction")
			}
			if evicts(2, e.roster.Round, 0, false) {
				t.Error("approvals signed about another committee started an eviction")
			}
			if !evicts(3, e.roster.Round, 3, false) {
				t.Error("approvals signed for this request did not start an eviction")
			}
		})
	}
}

// TestAccuserCollectsOnlyCountableApprovals: C_R refuses a request outright if
// one vote in it is not a committee member's signature on that request's
// header, so the accuser must not collect such a vote — or one Byzantine
// sender could void an impeachment by "approving" it. Validly signed approvals
// from a node of another committee, and from a member but for the previous
// round or another committee, are dropped; the members' real approvals then
// escalate a request whose evidence verifies.
func TestAccuserCollectsOnlyCountableApprovals(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		p := DefaultParams()
		p.AggregateCerts = aggregate
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range e.nodes {
			n.resetRound(e.roster)
		}
		e.Net.Metrics().SetPhase(int(PhaseIntra))
		members := e.roster.Committee(0)
		accuser := e.nodes[e.roster.Partials[0][0]]
		accuser.myAccusation = &AccuseMsg{Round: e.roster.Round, Committee: 0, Accuser: accuser.ID,
			Witness: RecoveryWitness{Kind: "silence", Committee: 0, Phase: "intra"}}
		approve := func(voter simnet.NodeID, round, committee uint64) ApproveMsg {
			ap := ApproveMsg{Round: round, Committee: committee, Accuser: accuser.ID, Voter: voter}
			ap.Sig = e.pki.Scheme.Sign(e.nodes[voter].Keys, wire.SigningBytes(nil, ap))
			return ap
		}
		var req *EvictReqMsg
		e.Net.SetSendAudit(func(m simnet.Message) {
			if r, ok := m.Payload.(EvictReqMsg); ok {
				req = &r
			}
		})
		e.Net.After(accuser.ID, 1, func(ctx *simnet.Context) {
			accuser.onApprove(ctx, approve(e.roster.Committee(1)[3], e.roster.Round, 0))
			accuser.onApprove(ctx, approve(members[1], e.roster.Round-1, 0))
			accuser.onApprove(ctx, approve(members[2], e.roster.Round, 1))
			if len(accuser.myApprovals) != 0 {
				t.Errorf("aggregate=%v: collected %d approvals C_R would refuse", aggregate, len(accuser.myApprovals))
			}
			for _, id := range members[:len(members)/2+1] {
				accuser.onApprove(ctx, approve(id, e.roster.Round, 0))
			}
		})
		e.Net.RunUntilIdle()
		if req == nil {
			t.Fatalf("aggregate=%v: a majority of approvals did not escalate", aggregate)
		}
		if (req.Approvals.Bitmap != nil) != aggregate {
			t.Errorf("aggregate=%v: evidence form %+v", aggregate, req.Approvals)
		}
		if err := req.Approvals.Verify(e.pki, members, req.approvals()); err != nil {
			t.Errorf("aggregate=%v: the escalated request does not verify: %v", aggregate, err)
		}
	}
}

// TestEvictReqEvidence holds eviction-request evidence to the property
// consensus.TestAggregateEquivalenceRandom holds certificates to: over random
// committee sizes and voter subsets, the per-voter and the folded Approvals of
// one request verify or fail together, exactly when the voters are a strict
// majority — and once any of the header fields the approvals were signed
// over (round, committee, accuser) reads differently, neither form verifies.
func TestEvictReqEvidence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scheme := consensus.HashScheme{}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		k := rng.Intn(n + 1)
		roster := make([]simnet.NodeID, n)
		keys := make(map[simnet.NodeID]crypto.KeyPair, n)
		pks := make([]crypto.PublicKey, 7+3*n)
		for i := range roster {
			roster[i] = simnet.NodeID(7 + 3*i)
			keys[roster[i]] = crypto.GenerateKeyPair(rng)
			pks[roster[i]] = keys[roster[i]].PK
		}
		pki := consensus.NewPKI(scheme, pks)
		req := EvictReqMsg{Round: uint64(rng.Intn(50)), Committee: uint64(rng.Intn(8)), Accuser: roster[rng.Intn(n)],
			Witness: RecoveryWitness{Kind: "silence", Phase: "intra"}}
		for _, i := range rng.Perm(n)[:k] {
			req.Approvals.Votes = append(req.Approvals.Votes, consensus.Vote{Voter: roster[i], Sig: scheme.Sign(keys[roster[i]], req.approvals()(roster[i]))})
		}
		folded := req
		var err error
		if folded.Approvals, err = req.Approvals.Fold(scheme, roster); err != nil {
			t.Fatalf("trial %d: fold: %v", trial, err)
		}
		verifies := func(m EvictReqMsg) bool { return m.Approvals.Verify(pki, roster, m.approvals()) == nil }
		if got, want := verifies(req), 2*k > n; got != want || verifies(folded) != want {
			t.Fatalf("trial %d (n=%d k=%d): per-voter verifies=%v, aggregate verifies=%v, majority=%v", trial, n, k, got, verifies(folded), want)
		}
		for name, mutate := range map[string]func(*EvictReqMsg){
			"round":     func(m *EvictReqMsg) { m.Round++ },
			"committee": func(m *EvictReqMsg) { m.Committee++ },
			"accuser":   func(m *EvictReqMsg) { m.Accuser++ },
		} {
			a, b := req, folded
			mutate(&a)
			mutate(&b)
			if verifies(a) || verifies(b) {
				t.Fatalf("trial %d: approvals signed for another %s verify (per-voter %v, aggregate %v)", trial, name, verifies(a), verifies(b))
			}
		}
	}
}

// TestHostileCommitteeIndexDropped: a committee index is whatever the sender
// wrote. Each handler that indexes the roster by one is handed the first index
// past it — on a node of the role that acts on the message, mid-round — and
// must drop it: no panic, nothing recorded, nothing sent.
func TestHostileCommitteeIndexDropped(t *testing.T) {
	e, err := NewEngine(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range e.nodes {
		n.resetRound(e.roster)
	}
	e.Net.Metrics().SetPhase(int(PhaseIntra))
	m := e.roster.M
	leader, partial := e.nodes[e.roster.Leaders[0]], e.nodes[e.roster.Partials[0][0]]
	// The referee whose turn it would be to coordinate committee m.
	referee := e.nodes[e.roster.coordinatorFor(m)]
	silence := RecoveryWitness{Kind: "silence", Committee: m, Phase: "intra"}
	sent := 0
	e.Net.SetSendAudit(func(simnet.Message) { sent++ })
	for _, c := range []struct {
		name    string
		to      *Node
		from    simnet.NodeID
		tag     string
		payload any
	}{
		{"semi-commitment at a referee", referee, leader.ID, TagSemiCom, SemiComMsg{Round: e.roster.Round, Committee: m}},
		{"semi-commitment at a partial member", partial, leader.ID, TagSemiCom, SemiComMsg{Round: e.roster.Round, Committee: m}},
		{"inter query at a leader", leader, e.roster.Leaders[1], TagInterQuery, InterQueryMsg{Round: e.roster.Round, From: m, To: leader.comID}},
		{"eviction request at its coordinator", referee, partial.ID, TagEvictReq, EvictReqMsg{Round: e.roster.Round, Committee: m, Accuser: partial.ID, Witness: silence}},
	} {
		e.Net.After(c.to.ID, 1, func(ctx *simnet.Context) {
			c.to.Handle(ctx, simnet.Message{From: c.from, To: c.to.ID, Tag: c.tag, Payload: c.payload})
		})
		e.Net.RunUntilIdle()
		if sent != 0 {
			t.Errorf("%s: answered with %d messages", c.name, sent)
		}
	}
	if len(referee.crSemiComs)+len(referee.crEvictGen) != 0 || partial.semiComLocal != nil || len(partial.accusedOnce) != 0 {
		t.Error("a message for committee m left state behind")
	}

	// The same index inside a decided C_R payload: a Byzantine coordinator
	// proposes evicting committee m's leader, the referees echo and accept
	// it, and none of them may act on it. A referee sends its CONFIRM just
	// after its accept path ran, so a majority of C_R confirming (the
	// coordinator confirms to itself) is the instance deciding.
	confirms := 0
	e.Net.SetSendAudit(func(msg simnet.Message) {
		switch msg.Tag {
		case TagNewLeader:
			t.Errorf("referee %d announced a new leader for committee %d", msg.From, m)
		case consensus.TagConfirm:
			confirms++
		}
	})
	payload := EvictPayload{Committee: m, Evicted: leader.ID, Successor: partial.ID, Witness: silence}
	e.Net.After(referee.ID, 1, func(ctx *simnet.Context) {
		referee.consFor(referee.ID).Propose(ctx, snEvictBase, consensus.PayloadDigest(payload), payload, 0)
	})
	e.Net.RunUntilIdle()
	if !consensus.Majority(confirms+1, len(e.roster.Referee)) {
		t.Fatalf("%d of %d referees confirmed the eviction instance: the accept path was not reached", confirms+1, len(e.roster.Referee))
	}
	for _, id := range e.roster.Referee {
		if len(e.nodes[id].crEvicted) != 0 {
			t.Errorf("referee %d recorded an eviction of committee %d", id, m)
		}
	}
}
