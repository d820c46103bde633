package protocol

import (
	"maps"
	"testing"

	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/pow"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// seatedEngine builds a default engine with every node seated on the
// round-1 roster, as at the start of a round.
func seatedEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range e.nodes {
		n.resetRound(e.roster)
	}
	return e
}

// deliver hands msg to node to's handler inside the event loop and drains.
func deliver(e *Engine, from, to simnet.NodeID, tag string, payload any) {
	n := e.nodes[to]
	e.Net.After(to, 1, func(ctx *simnet.Context) {
		n.Handle(ctx, simnet.Message{From: from, To: to, Tag: tag, Payload: payload, Size: wire.Size(payload)})
	})
	e.Net.RunUntilIdle()
}

// TestParticipationNeedsOwnValidSolution: C_R counts a participant only
// for its own submission, this round, of a solution under its own key
// that the puzzle accepts. Two Byzantine-keyed nodes (offline, so they
// submit nothing of their own) inject at the start of the selection
// phase; only the well-formed submission raises RoundReport.Participants.
func TestParticipationNeedsOwnValidSolution(t *testing.T) {
	type inject func(e *Engine, x, y simnet.NodeID, puzzle pow.Puzzle) (from simnet.NodeID, m PowMsg)
	solve := func(e *Engine, id simnet.NodeID, puzzle pow.Puzzle) pow.Solution {
		sol, _, err := pow.Solve(puzzle, e.nodes[id].Keys.PK, 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	run := func(in inject) int {
		p := DefaultParams()
		p.Rounds = 1
		p.MaliciousFrac = 0.1
		p.ByzantineBehavior = Behavior{Offline: true}
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		var byz []simnet.NodeID
		for _, n := range e.nodes {
			if n.Behavior.Offline {
				byz = append(byz, n.ID)
			}
		}
		e.SetHooks(Hooks{PhaseStart: func(_ uint64, phase string) {
			if phase == "select" && in != nil {
				from, m := in(e, byz[0], byz[1], e.roster.puzzle(e.P.PowHardness))
				var msg any = m
				e.Net.Broadcast(from, e.roster.Referee, TagPow, msg, wire.Size(msg))
			}
		}})
		reports, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return reports[0].Participants
	}
	base := run(nil)
	if got := run(func(e *Engine, x, _ simnet.NodeID, puzzle pow.Puzzle) (simnet.NodeID, PowMsg) {
		return x, PowMsg{Round: e.roster.Round, Node: x, Solution: solve(e, x, puzzle)}
	}); got != base+1 {
		t.Fatalf("a valid own submission counted %d participants, want %d", got, base+1)
	}
	for name, in := range map[string]inject{
		"bad nonce": func(e *Engine, x, _ simnet.NodeID, puzzle pow.Puzzle) (simnet.NodeID, PowMsg) {
			sol := pow.Solution{PK: e.nodes[x].Keys.PK}
			for pow.Verify(puzzle, sol) {
				sol.Nonce++
			}
			return x, PowMsg{Round: e.roster.Round, Node: x, Solution: sol}
		},
		"stale round": func(e *Engine, x, _ simnet.NodeID, puzzle pow.Puzzle) (simnet.NodeID, PowMsg) {
			return x, PowMsg{Round: e.roster.Round - 1, Node: x, Solution: solve(e, x, puzzle)}
		},
		"solution claimed for another ID": func(e *Engine, x, y simnet.NodeID, puzzle pow.Puzzle) (simnet.NodeID, PowMsg) {
			return y, PowMsg{Round: e.roster.Round, Node: y, Solution: solve(e, x, puzzle)}
		},
		"frame sent on another's behalf": func(e *Engine, x, y simnet.NodeID, puzzle pow.Puzzle) (simnet.NodeID, PowMsg) {
			return x, PowMsg{Round: e.roster.Round, Node: y, Solution: solve(e, y, puzzle)}
		},
	} {
		if got := run(in); got != base {
			t.Errorf("%s: %d participants, want %d", name, got, base)
		}
	}
}

// TestVotesAuthenticatedAndRosterBound: the leader records a vote only
// from the committee member it names, under that member's signature.
// Outsiders voting as themselves, an outsider voting under members' IDs,
// and members' votes under a forged signature are not recorded and do
// not close collection; the genuine votes then do.
func TestVotesAuthenticatedAndRosterBound(t *testing.T) {
	e := seatedEngine(t)
	scheme := e.pki.Scheme
	leader := e.nodes[e.roster.Leaders[0]]
	leader.recordVote(leader.ID, reputation.VoteVector{})
	members := e.roster.Committee(0)
	vote := func(voter simnet.NodeID, signer crypto.KeyPair) VoteMsg {
		m := VoteMsg{Round: e.roster.Round, Committee: 0, Voter: voter, Votes: reputation.VoteVector{}}
		m.Sig = scheme.Sign(signer, wire.SigningBytes(nil, m))
		return m
	}
	var outsiders []simnet.NodeID
	for _, n := range e.nodes {
		if k, ok := e.roster.CommitteeOf(n.ID); !ok || k != 0 {
			outsiders = append(outsiders, n.ID)
		}
	}
	x := outsiders[0]
	for i, id := range members {
		if id == leader.ID {
			continue
		}
		o := outsiders[i]
		deliver(e, o, leader.ID, TagVote, vote(o, e.nodes[o].Keys))                   // an outsider as itself
		deliver(e, x, leader.ID, TagVote, vote(id, e.nodes[x].Keys))                  // an outsider as a member
		deliver(e, id, leader.ID, TagVote, vote(id, e.nodes[x].Keys))                 // a member, forged signature
		deliver(e, id, leader.ID, TagVote, VoteMsg{Round: e.roster.Round, Voter: id}) // a member, no signature
	}
	if len(leader.votes) != 1 || leader.intraDecided != nil {
		t.Fatalf("hostile votes recorded: %d votes, collection closed %v", len(leader.votes), leader.intraDecided != nil)
	}
	for _, id := range members {
		if id != leader.ID {
			deliver(e, id, leader.ID, TagVote, vote(id, e.nodes[id].Keys))
		}
	}
	if len(leader.votes) != len(members) || leader.intraDecided == nil {
		t.Fatalf("genuine votes: %d of %d recorded, collection closed %v", len(leader.votes), len(members), leader.intraDecided != nil)
	}
}

// TestTxListNeedsLeaderSignature: a member votes on, and relays down the
// dissemination tree, only a TX list its acting leader signed. A list
// signed by another member of the committee, or not signed at all, draws
// neither a VOTE nor a relay, whoever the frame claims sent it; the
// leader's own list draws both.
func TestTxListNeedsLeaderSignature(t *testing.T) {
	e := seatedEngine(t)
	e.P.AggregateCerts = true // tree dissemination: members relay the list
	leader := e.roster.Leaders[0]
	var relay, other simnet.NodeID = -1, -1
	for _, id := range e.roster.Committee(0) {
		switch {
		case id == leader:
		case relay < 0:
			relay = id // rank 1 in the tree rooted at the leader: it has children
		case other < 0:
			other = id
		}
	}
	votes, relays := 0, 0
	e.Net.SetSendAudit(func(m simnet.Message) {
		switch {
		case m.From == relay && m.Tag == TagVote:
			votes++
		case m.From == relay && m.Tag == TagTxList:
			relays++
		}
	})
	list := func(signer simnet.NodeID) TxListMsg {
		m := TxListMsg{Round: e.roster.Round, Committee: 0}
		if signer >= 0 {
			m.Sig = e.pki.Scheme.Sign(e.nodes[signer].Keys, wire.SigningBytes(nil, m))
		}
		return m
	}
	for name, m := range map[string]TxListMsg{"signed by another member": list(other), "unsigned": list(-1)} {
		deliver(e, leader, relay, TagTxList, m)
		if votes != 0 || relays != 0 {
			t.Fatalf("%s list: %d votes, %d relays, want none", name, votes, relays)
		}
	}
	deliver(e, leader, relay, TagTxList, list(leader))
	if votes != 1 || relays == 0 {
		t.Fatalf("the leader's list: %d votes, %d relays, want 1 vote and a relay", votes, relays)
	}
}

// TestNewLeaderCountsOnlyTheNamedReferee: a NEW_LEADER announcement counts
// for the referee it names only when that referee sent it. A common member
// that names a referee majority across its own messages installs nothing;
// the same majority sending its own announcements switches the leader.
func TestNewLeaderCountsOnlyTheNamedReferee(t *testing.T) {
	e := seatedEngine(t)
	forger := simnet.NodeID(70)
	if e.roster.RoleOf(forger) != RoleCommon {
		t.Fatalf("node %d is %v, want a common member", forger, e.roster.RoleOf(forger))
	}
	leader, successor := e.roster.Leaders[0], e.roster.successorFor(0)
	peer := e.nodes[e.roster.Partials[0][len(e.roster.Partials[0])-1]]
	majority := e.roster.Referee[:len(e.roster.Referee)/2+1]
	announce := func(from, referee, to simnet.NodeID) {
		deliver(e, from, peer.ID, TagNewLeader, NewLeaderMsg{Round: e.roster.Round, Committee: 0, Evicted: leader, Successor: to, Referee: referee})
	}
	for _, ref := range majority {
		announce(forger, ref, forger)
	}
	if peer.curLeader != leader {
		t.Fatalf("forged announcements installed %d as committee 0's leader", peer.curLeader)
	}
	for _, ref := range majority {
		announce(ref, ref, successor)
	}
	if peer.curLeader != successor {
		t.Fatalf("a referee majority's announcements left leader %d, want %d", peer.curLeader, successor)
	}
}

// TestMalformedPayloadsRefused: Intra and Score payloads whose parallel
// lists differ in length, and a Score payload naming a non-member or a
// member twice (C_R would add its score twice), are refused everywhere
// they can arrive — as a leader-signed PROPOSE, direct or relayed, under
// their own digest or a well-formed one (no panic, no echo); by
// wire.Decode, bare or inside a certificate; and as a certified score
// result at C_R (no panic, no reputation change).
func TestMalformedPayloadsRefused(t *testing.T) {
	wellIntra := &IntraPayload{Voters: []simnet.NodeID{1, 2}, Votes: []reputation.VoteVector{{}, {}}}
	wellScore := func(e *Engine) ScorePayload {
		return ScorePayload{Members: e.roster.Committee(0)[:2], Scores: []float64{0.5, 0.25}}
	}
	ragged := map[string]any{
		"intra, extra voter":  &IntraPayload{Voters: []simnet.NodeID{1, 2}, Votes: []reputation.VoteVector{{}}},
		"intra, extra votes":  &IntraPayload{Voters: []simnet.NodeID{1}, Votes: []reputation.VoteVector{{}, {}}},
		"score, extra member": ScorePayload{Members: []simnet.NodeID{16, 17}, Scores: []float64{1}},
		"score, extra score":  ScorePayload{Members: []simnet.NodeID{16}, Scores: []float64{1, 2}},
	}
	snOf := func(payload any) uint64 {
		if _, ok := payload.(*IntraPayload); ok {
			return snIntraBase
		}
		return snScore
	}
	t.Run("propose", func(t *testing.T) {
		e := seatedEngine(t)
		leader := e.roster.Leaders[0]
		member, relay := e.roster.Partials[0][0], e.roster.Partials[0][1]
		echoes := 0
		e.Net.SetSendAudit(func(m simnet.Message) {
			if m.Tag == consensus.TagEcho && m.From == member {
				echoes++
			}
		})
		// Each proposal meets a fresh endpoint: a second digest for one
		// instance would be an equivocation, refused before any payload check.
		propose := func(payload any, digest crypto.Digest, from simnet.NodeID) {
			e.nodes[member].resetRound(e.roster)
			prop := consensus.BuildPropose(e.pki.Scheme, e.nodes[leader].Keys, leader, e.roster.Round, snOf(payload), digest, payload)
			deliver(e, from, member, consensus.TagPropose, prop)
		}
		malformed := maps.Clone(ragged)
		malformed["score, non-member"] = ScorePayload{Members: []simnet.NodeID{e.roster.Referee[0]}, Scores: []float64{1}}
		twice := e.roster.Committee(0)[0]
		malformed["score, repeated member"] = ScorePayload{Members: []simnet.NodeID{twice, twice}, Scores: []float64{0.5, 0.25}}
		for name, payload := range malformed {
			var well any = wellIntra
			if _, ok := payload.(ScorePayload); ok {
				well = wellScore(e)
			}
			for _, from := range []simnet.NodeID{leader, relay} {
				for _, d := range []crypto.Digest{consensus.PayloadDigest(payload), consensus.PayloadDigest(well)} {
					propose(payload, d, from)
					if echoes != 0 {
						t.Fatalf("%s from %d under digest %x: echoed", name, from, d[:4])
					}
				}
			}
		}
		// Control: the well-formed payloads are endorsed.
		for _, well := range []any{wellScore(e), wellIntra} {
			propose(well, consensus.PayloadDigest(well), relay)
			if echoes == 0 {
				t.Fatalf("well-formed %T drew no echo", well)
			}
			echoes = 0
		}
	})

	t.Run("decode", func(t *testing.T) {
		e := seatedEngine(t)
		for name, payload := range ragged {
			res := &ScoreResultMsg{Result: consensus.Result{SN: snOf(payload), Payload: payload}}
			for _, v := range []any{payload, res} {
				buf, err := wire.Encode(v)
				if err != nil {
					t.Fatalf("%s: encode: %v", name, err)
				}
				if _, _, err := wire.Decode(buf); err == nil {
					t.Errorf("%s: %T decoded", name, v)
				}
			}
		}
		for _, v := range []any{wellIntra, wellScore(e)} {
			buf, err := wire.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := wire.Decode(buf); err != nil {
				t.Errorf("well-formed %T refused: %v", v, err)
			}
		}
	})

	t.Run("certified at C_R", func(t *testing.T) {
		certified := map[string]ScorePayload{"outside the ID space": {Members: []simnet.NodeID{-1, 1 << 20}, Scores: []float64{1, 2}}}
		for name, payload := range ragged {
			if p, ok := payload.(ScorePayload); ok {
				certified[name] = p
			}
		}
		for name, payload := range certified {
			e := seatedEngine(t)
			// The seated leaders never proposed a score, so the score phase's
			// silence sweep would impeach them; this is about applying scores.
			e.P.DisableRecovery = true
			members := e.roster.Committee(0)
			d := consensus.PayloadDigest(payload)
			res := consensus.Result{Round: e.roster.Round, SN: snScore, Digest: d, Payload: payload}
			for _, id := range members {
				conf := consensus.Confirm{Round: e.roster.Round, SN: snScore, Digest: d, Confirmer: id}
				res.Quorum.Votes = append(res.Quorum.Votes, consensus.Vote{Voter: id, Sig: e.pki.Scheme.Sign(e.nodes[id].Keys, wire.SigningBytes(nil, conf))})
			}
			for _, ref := range e.roster.Referee {
				deliver(e, e.roster.Leaders[0], ref, TagScoreResult, &ScoreResultMsg{Committee: 0, Result: res, Members: members})
			}
			if e.nodes[e.roster.Referee[0]].crScores[0] == nil {
				t.Fatalf("%s: C_R did not accept the certified result; the test certifies wrongly", name)
			}
			before := e.reput.Snapshot()
			e.phaseScore(&RoundReport{})
			if after := e.reput.Snapshot(); !maps.Equal(before, after) {
				t.Errorf("%s: reputation changed: %v → %v", name, before, after)
			}
		}
	})
}

// TestFetchedBlockMustMatchSignedDigest: a referee member misses the C_R
// proposer's block PROPOSE and fetches it, and every relay answers with the
// proposer's signed header over a block whose Rewards differ. The member
// adopts nothing and propagates nothing: the digest the proposer signed is
// the hash of the block's encoding, Rewards included. The peers that heard
// the proposer take the honest block.
func TestFetchedBlockMustMatchSignedDigest(t *testing.T) {
	e := seatedEngine(t)
	proposer, victim := e.roster.Referee[0], e.roster.Referee[len(e.roster.Referee)-1]
	blk := &Block{Round: e.roster.Round, Fees: 3, Randomness: crypto.HString("R"), Rewards: NamesOf(Reward{"n1", 3})}
	forged := *blk
	forged.Rewards = NamesOf(Reward{"n2", 3})
	var heard *consensus.Propose
	fetches := 0
	for _, id := range e.roster.Referee {
		if id == proposer || id == victim {
			continue
		}
		relay := e.nodes[id]
		e.Net.Register(id, func(ctx *simnet.Context, msg simnet.Message) {
			if prop, ok := msg.Payload.(consensus.Propose); ok && heard == nil {
				heard = &prop
			}
			if msg.Tag != consensus.TagFetch || heard == nil {
				relay.Handle(ctx, msg)
				return
			}
			if msg.From == victim {
				fetches++
			}
			var lie any = consensus.Propose{Round: heard.Round, SN: heard.SN, Digest: heard.Digest, Payload: &forged, Leader: heard.Leader, Sig: heard.Sig}
			ctx.Send(msg.From, consensus.TagPropose, lie, wire.Size(lie))
		})
	}
	cut := simnet.NewSchedule()
	cut.Cut([]simnet.NodeID{proposer}, []simnet.NodeID{victim}, 0, 0)
	e.Net.SetFaults(cut)
	e.Net.SetSendAudit(func(m simnet.Message) {
		if m.From == victim && m.Tag == TagBlock {
			t.Errorf("the victim propagated a block to %d", m.To)
		}
	})
	e.Net.After(proposer, 1, func(ctx *simnet.Context) {
		e.nodes[proposer].consFor(proposer).Propose(ctx, snBlock, consensus.PayloadDigest(blk), blk, 0)
	})
	e.Net.RunUntilIdle()
	if fetches != 1 {
		t.Fatalf("the victim's fetch was answered %d times, want once", fetches)
	}
	if e.nodes[victim].consFor(proposer).HasProposal(snBlock) || e.nodes[victim].crBlock != nil {
		t.Fatalf("the victim adopted a block with Rewards %v under the proposer's digest", e.nodes[victim].crBlock.Rewards.List())
	}
	if e.nodes[e.roster.Referee[1]].crBlock != blk {
		t.Fatal("the proposer's block was not certified by the peers that heard it")
	}
}
