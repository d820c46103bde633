package protocol

import (
	"strconv"

	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// Leader re-selection (§V-D, Algorithm 6, Fig. 6).
//
// Flow: an honest partial-set member holding a witness broadcasts an
// ACCUSE to its committee; members verify the witness and reply APPROVE;
// with more than half the committee approving, the accuser escalates an
// EVICT_REQ to every referee member; the committee's C_R coordinator runs
// Algorithm 3 on the eviction; on acceptance every referee member sends
// NEW_LEADER to the committee, whose members switch leaders once a
// majority of referees has spoken.
//
// The same pipeline carries two witness families: provable misbehaviour
// (equivocation, forged semi-commitments — verified cryptographically at
// every hop) and, when a fault model is active, "silence" (watchdog.go) —
// unprovable by construction, so members vote only on local corroboration
// and C_R accepts only the >c/2 approval certificate.

// onEquivocation fires when this node can prove an instance leader signed
// two conflicting proposals.
func (n *Node) onEquivocation(ctx *simnet.Context, leader simnet.NodeID, w consensus.Witness) {
	if n.eng.P.DisableRecovery || n.role == RoleReferee {
		return
	}
	if leader != n.curLeader {
		return // fallback proposers are not subject to impeachment here
	}
	witness := RecoveryWitness{Kind: "equivocation", Committee: n.comID, Equiv: &w}
	if n.role == RolePartial {
		n.accuse(ctx, witness)
	}
	// Common members stop cooperating with the instance (the consensus
	// layer already withholds their echoes once equivocation is seen).
}

// accuse broadcasts the impeachment to the committee (§V-D: "broadcast
// his/her witness to all members ... and ask them to vote"). Accusations
// are deduplicated per (kind, phase, accused leader): one accuser never
// spams the same motion twice, but when an eviction installs a successor
// that is itself unreachable, the next watchdog pass can open a fresh
// motion against the new leader — chained recovery through crashed
// successors stays possible within maxRecoveryAttempts.
func (n *Node) accuse(ctx *simnet.Context, w RecoveryWitness) {
	key := w.Kind + "/" + w.Phase + "/" + strconv.Itoa(int(n.curLeader))
	if n.accusedOnce[key] || n.Behavior.Offline {
		return
	}
	n.accusedOnce[key] = true
	msg := AccuseMsg{Round: n.eng.round, Committee: n.comID, Accuser: n.ID, Witness: w}
	n.myAccusation = &msg
	n.myApprovals = nil
	n.escalated = false
	var payload any = msg
	ctx.Broadcast(without(nil, n.committeePeers, n.curLeader), TagAccuse, payload, wire.Size(payload))
	// The accuser approves its own motion.
	self := ApproveMsg{Round: n.eng.round, Committee: n.comID, Accuser: n.ID, Voter: n.ID}
	self.Sig = n.eng.P.Scheme.Sign(n.Keys, self.SigParts()...)
	n.onApprove(ctx, self)
}

// onAccuse verifies the witness and votes (§V-D: "we say a witness is
// valid if and only if the pair can derive dishonest behaviors").
func (n *Node) onAccuse(ctx *simnet.Context, m AccuseMsg) {
	if m.Committee != n.comID || m.Round != n.eng.round {
		return
	}
	if n.Behavior.IsByzantine() {
		return // byzantine members do not help impeach their leader
	}
	if m.Witness.Kind == "silence" {
		// Silence carries no signed evidence; a member votes for it only
		// when its own view of the phase also lacks the leader's artifact.
		// A live leader that reached a majority keeps its majority.
		if !n.silenceCorroborated(m.Witness.Phase) {
			return
		}
	} else if !m.Witness.Verify(n.eng.P.Scheme, n.eng.pkOf(n.curLeader)) {
		return // Claim 4: invalid witnesses cannot frame an honest leader
	}
	ap := ApproveMsg{Round: m.Round, Committee: m.Committee, Accuser: m.Accuser, Voter: n.ID}
	ap.Sig = n.eng.P.Scheme.Sign(n.Keys, ap.SigParts()...)
	ctx.Send(m.Accuser, TagApprove, ap, wire.Size(ap))
}

// onApprove tallies impeachment votes on the accuser; past a majority the
// case escalates to C_R.
func (n *Node) onApprove(ctx *simnet.Context, m ApproveMsg) {
	if n.myAccusation == nil || m.Accuser != n.ID || n.escalated {
		return
	}
	if n.eng.P.Scheme.Verify(n.eng.pkOf(m.Voter), m.Sig, m.SigParts()...) != nil {
		return
	}
	for _, a := range n.myApprovals {
		if a.Voter == m.Voter {
			return
		}
	}
	n.myApprovals = append(n.myApprovals, m)
	if !consensus.Majority(len(n.myApprovals), n.committeeSize()) {
		return
	}
	n.escalated = true
	req := EvictReqMsg{Round: n.eng.round, Committee: n.comID, Accuser: n.ID, Witness: n.myAccusation.Witness}
	if req.Bitmap, req.Proof = n.foldApprovals(); req.Bitmap == nil {
		req.Approvals = append([]ApproveMsg(nil), n.myApprovals...)
	}
	var payload any = req
	ctx.Broadcast(n.eng.roster.Referee, TagEvictReq, payload, wire.Size(payload))
}

// foldApprovals is the aggregate-mode evidence for an escalation: the
// accuser's collected approvals as a bitmap over the committee roster order
// plus one aggregate proof of the ApproveMsg signatures (checked by
// approvalQuorum against the same roster). The bitmap is nil when aggregate
// mode is off or the fold fails, and the request then carries the approval
// list.
func (n *Node) foldApprovals() (consensus.Bitmap, []byte) {
	as, ok := n.eng.P.Scheme.(consensus.AggregateScheme)
	if !ok || !n.eng.P.AggregateCerts {
		return nil, nil
	}
	// An outsider or a repeat is skipped; a failed fold leaves both nil.
	bm, proof, _ := consensus.FoldVoters(as, n.eng.roster.Committee(n.comID), len(n.myApprovals),
		func(k int) (simnet.NodeID, []byte) { return n.myApprovals[k].Voter, n.myApprovals[k].Sig },
		func(simnet.NodeID, bool) error { return nil })
	return bm, proof
}

// onEvictReq is the referee side: the committee's coordinator verifies the
// witness and approval certificate and starts the eviction instance.
func (n *Node) onEvictReq(ctx *simnet.Context, m EvictReqMsg) {
	if n.role != RoleReferee || m.Round != n.eng.round {
		return
	}
	if n.eng.coordinatorFor(m.Committee) != n.ID {
		return
	}
	// Deduplicate only while an eviction is in flight (decided but not yet
	// folded into the roster). Once the recorded successor holds the seat,
	// a fresh request — against the new leader — may start the next
	// eviction, so recovery can chain through a crashed successor.
	if ev, done := n.crEvicted[m.Committee]; done && n.eng.roster.Leaders[m.Committee] != ev.Successor {
		return
	}
	leader := n.eng.roster.Leaders[m.Committee]
	if m.Witness.Kind != "silence" && !m.Witness.Verify(n.eng.P.Scheme, n.eng.pkOf(leader)) {
		return
	}
	// For silence the approval certificate is the whole evidence: >c/2
	// distinct committee members signed that the leader went quiet.
	if !n.approvalQuorum(m) {
		return
	}
	n.proposeEviction(ctx, m.Committee, m.Witness)
}

// approvalQuorum checks the request's approval certificate in whichever
// evidence form it carries: strictly more than half of the committee, each
// member at most once, every signature valid on the approval of *this*
// request. The signed message is rebuilt from the request header
// (EvictReqMsg.approval) in both forms, never taken from the evidence, so
// approvals collected in another round or for another accuser cannot be
// replayed into a request — which matters most for silence, where they are
// the only evidence.
func (n *Node) approvalQuorum(m EvictReqMsg) bool {
	members := n.eng.roster.Committee(m.Committee)
	scheme := n.eng.P.Scheme
	if m.Bitmap != nil {
		as, ok := scheme.(consensus.AggregateScheme)
		if !ok || m.Bitmap.Validate(len(members)) != nil || !consensus.Majority(m.Bitmap.Count(), len(members)) {
			return false
		}
		pks := make([]crypto.PublicKey, len(members))
		for i, id := range members {
			pks[i] = n.eng.pkOf(id)
		}
		msgAt := func(i int) [][]byte { return m.approval(members[i]).SigParts() }
		return as.VerifyAggregate(pks, m.Bitmap, msgAt, m.Proof) == nil
	}
	isMember := make(map[simnet.NodeID]bool, len(members))
	for _, id := range members {
		isMember[id] = true
	}
	seen := make(map[simnet.NodeID]bool, len(m.Approvals))
	for _, ap := range m.Approvals {
		if !isMember[ap.Voter] || seen[ap.Voter] {
			continue
		}
		if scheme.Verify(n.eng.pkOf(ap.Voter), ap.Sig, m.approval(ap.Voter).SigParts()...) != nil {
			continue
		}
		seen[ap.Voter] = true
	}
	return consensus.Majority(len(seen), len(members))
}

// proposeEviction starts C_R's Algorithm 3 instance replacing the leader
// with the lowest-ID partial-set member. Each eviction of a committee
// gets a fresh sequence number (generation-stepped by m), so a chained
// re-eviction never re-proposes on a consumed instance.
func (n *Node) proposeEviction(ctx *simnet.Context, k uint64, w RecoveryWitness) {
	evicted := n.eng.roster.Leaders[k]
	successor := n.eng.successorFor(k)
	if successor < 0 {
		return
	}
	gen := n.crEvictGen[k]
	sn := snEvictBase + gen*n.eng.roster.M + k
	if sn >= snBlock {
		return // out of eviction instances this round
	}
	n.crEvictGen[k] = gen + 1
	payload := EvictPayload{Committee: k, Evicted: evicted, Successor: successor, Witness: w}
	if p := n.consFor(n.ID); p != nil {
		p.Propose(ctx, sn, payload.Digest(), payload, wire.Size(payload))
	}
}

// onNewLeader installs the replacement once a majority of referee members
// has announced it.
func (n *Node) onNewLeader(ctx *simnet.Context, m NewLeaderMsg) {
	if m.Committee != n.comID || m.Round != n.eng.round {
		return
	}
	if n.eng.roster.RoleOf(m.Referee) != RoleReferee {
		return
	}
	votes := n.leaderVotes[m.Successor]
	if votes == nil {
		votes = make(map[simnet.NodeID]bool)
		n.leaderVotes[m.Successor] = votes
	}
	votes[m.Referee] = true
	if !consensus.Majority(len(votes), len(n.eng.roster.Referee)) {
		return
	}
	if n.curLeader == m.Successor {
		return
	}
	n.curLeader = m.Successor
	if n.ID == m.Successor {
		n.role = RoleLeader
	}
	if n.ID == m.Evicted {
		n.role = RoleCommon
	}
}
