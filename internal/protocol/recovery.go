package protocol

import (
	"strconv"

	"cycledger/internal/consensus"
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
// every hop) and "silence" (watchdog.go), raised on any network when a
// leader's mandatory artifact never arrives — unprovable by construction,
// so members vote only on local corroboration and C_R accepts only the
// >c/2 approval certificate.

// onEquivocation fires when this node can prove an instance leader signed
// two conflicting proposals.
func (n *Node) onEquivocation(ctx *simnet.Context, leader simnet.NodeID, w consensus.Witness) {
	if n.P.DisableRecovery || n.role == RoleReferee {
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
	put(&n.accusedOnce, key, true)
	msg := AccuseMsg{Round: n.roster.Round, Committee: n.comID, Accuser: n.ID, Witness: w}
	n.myAccusation = &msg
	n.myApprovals = nil
	n.escalated = false
	var payload any = msg
	ctx.Broadcast(without(nil, n.committeePeers, n.curLeader), TagAccuse, payload, wire.Size(payload))
	// The accuser approves its own motion.
	self := ApproveMsg{Round: n.roster.Round, Committee: n.comID, Accuser: n.ID, Voter: n.ID}
	self.Sig = consensus.Sign(n.pki.Scheme, n.Keys, self)
	n.onApprove(ctx, self)
}

// onAccuse verifies the witness and votes (§V-D: "we say a witness is
// valid if and only if the pair can derive dishonest behaviors").
func (n *Node) onAccuse(ctx *simnet.Context, m AccuseMsg) {
	if m.Committee != n.comID || m.Round != n.roster.Round {
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
	} else if !m.Witness.Verify(n.pki, n.curLeader) {
		return // Claim 4: invalid witnesses cannot frame an honest leader
	}
	ap := ApproveMsg{Round: m.Round, Committee: m.Committee, Accuser: m.Accuser, Voter: n.ID}
	ap.Sig = consensus.Sign(n.pki.Scheme, n.Keys, ap)
	ctx.Send(m.Accuser, TagApprove, ap, wire.Size(ap))
}

// onApprove tallies impeachment votes on the accuser; past a majority the
// case escalates to C_R.
func (n *Node) onApprove(ctx *simnet.Context, m ApproveMsg) {
	if n.myAccusation == nil || m.Accuser != n.ID || n.escalated {
		return
	}
	// C_R checks every vote against this request's header and this
	// committee's roster, and one vote that fails either refuses the request:
	// an approval for another round or committee, or from outside the
	// committee, is not collected.
	if k, ok := n.roster.CommitteeOf(m.Voter); !ok || k != n.comID || m.Committee != n.comID || m.Round != n.roster.Round {
		return
	}
	if consensus.Verify(n.pki, m.Voter, m.Sig, m) != nil {
		return
	}
	for _, a := range n.myApprovals {
		if a.Voter == m.Voter {
			return
		}
	}
	n.myApprovals = append(n.myApprovals, consensus.Vote{Voter: m.Voter, Sig: m.Sig})
	if !consensus.Majority(len(n.myApprovals), n.committeeSize()) {
		return
	}
	n.escalated = true
	req := EvictReqMsg{Round: n.roster.Round, Committee: n.comID, Accuser: n.ID, Witness: n.myAccusation.Witness,
		Approvals: n.evidence(consensus.Quorum{Votes: n.myApprovals}, n.roster.Committee(n.comID))}
	var payload any = req
	ctx.Broadcast(n.roster.Referee, TagEvictReq, payload, wire.Size(payload))
}

// onEvictReq is the referee side: the committee's coordinator verifies the
// witness and approval certificate and starts the eviction instance.
func (n *Node) onEvictReq(ctx *simnet.Context, m EvictReqMsg) {
	if n.role != RoleReferee || m.Round != n.roster.Round || m.Committee >= n.roster.M {
		return
	}
	if n.roster.coordinatorFor(m.Committee) != n.ID {
		return
	}
	// Deduplicate only while an eviction is in flight (decided but not yet
	// folded into the roster). Once the recorded successor holds the seat,
	// a fresh request — against the new leader — may start the next
	// eviction, so recovery can chain through a crashed successor.
	if ev, done := n.crEvicted[m.Committee]; done && n.roster.Leaders[m.Committee] != ev.Successor {
		return
	}
	leader := n.roster.Leaders[m.Committee]
	if m.Witness.Kind != "silence" && !m.Witness.Verify(n.pki, leader) {
		return
	}
	// For silence the approval certificate is the whole evidence: >c/2
	// distinct committee members signed that the leader went quiet. The
	// signed message is rebuilt from the request's header, so approvals
	// collected in another round or for another accuser cannot be replayed.
	if m.Approvals.Verify(n.pki, n.roster.Committee(m.Committee), m.approvals()) != nil {
		return
	}
	n.proposeEviction(ctx, m.Committee, m.Witness)
}

// proposeEviction starts C_R's Algorithm 3 instance replacing the leader
// with the lowest-ID partial-set member. Each eviction of a committee
// gets a fresh sequence number (generation-stepped by m), so a chained
// re-eviction never re-proposes on a consumed instance.
func (n *Node) proposeEviction(ctx *simnet.Context, k uint64, w RecoveryWitness) {
	evicted := n.roster.Leaders[k]
	successor := n.roster.successorFor(k)
	if successor < 0 {
		return
	}
	gen := n.crEvictGen[k]
	sn := snEvictBase + gen*n.roster.M + k
	if sn >= snBlock {
		return // out of eviction instances this round
	}
	put(&n.crEvictGen, k, gen+1)
	payload := EvictPayload{Committee: k, Evicted: evicted, Successor: successor, Witness: w}
	if p := n.consFor(n.ID); p != nil {
		p.Propose(ctx, sn, consensus.PayloadDigest(payload), payload, 0)
	}
}

// onNewLeader installs the replacement once a majority of referee members
// has announced it. An announcement counts only from the referee it names:
// anyone can write another referee's ID into a message.
func (n *Node) onNewLeader(ctx *simnet.Context, m NewLeaderMsg, from simnet.NodeID) {
	if m.Committee != n.comID || m.Round != n.roster.Round {
		return
	}
	if m.Referee != from || n.roster.RoleOf(from) != RoleReferee {
		return
	}
	votes := n.leaderVotes[m.Successor]
	if votes == nil {
		votes = make(map[simnet.NodeID]bool)
		put(&n.leaderVotes, m.Successor, votes)
	}
	votes[m.Referee] = true
	if !consensus.Majority(len(votes), len(n.roster.Referee)) {
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
