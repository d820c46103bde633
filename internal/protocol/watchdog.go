package protocol

import (
	"cycledger/internal/simnet"
)

// Silence watchdogs: leader-recovery triggered by absence of traffic
// rather than provable misbehaviour (§V-D extended to crashed, offline
// and withholding leaders).
//
// After a leader-driven phase's traffic has settled (RunUntilIdle
// returned — the discrete-event instant at which the phase's synchrony
// bound expires with nothing more arriving), the engine runs a silence
// sweep on every network, faulted or not. It asks each partial-set member
// of the affected committees whether its own view still lacks the phase's
// mandatory leader artifact (semi-commitment, TXList, score proposal,
// block forward); a member that answers yes broadcasts a "silence"
// accusation. Members vote on it only when their own observation
// corroborates the silence, so a live leader that reached a majority
// cannot be framed by one unlucky loss. From there the normal §V-D path
// runs: >c/2 approvals escalate to C_R, the eviction instance decides,
// NEW_LEADER installs the successor, and the engine's recovery loop
// re-runs (or re-propagates) the phase.
//
// The semi-commitment phase gets a second, referee-side detector: common
// members never see the announcement directly (it goes to C_R and the
// partial set, §IV-B), so a committee-quorum impeachment is only
// reachable when the leader has been silent since the round opened. The
// sweep therefore also asks each committee's C_R coordinator: if the
// joint referee view holds no announcement for a committee once traffic
// settles, the coordinator starts the eviction instance directly — the
// same authority it already exercises against forged commitments.
//
// The questions read only node-local state, and only a node that answers
// yes gets a timer. A sweep that finds nobody silent therefore schedules
// nothing, and its drain of an empty queue moves no clock and consumes no
// scheduling key: an intact phase pays nothing, and a run in which no
// leader falls silent is byte-identical whether or not a fault model is
// installed.

// runSilenceSweep runs the silence watchdogs for one phase on the given
// committees and drains the recovery traffic they start. Call it once the
// phase's own traffic has drained.
func (e *Engine) runSilenceSweep(phase string, ks []uint64) {
	if e.P.DisableRecovery {
		return
	}
	for _, k := range ks {
		for _, id := range e.roster.Partials[k] {
			if n := e.nodes[id]; n.seesSilence(phase) {
				e.Net.After(id, 1, func(ctx *simnet.Context) {
					n.accuse(ctx, RecoveryWitness{Kind: "silence", Committee: n.comID, Phase: phase})
				})
			}
		}
		if phase != "semicommit" || refereeRecord(e, func(n *Node) *SemiComMsg { return n.crSemiComs[k] }) != nil {
			continue
		}
		if coord := e.nodes[e.roster.coordinatorFor(k)]; coord.seesSemiComSilence(k) {
			e.Net.After(coord.ID, 1, func(ctx *simnet.Context) {
				coord.proposeEviction(ctx, k, RecoveryWitness{Kind: "silence", Committee: k, Phase: phase})
			})
		}
	}
	e.Net.RunUntilIdle()
}

// seesSilence is a partial-set member's watchdog: honest, online, and its
// own view of the phase still lacks the leader's mandatory artifact.
func (n *Node) seesSilence(phase string) bool {
	return n.role == RolePartial && !n.Behavior.Offline && !n.Behavior.IsByzantine() && n.silenceCorroborated(phase)
}

// seesSemiComSilence is the C_R coordinator's semicommit watchdog: honest,
// online, holding no announcement for committee k, and with no decided
// eviction for k still waiting to be folded into the roster. It mirrors
// the coordinator's authority over forged commitments (onSemiCom).
func (n *Node) seesSemiComSilence(k uint64) bool {
	if n.role != RoleReferee || n.Behavior.Offline || n.Behavior.IsByzantine() || n.crSemiComs[k] != nil {
		return false
	}
	ev, done := n.crEvicted[k]
	return !done || n.roster.Leaders[k] == ev.Successor
}

// silenceCorroborated reports whether this member's own view of the phase
// is missing the leader's mandatory artifact — the local evidence that
// makes it vote for (or raise) a silence accusation. Members with no
// standing to observe a phase return false (abstain).
func (n *Node) silenceCorroborated(phase string) bool {
	if n.ID == n.curLeader {
		return false
	}
	switch phase {
	case "semicommit":
		// Partials receive the announcement directly; other members fall
		// back to "has any leader of this committee said anything this
		// round" (leaderHeard is sticky across leader switches). The
		// committee quorum is therefore only reachable when the seat has
		// been silent since the round opened — a live successor, which
		// has no channel to commons in this phase, can never be framed by
		// their votes; mid-round crashes are the referee-side detector's
		// job.
		if n.role == RolePartial {
			return n.semiComLocal == nil
		}
		return !n.leaderHeard
	case "intra":
		return n.txList == nil
	case "score":
		return !n.scoreSeen
	case "block":
		return !n.gotBlock
	}
	return false
}
