package protocol

import (
	"cycledger/internal/simnet"
)

// Silence watchdogs: leader-recovery triggered by absence of traffic
// rather than provable misbehaviour (§V-D extended to crash faults).
//
// When a fault model is active, the engine runs a silence sweep after a
// phase's traffic has settled (RunUntilIdle returned — the discrete-event
// equivalent of the phase's synchrony bound expiring). The sweep fires
// watchdog checks on every partial-set member of the affected committees;
// a member whose own view still lacks the phase's mandatory leader
// artifact (semi-commitment, TXList, score proposal, block forward)
// broadcasts a "silence" accusation. Members vote on it only when their
// own observation corroborates the silence, so a live leader that reached
// a majority cannot be framed by one unlucky loss. From there the normal
// §V-D path runs: >c/2 approvals escalate to C_R, the eviction instance
// decides, NEW_LEADER installs the successor, and the engine's recovery
// loop re-runs (or re-propagates) the phase.
//
// The semi-commitment phase gets a second, referee-side detector: common
// members never see the announcement directly (it goes to C_R and the
// partial set, §IV-B), so a committee-quorum impeachment is only
// reachable when the leader has been silent since the round opened. The
// sweep therefore also arms each committee's C_R coordinator: if the
// joint referee view holds no announcement for a committee once traffic
// settles, the coordinator starts the eviction instance directly — the
// same authority it already exercises against forged commitments.
//
// Because detection runs after the drain instead of on long in-network
// timers, an intact phase pays no latency floor: sweeps add one virtual
// tick plus whatever recovery traffic they actually trigger. Sweeps run
// only when a fault model is installed — the fault-free engine stays
// byte-identical to the pre-fault implementation, timers included.

// runSilenceSweep fires the silence watchdogs for one phase on the given
// committees (all committees when ks is nil) and drains the resulting
// recovery traffic. Call it after the phase's own RunUntilIdle. On a
// fault-free engine it is a no-op.
func (e *Engine) runSilenceSweep(phase string, ks []uint64) {
	if e.faults == nil || e.P.DisableRecovery {
		return
	}
	sweep := func(k uint64) {
		for _, id := range e.roster.Partials[k] {
			n := e.nodes[id]
			e.Net.After(id, 1, func(ctx *simnet.Context) { n.phaseWatchdog(ctx, phase) })
		}
		if phase == "semicommit" && !e.refereeHas(func(n *Node) bool { return n.crSemiComs[k] != nil }) {
			coord := e.nodes[e.coordinatorFor(k)]
			e.Net.After(coord.ID, 1, func(ctx *simnet.Context) {
				coord.refereeSilenceEviction(ctx, k, phase)
			})
		}
	}
	if ks == nil {
		for k := uint64(0); k < e.roster.M; k++ {
			sweep(k)
		}
	} else {
		for _, k := range ks {
			sweep(k)
		}
	}
	e.Net.RunUntilIdle()
}

// phaseWatchdog fires on a partial-set member during a silence sweep: if
// this member still lacks the leader's mandatory artifact for the phase,
// it opens a silence impeachment.
func (n *Node) phaseWatchdog(ctx *simnet.Context, phase string) {
	if n.Behavior.Offline || n.Behavior.IsByzantine() || n.role != RolePartial {
		return
	}
	if !n.silenceCorroborated(phase) {
		return // the leader's artifact arrived; nothing to accuse
	}
	n.accuse(ctx, RecoveryWitness{Kind: "silence", Committee: n.comID, Phase: phase})
}

// refereeSilenceEviction is the C_R coordinator's semicommit detector: a
// committee whose announcement never reached any referee member gets its
// leader evicted directly, mirroring the coordinator's authority over
// forged commitments (onSemiCom).
func (n *Node) refereeSilenceEviction(ctx *simnet.Context, k uint64, phase string) {
	if n.role != RoleReferee || n.Behavior.Offline || n.Behavior.IsByzantine() {
		return
	}
	if n.eng.coordinatorFor(k) != n.ID || n.crSemiComs[k] != nil {
		return
	}
	// Skip while a decided eviction for this committee is still pending.
	if ev, done := n.crEvicted[k]; done && n.eng.roster.Leaders[k] != ev.Successor {
		return
	}
	n.proposeEviction(ctx, k, RecoveryWitness{Kind: "silence", Committee: k, Phase: phase})
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
		return n.block == nil
	}
	return false
}
