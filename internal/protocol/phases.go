package protocol

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/pvss"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// engineBeaconMax caps the PVSS participant count the engine verifies at
// full cryptographic fidelity. The beacon's unbiasability argument only
// needs an honest majority among its participants; running the 768-bit
// PVSS among a fixed-size referee quorum keeps whole-network sweeps
// tractable while the pvss package's own tests cover the scheme at larger
// sizes. Its cost grows about as n²: one pvss.RunBeacon takes ≈ 3 ms at
// n = 9, ≈ 31 ms at 31 and ≈ 115–190 ms at 60 (BenchmarkRunBeacon, one P
// of a shared two-core Xeon), where a steady-small round takes ≈ 24 ms.
// Traffic for the full referee committee is still charged.
const engineBeaconMax = 9

// maxRecoveryAttempts bounds phase re-runs after leader evictions; the
// partial set guarantees an honest member within λ replacements.
const maxRecoveryAttempts = 4

// ---------------------------------------------------------------------------
// Phase 1: committee configuration (§IV-A, Algorithm 2)
//
// In the pipelined latency model this stage (together with the semi-commitment
// exchange) overlaps the previous round's block certification and
// propagation: it needs only the roster elected in the previous selection
// phase, never the previous block's content. pipelinedDuration credits
// that overlap against the round's simulated latency.

func (e *Engine) phaseConfig() {
	for _, n := range e.nodes {
		n.resetRound(e.roster)
	}
	// Build each committee's key-member records and install config
	// endpoints. They share one verified-proof set, so the engine verifies
	// each sortition proof of the round once however many endpoints are
	// shown it; the set dies with the endpoints when the phase ends.
	verified := committee.NewVerifiedSet(e.roster.Round, e.roster.Randomness)
	for k := uint64(0); k < e.roster.M; k++ {
		keyRecs := make([]committee.MemberRecord, 0, 1+len(e.roster.Partials[k]))
		for _, id := range e.roster.KeyMembers(k) {
			keyRecs = append(keyRecs, committee.MemberRecord{Node: id, PK: e.pki.PK(id)})
		}
		for _, id := range e.roster.Committee(k) {
			n := e.nodes[id]
			isKey := n.role == RoleLeader || n.role == RolePartial
			self := committee.MemberRecord{Node: id, PK: e.pki.PK(id)}
			if !isKey {
				// Drawn when the roster seated it (seatCommon).
				self.Hash = n.seat.Out.Hash
				self.Proof = n.seat.Out.Proof
			}
			n.cfg = committee.NewConfigNodeWith(verified, e.roster.M, self, isKey, keyRecs)
			if !isKey && !n.Behavior.Offline {
				cn := n.cfg
				e.Net.After(id, 1, func(ctx *simnet.Context) { cn.Start(ctx) })
			}
		}
	}
	e.Net.RunUntilIdle()
	// Key members adopt their assembled member lists (the S of §IV-B);
	// nothing else of an endpoint is read again, so all are released here
	// and not at the next round's reset.
	for _, n := range e.nodes {
		if n.cfg != nil && n.cfg.IsKey {
			n.localDirectory = n.cfg.S
		}
		n.cfg = nil
	}
}

// ---------------------------------------------------------------------------
// Phase 2: semi-commitment exchange (§IV-B, Algorithm 4)

func (e *Engine) phaseSemiCommit(report *RoundReport) {
	e.leaderPhase(report, "semicommit", func(leader *Node, k uint64, attempt int) func(*simnet.Context) {
		return leader.startSemiCommit
	})
	// Committees whose announcement never reached C_R conclude the phase
	// with a timeout verdict instead of blocking the round.
	e.noteTimeouts(report, "semicommit", e.semiComArrived)
}

// semiComArrived reports whether committee k's announcement reached a
// referee member.
func (e *Engine) semiComArrived(k uint64) bool {
	return slices.ContainsFunc(e.roster.Referee, func(id simnet.NodeID) bool { return e.nodes[id].crSemiComs[k] })
}

// leaderPhase drives a phase whose every step starts at the leaders: each
// committee's leader runs the step that start returns (start itself runs
// on the engine, before the step is scheduled), the phase settles, and
// committees whose leader was evicted re-run the step under the successor,
// up to maxRecoveryAttempts.
func (e *Engine) leaderPhase(report *RoundReport, phase string, start func(leader *Node, k uint64, attempt int) func(*simnet.Context)) {
	pending := e.allCommittees()
	for attempt := 0; attempt < maxRecoveryAttempts && len(pending) > 0; attempt++ {
		for _, k := range pending {
			leader := e.nodes[e.roster.Leaders[k]]
			e.Net.After(leader.ID, 1, start(leader, k, attempt))
		}
		pending = e.settle(report, phase, pending)
	}
}

// settle ends a leader-driven phase on committees ks: drain its traffic,
// run the silence sweep, and fold decided evictions into the roster. It
// returns the committees whose leader changed.
func (e *Engine) settle(report *RoundReport, phase string, ks []uint64) []uint64 {
	e.Net.RunUntilIdle()
	e.runSilenceSweep(phase, ks)
	return e.applyEvictions(report)
}

// allCommittees lists every committee index in order.
func (e *Engine) allCommittees() []uint64 {
	ks := make([]uint64, e.roster.M)
	for k := range ks {
		ks[k] = uint64(k)
	}
	return ks
}

// applyEvictions folds decided evictions into the roster, punishes the
// evicted leaders' reputation (§VII-B), force-syncs committee views, and
// returns the affected committees (which must re-run the current step
// under their new leaders).
func (e *Engine) applyEvictions(report *RoundReport) []uint64 {
	var affected []uint64
	for k := uint64(0); k < e.roster.M; k++ {
		coord := e.nodes[e.roster.coordinatorFor(k)]
		ev := coord.crEvicted[k]
		if ev == nil || e.roster.Leaders[k] == ev.Successor {
			continue
		}
		e.roster.ReplaceLeader(k, ev.Evicted, ev.Successor)
		e.reput.Punish(e.names[ev.Evicted])
		rec := RecoveryEvent{
			Round: e.roster.Round, Committee: k, Evicted: ev.Evicted, Successor: ev.Successor, Kind: ev.Witness.Kind,
		}
		report.Recoveries = append(report.Recoveries, rec)
		if e.hooks.Recovery != nil {
			e.hooks.Recovery(rec)
		}
		// Force-sync every member's view (the NEW_LEADER quorum normally
		// does this; the sync also covers nodes whose notices raced the
		// end of the network run).
		for _, id := range e.roster.Committee(k) {
			n := e.nodes[id]
			n.curLeader = ev.Successor
			if id == ev.Successor {
				n.role = RoleLeader
			}
			if id == ev.Evicted {
				n.role = RoleCommon
			}
		}
		// The successor (a partial member) holds its own directory from
		// the config phase; it re-announces in the next attempt.
		affected = append(affected, k)
	}
	// ReplaceLeader re-indexed the roster while the network was idle, so
	// the re-run step's handlers read the new seats.
	return affected
}

// ---------------------------------------------------------------------------
// Phase 3: intra-committee consensus (§IV-C, Algorithm 5)
//
// The batch was routed into per-shard work lists by the workload stage
// (routing.go) at the start of the round; this phase only primes each
// leader with its committee's list and drives the vote rounds.

func (e *Engine) phaseIntra(report *RoundReport) {
	e.leaderPhase(report, "intra", func(leader *Node, k uint64, attempt int) func(*simnet.Context) {
		leader.leaderTxs = e.work.intra[k]
		return func(ctx *simnet.Context) { leader.startIntra(ctx, attempt) }
	})
	e.noteTimeouts(report, "intra", func(k uint64) bool {
		return refereeRecord(e, func(n *Node) *IntraResultMsg { return n.crIntra[k] }) != nil
	})
}

// ---------------------------------------------------------------------------
// Phase 4: inter-committee consensus (§IV-D)
//
// Cross-shard lists come pre-routed (input shard → output shard) from the
// same one-shot routing pass as the intra lists.

func (e *Engine) phaseInter(report *RoundReport) {
	for k := uint64(0); k < e.roster.M; k++ {
		lists := e.work.cross[k]
		if len(lists) == 0 {
			continue
		}
		leader := e.nodes[e.roster.Leaders[k]]
		leader.interOut = lists
		e.Net.After(leader.ID, 1, func(ctx *simnet.Context) { leader.startInter(ctx) })
	}
	e.Net.RunUntilIdle()
	// Evictions during inter (e.g. equivocation on cross lists) are folded
	// in; the fallback-proposer path keeps liveness, so no re-run here.
	e.applyEvictions(report)
	// A committee times out when any of its outgoing cross-shard lists
	// never completed the round trip to C_R.
	e.noteTimeouts(report, "inter", func(k uint64) bool {
		for j := range e.work.cross[k] {
			if refereeRecord(e, func(n *Node) *InterResultMsg { return n.crInter[interKey(k, j)] }) == nil {
				return false
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Phase 5: reputation updating (§IV-E)

func (e *Engine) phaseScore(report *RoundReport) {
	for k := uint64(0); k < e.roster.M; k++ {
		leader := e.nodes[e.roster.Leaders[k]]
		e.Net.After(leader.ID, 1, leader.startScore)
	}
	// Leaders that fell silent in this phase are evicted here; the phase
	// is not re-run (the successor lacks the evicted leader's vote state),
	// so the committee concludes with a timeout verdict instead.
	e.settle(report, "score", e.allCommittees())
	e.noteTimeouts(report, "score", func(k uint64) bool {
		return refereeRecord(e, func(n *Node) *ScoreResultMsg { return n.crScores[k] }) != nil
	})
	// C_R applies certified score lists to the reputation table. The
	// certificate may live on any member (one crashed mid-phase misses
	// results its peers hold), so each committee's list is taken from the
	// first holder in roster order — on fault-free runs this is exactly
	// the first online member's view.
	for k := uint64(0); k < e.roster.M; k++ {
		msg := refereeRecord(e, func(n *Node) *ScoreResultMsg { return n.crScores[k] })
		if msg == nil {
			continue
		}
		payload, ok := msg.Result.Payload.(ScorePayload)
		if !ok || len(payload.Scores) != len(payload.Members) {
			continue
		}
		for i, id := range payload.Members {
			if name := e.NameOf(id); name != "" {
				e.reput.AddScore(name, payload.Scores[i])
			}
		}
	}
	// Leaders that completed the intra phase earn their workload bonus
	// (§VII-A).
	for k := uint64(0); k < e.roster.M; k++ {
		if refereeRecord(e, func(n *Node) *IntraResultMsg { return n.crIntra[k] }) != nil {
			e.reput.Bonus(e.names[e.roster.Leaders[k]], 1)
		}
	}
}

// refereeView returns the first online referee member — the engine's
// window into C_R's certified state. Under a fault model, referees
// currently crashed by the churn schedule are skipped too, so the answer
// depends on the simnet clock: it is the member that is up when the
// caller's phase asks.
func (e *Engine) refereeView() *Node {
	for _, id := range e.roster.Referee {
		if !e.nodeDown(id) {
			return e.nodes[id]
		}
	}
	return e.nodes[e.roster.Referee[0]]
}

// refereeRecord reads C_R's joint view: the first referee member's copy of
// a certified artifact, scanning the roster in order, or nil when no member
// holds one. A member crashed for part of a phase misses results its peers
// recorded, so a single member's map is the wrong oracle for "did this
// phase conclude"; the scan is deterministic and, on fault-free runs,
// equivalent to asking the first online member. Offline or crashed members
// simply hold no records, so no liveness filtering is needed and the scan
// reads only node maps, never the simnet clock.
func refereeRecord[T any](e *Engine, get func(*Node) *T) *T {
	for _, id := range e.roster.Referee {
		if v := get(e.nodes[id]); v != nil {
			return v
		}
	}
	return nil
}

// noteTimeouts appends a timeout verdict for every committee whose phase
// did not conclude — the expected certified artifact never materialised
// within the phase's synchrony bound. Verdicts are recorded in committee
// order, so reports stay byte-deterministic.
func (e *Engine) noteTimeouts(report *RoundReport, phase string, concluded func(k uint64) bool) {
	for k := uint64(0); k < e.roster.M; k++ {
		if !concluded(k) {
			report.Timeouts = append(report.Timeouts, PhaseTimeout{Phase: phase, Committee: k})
		}
	}
}

// ---------------------------------------------------------------------------
// Phase 6: referee committee, leaders and partial-set selection (§IV-F)
//
// This is the election track of the paper's pipeline: its traffic (PoW
// submissions, the C_R randomness beacon) touches only referee bookkeeping
// that the intra/inter/score chain never reads, so the pipelined latency
// model (pipelinedDuration) lets the whole stage overlap transaction
// processing; only the final reputation-ranked roster build consumes the
// score results, and that is instantaneous in virtual time. The phase
// submits the pow stage's solutions and returns the roster it elects.

func (e *Engine) phaseSelect(report *RoundReport, sols []powEntry) *Roster {
	// Participation PoW: every online node submits its puzzle solution to
	// C_R. The solving itself happened in the pow stage (pipeline.go); only
	// the submission traffic belongs to this phase.
	for i, n := range e.nodes {
		entry := sols[i]
		if !entry.ok {
			continue
		}
		var msg any = PowMsg{Round: e.roster.Round, Node: n.ID, Solution: entry.sol}
		e.Net.Broadcast(n.ID, e.roster.Referee, TagPow, msg, wire.Size(msg))
	}
	e.Net.RunUntilIdle()

	// Distributed randomness via PVSS among a referee quorum; traffic is
	// charged for the full committee (every member deals to every other).
	quorum := e.roster.Referee
	if len(quorum) > engineBeaconMax {
		quorum = quorum[:engineBeaconMax]
	}
	members := make([]pvss.BeaconMember, len(quorum))
	for i, id := range quorum {
		b := pvss.DealHonest
		switch {
		case e.nodeDown(id):
			// Offline behaviour or crashed by the fault model's schedule:
			// the member deals nothing this round.
			b = pvss.DealSilent
		case e.nodes[id].Behavior.IsByzantine():
			b = pvss.DealAbort
		}
		members[i] = pvss.BeaconMember{ID: e.names[id], Behavior: b}
	}
	res, err := pvss.RunBeacon(e.group, members, e.rng)
	next := crypto.H([]byte("fallback"), e.roster.Randomness[:])
	if err == nil {
		next = res.Randomness
	}
	shareSize := 96 + 32*(len(e.roster.Referee)/2+1)
	for _, a := range e.roster.Referee {
		for _, b := range e.roster.Referee {
			if a != b {
				e.Net.Send(a, b, TagPVSSShare, nil, shareSize)
			}
		}
	}
	e.Net.RunUntilIdle()

	// Participants recorded by C_R — the union over referee members, so a
	// member crashed for part of the phase does not erase submissions its
	// peers recorded (fault-free, every member holds the same set).
	seen := make(map[simnet.NodeID]bool)
	for _, rid := range e.roster.Referee {
		for id := range e.nodes[rid].crPow {
			seen[id] = true
		}
	}
	participants := slices.Sorted(maps.Keys(seen))
	report.Participants = len(participants)

	if len(participants) == 0 {
		// Total synchrony failure: no participation proof survived the
		// fault model (e.g. every referee crashed through the selection
		// phase, or the loss rate ate every submission). Electing from an
		// empty pool would wedge the next round, so the committee keeps
		// its current configuration — liveness degrades to the previous
		// roster instead of halting. Participants stays 0 in the report.
		participants = e.roster.AllNodes()
	}
	return e.buildNextRoster(next, participants)
}

// buildNextRoster runs the selection rules of §IV-F: uniformly random
// referee committee and partial sets (ranked lottery tickets under the new
// randomness), reputation-ranked leaders.
func (e *Engine) buildNextRoster(next crypto.Digest, participants []simnet.NodeID) *Roster {
	round := e.roster.Round + 1
	r := newRoster(round, next, uint64(e.P.M))
	pool := append([]simnet.NodeID(nil), participants...)

	// Referee committee: lowest lottery tickets win.
	sortByTicket(pool, func(id simnet.NodeID) crypto.Digest {
		return crypto.LotteryTicket(round, next, e.pki.PK(id), crypto.RoleReferee)
	})
	refCount := e.P.RefSize
	if refCount > len(pool) {
		refCount = len(pool)
	}
	r.Referee = append([]simnet.NodeID(nil), pool[:refCount]...)
	pool = pool[refCount:]

	// Leaders: the m highest-reputation participants (§IV-F).
	names := make([]string, len(pool))
	byName := make(map[string]simnet.NodeID, len(pool))
	for i, id := range pool {
		names[i] = e.names[id]
		byName[e.names[id]] = id
	}
	top := e.reput.TopK(names, e.P.M)
	taken := make(map[simnet.NodeID]bool)
	for k, name := range top {
		id := byName[name]
		r.Leaders[k] = id
		taken[id] = true
	}
	rest := pool[:0]
	for _, id := range pool {
		if !taken[id] {
			rest = append(rest, id)
		}
	}
	pool = rest

	// Partial sets: ranked partial-set tickets, committee by hash mod m,
	// deficits filled from the remaining ranking.
	sortByTicket(pool, func(id simnet.NodeID) crypto.Digest {
		return crypto.LotteryTicket(round, next, e.pki.PK(id), crypto.RolePartialSet)
	})
	var leftover []simnet.NodeID
	for _, id := range pool {
		k := crypto.PartialSetCommittee(round, next, e.pki.PK(id), r.M)
		if len(r.Partials[k]) < e.P.Lambda {
			r.Partials[k] = append(r.Partials[k], id)
		} else {
			leftover = append(leftover, id)
		}
	}
	li := 0
	for k := uint64(0); k < r.M; k++ {
		for len(r.Partials[k]) < e.P.Lambda && li < len(leftover) {
			r.Partials[k] = append(r.Partials[k], leftover[li])
			li++
		}
	}
	// Everyone else becomes a common member by sortition under R_{r+1}.
	for _, id := range leftover[li:] {
		e.seatCommon(r, id)
	}
	return r
}

// sortByTicket orders ids by their lottery tickets. Tickets are computed
// once per candidate up front — the comparator previously re-hashed both
// sides on every comparison, turning the O(n log n) sort into O(n log n)
// SHA-256 evaluations per election.
func sortByTicket(ids []simnet.NodeID, ticket func(simnet.NodeID) crypto.Digest) {
	keys := make([]crypto.Digest, len(ids))
	for i, id := range ids {
		keys[i] = ticket(id)
	}
	sort.Sort(&ticketSort{ids: ids, keys: keys})
}

// ticketSort co-sorts node IDs with their precomputed tickets.
type ticketSort struct {
	ids  []simnet.NodeID
	keys []crypto.Digest
}

func (t *ticketSort) Len() int { return len(t.ids) }
func (t *ticketSort) Less(i, j int) bool {
	return bytes.Compare(t.keys[i][:], t.keys[j][:]) < 0
}
func (t *ticketSort) Swap(i, j int) {
	t.ids[i], t.ids[j] = t.ids[j], t.ids[i]
	t.keys[i], t.keys[j] = t.keys[j], t.keys[i]
}

// ---------------------------------------------------------------------------
// Phase 7: block certification and propagation (§IV-G)
//
// The block's transactions were collected, validated and applied in the
// ledger stage (pipeline.go), CPU-only and run before this phase. It
// consumes that stage's valid list and fees and the selection phase's next
// roster: it builds the block, has C_R certify it, and propagates it.

func (e *Engine) phaseBlock(report *RoundReport, next *Roster, valid []*ledger.Tx, fees uint64) error {
	ref := e.refereeView()

	// Rewards: fees split proportionally to g(reputation) across this
	// round's participants (§IV-G).
	all := e.roster.AllNodes()
	partNames := make([]string, 0, len(all))
	reps := make([]float64, 0, len(all))
	for _, id := range all {
		partNames = append(partNames, e.names[id])
	}
	sort.Strings(partNames)
	for _, name := range partNames {
		reps = append(reps, e.reput.Get(name))
	}
	// The paid list is exactly sized: the report keeps it for the run, and
	// the block carries the same slice.
	rewards := reputation.DistributeRewards(reps, fees)
	n := 0
	for _, r := range rewards {
		if r > 0 {
			n++
		}
	}
	paid := make([]Reward, 0, n)
	for i, name := range partNames {
		if rewards[i] > 0 {
			paid = append(paid, Reward{name, rewards[i]})
		}
	}
	report.Rewards = paid
	snap := e.reput.Snapshot()
	scores := make([]Score, 0, len(snap))
	for name, v := range snap {
		scores = append(scores, Score{name, v})
	}
	slices.SortFunc(scores, func(a, b Score) int { return strings.Compare(a.Name, b.Name) })

	blk := &Block{
		Round:        e.roster.Round,
		Txs:          TxsOf(valid...),
		Fees:         fees,
		Randomness:   next.Randomness,
		NextReferee:  next.Referee,
		NextLeaders:  next.Leaders,
		NextPartials: next.Partials,
		Reputations:  NamesOf(scores...),
		Rewards:      NamesOf(paid...),
	}

	// C_R certifies the block via Algorithm 3, then propagates it.
	proposer := ref
	e.Net.After(proposer.ID, 1, func(ctx *simnet.Context) {
		if p := proposer.consFor(proposer.ID); p != nil {
			p.Propose(ctx, snBlock, consensus.PayloadDigest(blk), blk, 0)
		}
	})

	// A leader that went quiet during propagation (crashed, partitioned,
	// offline) is evicted here; the certified block is re-served to its
	// successors so the committees still receive it. The server is any
	// referee member that holds the certified block and is up right now —
	// a single member crashed mid-phase must not cancel a re-serve its
	// peers can perform.
	if affected := e.settle(report, "block", e.allCommittees()); len(affected) > 0 {
		var server *Node
		for _, id := range e.roster.Referee {
			if n := e.nodes[id]; n.crBlock != nil && !e.nodeDown(id) {
				server = n
				break
			}
		}
		if server != nil {
			rb := server.crBlock
			e.Net.After(server.ID, 1, func(ctx *simnet.Context) {
				successors := make([]simnet.NodeID, len(affected))
				for i, k := range affected {
					successors[i] = e.roster.Leaders[k]
				}
				var msg any = BlockMsg{Block: rb}
				ctx.Broadcast(successors, TagBlock, msg, wire.Size(msg))
			})
			e.Net.RunUntilIdle()
		}
	}
	e.noteTimeouts(report, "block", func(k uint64) bool {
		return e.nodes[e.roster.Leaders[k]].gotBlock
	})

	for _, n := range e.nodes {
		if n.gotBlock || (n.role == RoleReferee && n.crBlock != nil) {
			report.BlockDelivered++
		}
	}
	h, err := e.chain.Append(e.roster.Round, blk.Randomness, blk.Fees, valid)
	if err != nil {
		return fmt.Errorf("protocol: appending block: %w", err)
	}
	report.Block = h.Hash()
	return nil
}
