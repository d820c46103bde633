package protocol

import (
	"bytes"
	"maps"
	"slices"

	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/pow"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// ---------------------------------------------------------------------------
// Semi-commitment exchange (§IV-B, Algorithm 4)

// startSemiCommit is invoked on the (current) leader by the engine: build
// the member list's commitment and announce it to C_R and the partial set.
func (n *Node) startSemiCommit(ctx *simnet.Context) {
	if n.Behavior.Offline || n.localDirectory == nil {
		return
	}
	com := n.localDirectory.SemiCommitment()
	if n.Behavior.ForgeSemiCommit {
		// A forged digest: self-inconsistent with the attached list, the
		// strongest detectable forgery (Theorem 2's first case).
		com = crypto.H([]byte("forged"), com[:])
	}
	msg := SemiComMsg{Round: n.roster.Round, Committee: n.comID, SemiCom: com, Records: n.localDirectory.Snapshot()}
	msg.Sig = consensus.Sign(n.pki.Scheme, n.Keys, msg)
	var payload any = msg // boxed once, not per destination
	size := wire.Size(payload)
	ctx.Broadcast(n.roster.Referee, TagSemiCom, payload, size)
	ctx.Broadcast(n.roster.Partials[n.comID], TagSemiCom, payload, size)
}

// onSemiCom handles a leader's announcement, on both referee members and
// partial-set members.
func (n *Node) onSemiCom(ctx *simnet.Context, m SemiComMsg, from simnet.NodeID) {
	if m.Committee >= n.roster.M {
		return
	}
	leader := n.roster.Leaders[m.Committee]
	if from != leader && from != n.curLeader {
		return
	}
	if consensus.Verify(n.pki, from, m.Sig, m) != nil {
		return
	}
	switch n.role {
	case RoleReferee:
		if _, dup := n.crSemiComs[m.Committee]; dup {
			return
		}
		mm := m
		n.crSemiComs[m.Committee] = &mm
		// The coordinator for this committee drives the C_R validation
		// instance (§IV-B step 2); an invalid commitment triggers an
		// eviction instance instead ("expel the cheating leaders").
		if n.roster.coordinatorFor(m.Committee) != n.ID {
			return
		}
		if m.ListDigest() == m.SemiCom {
			payload := SemiComPayload{Committee: m.Committee, Msg: m}
			if p := n.consFor(n.ID); p != nil {
				p.Propose(ctx, snSemiComBase+m.Committee, consensus.PayloadDigest(payload), payload, 0)
			}
		} else if !n.P.DisableRecovery {
			n.proposeEviction(ctx, m.Committee, RecoveryWitness{
				Kind: "semicommit", Committee: m.Committee, SemiCom: &mm,
			})
		}
	case RolePartial:
		if m.Committee != n.comID {
			return
		}
		mm := m
		n.semiComLocal = &mm
		// §IV-B step 3: verify the leader's commitment against the list;
		// the list must also cover everything we know locally.
		bad := m.ListDigest() != m.SemiCom
		if !bad && n.localDirectory != nil && len(m.Records) < n.localDirectory.Len() {
			bad = true
		}
		if bad && !n.P.DisableRecovery {
			n.accuse(ctx, RecoveryWitness{Kind: "semicommit", Committee: n.comID, SemiCom: &mm})
		}
	}
}

// ---------------------------------------------------------------------------
// Intra-committee consensus (§IV-C, Algorithm 5)

// startIntra is invoked on the leader by the engine with the round's
// TXList. attempt > 0 marks a re-run after leader recovery.
func (n *Node) startIntra(ctx *simnet.Context, attempt int) {
	if n.Behavior.Offline {
		return
	}
	txs := n.leaderTxs
	if n.Behavior.CensorAll {
		txs = nil
	}
	msg := TxListMsg{Round: n.roster.Round, Committee: n.comID, Attempt: attempt, Txs: TxsOf(txs...)}
	msg.Sig = consensus.Sign(n.pki.Scheme, n.Keys, msg)
	// Under tree dissemination only the tree children are sent to here;
	// receivers relay (onTxList) down their own subtrees.
	n.committeeCast(ctx, n.ID, TagTxList, msg, wire.Size(msg))
	// The leader votes too.
	n.votes = make(map[simnet.NodeID]reputation.VoteVector)
	n.voteOrder = nil
	n.recordVote(n.ID, n.voteOnTxs(txs))
	// Collection deadline: 6Δ (§IV-C step 4). Tree dissemination adds up
	// to ⌈log₂ C⌉ relay hops before the list reaches the deepest member,
	// so the deadline stretches by that many Δ in tree mode; fault-free
	// rounds are unaffected — the leader concludes on the last vote, not
	// the deadline.
	deadline := 6*n.lat.Delta + treeStretch(n.P, n.lat, len(n.committeeNodes))
	ctx.After(deadline, func(c *simnet.Context) {
		n.finishIntra(c, attempt)
	})
}

// onTxList is the member side: vote and reply (§IV-C step 3). Only a list
// the acting leader signed is relayed or voted on; the signature covers the
// whole list.
func (n *Node) onTxList(ctx *simnet.Context, m TxListMsg, size int) {
	if m.Committee != n.comID || m.Round != n.roster.Round {
		return
	}
	if consensus.Verify(n.pki, n.curLeader, m.Sig, m) != nil {
		return
	}
	if n.txList == nil || n.txList.Attempt != m.Attempt {
		// First sight of this list (or of a recovery re-run): under tree
		// dissemination, forward it down this node's subtree before voting,
		// so the whole committee is reached in ≤ ⌈log₂ C⌉ hops. A crashed
		// relay silences exactly its subtree, whose members then
		// corroborate the intra silence watchdog (txList == nil) — the
		// fault model sees tree faults with no extra machinery.
		n.committeeCast(ctx, n.curLeader, TagTxList, m, size)
	}
	mm := m
	n.txList = &mm
	votes := n.voteOnTxs(m.Txs.Txs())
	vm := VoteMsg{Round: m.Round, Committee: m.Committee, Attempt: m.Attempt, Voter: n.ID, Votes: votes}
	vm.Sig = consensus.Sign(n.pki.Scheme, n.Keys, vm)
	ctx.Send(n.curLeader, TagVote, vm, wire.Size(vm))
}

// voteOnTxs produces this node's vote vector on the list it was handed
// (§IV-C step 3). The behaviours that read a verdict, honest and invert,
// validate the list against the node's UTXO view (validateList); lazy and
// yes answer without validating anything.
func (n *Node) voteOnTxs(txs []*ledger.Tx) reputation.VoteVector {
	vote := n.Behavior.Vote
	if vote == VoteHonest || vote == VoteInvert {
		out := validateList(txs, n.utxo, n.P.ParallelBlockGen)
		if vote == VoteInvert {
			for i := range out {
				out[i] = -out[i]
			}
		}
		return out
	}
	out := make(reputation.VoteVector, len(txs)) // lazy: all Unknown
	if vote == VoteYes {
		for i := range out {
			out[i] = reputation.Yes
		}
	}
	return out
}

// validateList is the honest verdict on a list, in list order. With
// chained (ParallelBlockGen, §VIII-B) the list is judged against a
// private copy-on-write overlay over view, so a transaction spending an
// earlier one's output in the same list can pass; otherwise each
// transaction is judged independently against view. view is only read.
func validateList(txs []*ledger.Tx, view ledger.UTXOView, chained bool) reputation.VoteVector {
	var overlay *ledger.Overlay
	if chained {
		overlay = ledger.NewOverlay(view)
		view = overlay
	}
	out := make(reputation.VoteVector, len(txs))
	for i, tx := range txs {
		out[i] = reputation.No
		if _, err := ledger.Validate(tx, view); err == nil {
			out[i] = reputation.Yes
			if overlay != nil {
				_ = overlay.ApplyTx(tx) // cannot fail: tx just validated against overlay
			}
		}
	}
	return out
}

func (n *Node) recordVote(voter simnet.NodeID, v reputation.VoteVector) {
	if _, dup := n.votes[voter]; dup {
		return
	}
	n.votes[voter] = v
	n.voteOrder = append(n.voteOrder, voter)
}

// onVote is the leader side of vote collection. A vote counts only from
// the member it names, under that member's signature: the count closes
// collection at committeeSize, so a vote for anyone else is a vote stolen.
func (n *Node) onVote(ctx *simnet.Context, m VoteMsg, from simnet.NodeID) {
	if n.ID != n.curLeader || m.Committee != n.comID || m.Round != n.roster.Round {
		return
	}
	if m.Voter != from || !slices.Contains(n.committeeNodes, m.Voter) || len(m.Votes) != len(n.currentList()) {
		return
	}
	if consensus.Verify(n.pki, m.Voter, m.Sig, m) != nil {
		return
	}
	n.recordVote(m.Voter, m.Votes)
	if len(n.votes) == n.committeeSize() {
		n.finishIntra(ctx, m.Attempt)
	}
}

func (n *Node) currentList() []*ledger.Tx {
	if n.Behavior.CensorAll {
		return nil
	}
	return n.leaderTxs
}

// finishIntra computes TXdecSET from the collected votes and runs
// Algorithm 3 on (TXdecSET, VList). Nodes that missed the deadline count
// as all-Unknown (§IV-C step 4).
func (n *Node) finishIntra(ctx *simnet.Context, attempt int) {
	if n.intraDecided != nil || n.ID != n.curLeader {
		return // already done (all votes arrived before the deadline)
	}
	txs := n.currentList()
	c := n.committeeSize()
	var voteList []reputation.VoteVector
	for _, voter := range n.voteOrder {
		voteList = append(voteList, n.votes[voter])
	}
	if len(voteList) == 0 {
		return
	}
	decision, err := reputation.DecisionVector(voteList, c)
	if err != nil {
		return
	}
	var dec []*ledger.Tx
	for i, tx := range txs {
		if decision[i] == reputation.Yes {
			dec = append(dec, tx)
		}
	}
	payload := &IntraPayload{Txs: TxsOf(dec...), Voters: append([]simnet.NodeID(nil), n.voteOrder...), Votes: voteList}
	n.intraDecided = payload
	sn := snIntraBase + uint64(attempt)
	p := n.consFor(n.ID)
	if p == nil {
		return
	}
	if n.Behavior.EquivocateIntra {
		// Split the committee and propose two conflicting decisions.
		alt := &IntraPayload{Voters: payload.Voters, Votes: payload.Votes}
		propA := consensus.BuildPropose(n.pki.Scheme, n.Keys, n.ID, n.roster.Round, sn, consensus.PayloadDigest(payload), payload)
		propB := consensus.BuildPropose(n.pki.Scheme, n.Keys, n.ID, n.roster.Round, sn, consensus.PayloadDigest(alt), alt)
		half := len(n.committeeNodes) / 2
		p.SendRaw(ctx, propA, n.committeeNodes[:half])
		p.SendRaw(ctx, propB, n.committeeNodes[half:])
		return
	}
	p.Propose(ctx, sn, consensus.PayloadDigest(payload), payload, 0)
}

// ---------------------------------------------------------------------------
// Inter-committee consensus (§IV-D)

// startInter is invoked on the leader by the engine with the cross-shard
// lists destined to each committee. With PreScreenCross (§VIII-A) the
// leader first asks each receiving leader which transactions it considers
// valid and packages only the approved ones; a silent receiver (e.g. a
// concealing byzantine leader) is worked around after a 4Γ timeout by
// packaging the unfiltered list.
func (n *Node) startInter(ctx *simnet.Context) {
	if n.Behavior.Offline {
		return
	}
	// Iterate targets in sorted order: ranging over the map directly would
	// enqueue sends (and thus draw their simulated delays) in a
	// run-dependent order, breaking seeded reproducibility.
	targets := slices.Sorted(maps.Keys(n.interOut))
	if !n.P.PreScreenCross {
		for _, j := range targets {
			n.proposeInterOut(ctx, j, n.interOut[j])
		}
		return
	}
	for _, j := range targets {
		j, txs := j, n.interOut[j]
		query := InterQueryMsg{Round: n.roster.Round, From: n.comID, To: j, Txs: TxsOf(txs...)}
		ctx.Send(n.roster.Leaders[j], TagInterQuery, query, wire.Size(query))
		ctx.After(4*n.lat.Gamma, func(c *simnet.Context) {
			if n.interOutStarted[j] {
				return
			}
			n.proposeInterOut(c, j, txs)
		})
	}
}

func (n *Node) proposeInterOut(ctx *simnet.Context, j uint64, txs []*ledger.Tx) {
	if n.interOutStarted[j] {
		return
	}
	n.interOutStarted[j] = true
	p := n.consFor(n.ID)
	if p == nil {
		return
	}
	payload := &InterPayload{From: n.comID, Txs: TxsOf(txs...)}
	p.Propose(ctx, snInterOutBase+j, consensus.PayloadDigest(payload), payload, 0)
}

// onInterQuery answers a §VIII-A pre-screen: the receiving leader marks
// each candidate against its view. A concealing leader ignores queries.
func (n *Node) onInterQuery(ctx *simnet.Context, m InterQueryMsg) {
	if n.role != RoleLeader || m.To != n.comID || m.Round != n.roster.Round || m.From >= n.roster.M {
		return
	}
	if n.Behavior.ConcealCross || n.Behavior.Offline {
		return
	}
	txs := m.Txs.Txs()
	valid := make([]bool, len(txs))
	for i, tx := range txs {
		_, err := ledger.Validate(tx, n.utxo)
		valid[i] = err == nil
	}
	pref := InterPrefMsg{Round: m.Round, From: m.From, To: m.To, Valid: valid}
	ctx.Send(n.roster.Leaders[m.From], TagInterPref, pref, wire.Size(pref))
}

// onInterPref filters the pending list by the receiver's preference and
// starts the committee consensus on the survivors.
func (n *Node) onInterPref(ctx *simnet.Context, m InterPrefMsg) {
	if n.role != RoleLeader || m.From != n.comID || m.Round != n.roster.Round {
		return
	}
	txs, ok := n.interOut[m.To]
	if !ok || len(m.Valid) != len(txs) || n.interOutStarted[m.To] {
		return
	}
	var kept []*ledger.Tx
	for i, tx := range txs {
		if m.Valid[i] {
			kept = append(kept, tx)
		}
	}
	n.screened += len(txs) - len(kept)
	if len(kept) == 0 {
		n.interOutStarted[m.To] = true // nothing worth two consensus runs
		return
	}
	n.proposeInterOut(ctx, m.To, kept)
}

// onInterFwd receives a certified cross-shard list on the output
// committee's key members.
func (n *Node) onInterFwd(ctx *simnet.Context, m InterFwdMsg) {
	if m.To != n.comID || m.Round != n.roster.Round {
		return
	}
	if n.Behavior.ConcealCross && n.role == RoleLeader {
		return // malicious leader hides the cross-shard work
	}
	// The certificate's >c/2 quorum over the carried roster is the binding
	// check (§IV-D: "a faulty leader cannot fabricate a consensus result").
	if err := m.Cert.Verify(n.pki, m.Members); err != nil {
		return
	}
	if _, dup := n.interFwds[m.From]; dup {
		return
	}
	mm := m
	n.interFwds[m.From] = &mm

	switch n.role {
	case RoleLeader:
		payload := &InterPayload{From: m.From, Txs: m.Txs}
		if p := n.consFor(n.ID); p != nil {
			p.Propose(ctx, snInterInBase+m.From, consensus.PayloadDigest(payload), payload, 0)
		}
	case RolePartial:
		// Lemma 7 liveness: if the leader stays silent for 2Γ, forward
		// the set; after another 2Γ, the first partial member assumes
		// proposer duty. Disabled together with recovery for the
		// RapidChain-style baseline.
		if n.P.DisableRecovery {
			return
		}
		src := m.From
		wait := 2 * n.lat.Gamma
		ctx.After(wait, func(c *simnet.Context) {
			if n.leaderProposedInterIn(src) {
				return
			}
			c.Send(n.curLeader, TagInterFwd, mm, wire.Size(mm))
			c.After(wait, func(c2 *simnet.Context) {
				if n.leaderProposedInterIn(src) {
					return
				}
				if n.roster.successorFor(n.comID) == n.ID {
					payload := &InterPayload{From: src, Txs: mm.Txs}
					if p := n.consFor(n.ID); p != nil {
						p.Propose(c2, snInterInBase+src, consensus.PayloadDigest(payload), payload, 0)
					}
				}
			})
		})
	}
}

// leaderProposedInterIn reports whether any endpoint of this node — the
// current leader's, or a fallback proposer's — holds a proposal for src's
// incoming list.
func (n *Node) leaderProposedInterIn(src uint64) bool {
	for _, p := range n.cons {
		if p.HasProposal(snInterInBase + src) {
			return true
		}
	}
	return false
}

// onInterResult records the round trip at referee members.
func (n *Node) onInterResult(ctx *simnet.Context, m InterResultMsg) {
	if m.Round != n.roster.Round || n.role != RoleReferee {
		return
	}
	key := interKey(m.From, m.To)
	if _, dup := n.crInter[key]; dup {
		return
	}
	mm := m
	n.crInter[key] = &mm
}

// ---------------------------------------------------------------------------
// Reputation updating (§IV-E)

// startScore is invoked on the leader by the engine after the consensus
// phases: grade every member and run Algorithm 3 on the ScoreList.
func (n *Node) startScore(ctx *simnet.Context) {
	if n.Behavior.Offline || n.Behavior.SuppressScore {
		return
	}
	if n.intraDecided == nil || len(n.voteOrder) == 0 {
		return
	}
	var voteList []reputation.VoteVector
	for _, voter := range n.voteOrder {
		voteList = append(voteList, n.votes[voter])
	}
	decision, err := reputation.DecisionVector(voteList, n.committeeSize())
	if err != nil {
		return
	}
	scores, err := reputation.ScoreAll(voteList, decision)
	if err != nil {
		return
	}
	payload := ScorePayload{Members: append([]simnet.NodeID(nil), n.voteOrder...), Scores: scores}
	if p := n.consFor(n.ID); p != nil {
		p.Propose(ctx, snScore, consensus.PayloadDigest(payload), payload, 0)
	}
}

// onScoreResult stores a committee's certified score list at C_R.
func (n *Node) onScoreResult(ctx *simnet.Context, m ScoreResultMsg) {
	if n.role != RoleReferee {
		return
	}
	if err := m.Result.Verify(n.pki, m.Members); err != nil {
		return
	}
	if _, dup := n.crScores[m.Committee]; dup {
		return
	}
	mm := m
	n.crScores[m.Committee] = &mm
}

// onIntraResult stores a committee's certified intra decision at C_R.
func (n *Node) onIntraResult(ctx *simnet.Context, m IntraResultMsg) {
	if n.role != RoleReferee {
		return
	}
	if err := m.Result.Verify(n.pki, m.Members); err != nil {
		return
	}
	if _, dup := n.crIntra[m.Committee]; dup {
		return
	}
	mm := m
	n.crIntra[m.Committee] = &mm
}

// ---------------------------------------------------------------------------
// Consensus callbacks (dispatch by sn)

func (n *Node) onConsensusDecide(ctx *simnet.Context, res consensus.Result) {
	switch {
	case res.SN >= snIntraBase && res.SN < snIntraBase+100:
		// Intra decision certified: report to C_R (§IV-C step 5).
		if payload, ok := res.Payload.(*IntraPayload); ok {
			n.intraDecided = payload
		}
		var msg any = IntraResultMsg{Committee: n.comID, Result: n.certify(res), Members: n.committeeNodes}
		ctx.Broadcast(n.roster.Referee, TagIntraResult, msg, wire.Size(msg))
	case res.SN == snScore:
		var msg any = ScoreResultMsg{Committee: n.comID, Result: n.certify(res), Members: n.committeeNodes}
		ctx.Broadcast(n.roster.Referee, TagScoreResult, msg, wire.Size(msg))
	case res.SN >= snInterOutBase && res.SN < snInterOutBase+n.roster.M:
		j := res.SN - snInterOutBase
		payload, ok := res.Payload.(*InterPayload)
		if !ok {
			return
		}
		var fwd any = InterFwdMsg{Round: n.roster.Round, From: n.comID, To: j, Txs: payload.Txs, Cert: n.certify(res), Members: n.committeeNodes}
		ctx.Broadcast(n.roster.KeyMembers(j), TagInterFwd, fwd, wire.Size(fwd)) // leader, then partial set
	case res.SN >= snInterInBase && res.SN < snInterInBase+n.roster.M:
		i := res.SN - snInterInBase
		var msg any = InterResultMsg{Round: n.roster.Round, From: i, To: n.comID, Result: n.certify(res)}
		size := wire.Size(msg)
		ctx.Send(n.roster.Leaders[i], TagInterResult, msg, size)
		ctx.Broadcast(n.roster.Referee, TagInterResult, msg, size)
	case res.SN >= snSemiComBase && res.SN < snSemiComBase+n.roster.M:
		// C_R validated a commitment: announce to all key members
		// (§IV-B step 2).
		k := res.SN - snSemiComBase
		if payload, ok := res.Payload.(SemiComPayload); ok {
			n.validatedSemiComs[k] = payload.Msg.SemiCom
			var ok any = SemiComOKMsg{Round: n.roster.Round, SemiComs: map[uint64]crypto.Digest{k: payload.Msg.SemiCom}}
			ctx.Broadcast(n.roster.AllKeyMembers(), TagSemiComOK, ok, wire.Size(ok))
		}
	case res.SN >= snEvictBase && res.SN < snBlock:
		// Eviction instance (any generation — see proposeEviction): decided
		// on the coordinator; OnAccept (below) handles fan-out on every
		// referee member.
	case res.SN == snBlock:
		// Handled in OnAccept so every referee member shares the
		// propagation burden.
	case res.SN == snUTXO:
		if payload, ok := res.Payload.(UTXOPayload); ok {
			var msg any = UTXOFinalMsg{Round: n.roster.Round, Committee: n.comID, Digest: payload.UTXO, Result: n.certify(res)}
			ctx.Broadcast(n.roster.Referee, TagUTXOFinal, msg, wire.Size(msg))
		}
	}
}

func (n *Node) onConsensusAccept(ctx *simnet.Context, sn uint64, d crypto.Digest, payload any) {
	switch {
	case n.role == RoleReferee && sn >= snEvictBase && sn < snBlock:
		ev, ok := payload.(EvictPayload)
		if !ok || ev.Committee >= n.roster.M {
			return
		}
		evv := ev
		n.crEvicted[ev.Committee] = &evv
		// Every referee member notifies the committee (Algorithm 6).
		var msg any = NewLeaderMsg{Round: n.roster.Round, Committee: ev.Committee, Evicted: ev.Evicted, Successor: ev.Successor, Referee: n.ID}
		ctx.Broadcast(n.roster.Committee(ev.Committee), TagNewLeader, msg, wire.Size(msg))
	case n.role == RoleReferee && sn == snBlock:
		blk, ok := payload.(*Block)
		if !ok {
			return
		}
		n.crBlock = blk
		n.propagateBlock(ctx, blk)
	}
}

// ---------------------------------------------------------------------------
// Block phase

// propagateBlock spreads the decided block: each referee member serves the
// slice of leaders assigned to it round-robin; leaders forward within
// their committees (onBlock). This splits the paper's O(mn) referee burden
// across C_R.
func (n *Node) propagateBlock(ctx *simnet.Context, blk *Block) {
	idx := slices.Index(n.roster.Referee, n.ID)
	if idx < 0 {
		return
	}
	var leaders []simnet.NodeID
	for k := idx; k < len(n.roster.Leaders); k += len(n.roster.Referee) {
		leaders = append(leaders, n.roster.Leaders[k])
	}
	var msg any = BlockMsg{Block: blk}
	ctx.Broadcast(leaders, TagBlock, msg, wire.Size(msg))
}

// onBlock receives the round block, of the given declared size, and
// forwards it unchanged; committee leaders then drive the final UTXO
// consensus (§IV-G).
func (n *Node) onBlock(ctx *simnet.Context, m BlockMsg, size int) {
	if n.gotBlock || m.Block == nil {
		return
	}
	n.gotBlock = true
	if n.role != RoleLeader && n.role != RoleReferee && n.role != RoleIdle {
		// Under tree dissemination committee members relay the block down
		// their subtree (referees keep their own propagation path untouched).
		n.committeeCast(ctx, n.curLeader, TagBlock, m, size)
	}
	if n.role == RoleLeader && !n.Behavior.Offline {
		// Leaders forward the block inside their committee.
		n.committeeCast(ctx, n.ID, TagBlock, m, size)
		// Agree on the final shard-UTXO digest.
		digest := crypto.H([]byte("utxo"), u64(n.roster.Round), u64(n.comID), m.Block.Randomness[:])
		payload := UTXOPayload{Committee: n.comID, UTXO: digest}
		if p := n.consFor(n.ID); p != nil {
			p.Propose(ctx, snUTXO, consensus.PayloadDigest(payload), payload, 0)
		}
	}
}

func (n *Node) onUTXOFinal(ctx *simnet.Context, m UTXOFinalMsg) {
	// Records nothing: the digest the block phase agrees on commits to no
	// state, so no receiver has anything to check (ROADMAP.md 2(vii)).
}

// onPow records participation-puzzle solutions at C_R (§IV-F): a node
// participates only through its own submission, this round, of a solution
// under its own key that the puzzle accepts.
func (n *Node) onPow(ctx *simnet.Context, m PowMsg, from simnet.NodeID) {
	if n.role != RoleReferee || m.Node != from || m.Round != n.roster.Round {
		return
	}
	if !bytes.Equal(m.Solution.PK, n.pki.PK(m.Node)) || !pow.Verify(n.roster.puzzle(n.P.PowHardness), m.Solution) {
		return
	}
	n.crPow[m.Node] = true
}

func interKey(from, to uint64) [2]uint64 { return [2]uint64{from, to} }
