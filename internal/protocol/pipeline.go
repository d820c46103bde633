package protocol

import (
	"fmt"

	"cycledger/internal/ledger"
	"cycledger/internal/pow"
	"cycledger/internal/simnet"
)

// pipelinedDuration models the round latency of the §IV overlapped
// schedule as the critical path through the network stages' virtual spans.
//
// The simulator executes network stages back to back (their event sets
// must not share the queue for per-phase accounting), but two of them are
// causally independent of the serial consensus chain, so a deployment —
// and a discrete-event schedule that interleaved their events — would run
// them concurrently:
//
//   - The selection stage's traffic (participation-PoW submissions and the
//     C_R randomness beacon) touches only referee bookkeeping that nothing
//     in the intra/inter/score chain reads; only the final roster ranking
//     consumes the score results, and that computation is instantaneous in
//     virtual time. The election track therefore overlaps the processing
//     track, and the round pays max() of the two, not their sum.
//   - Round r+1's configuration and semi-commitment exchange depend on the
//     roster elected in round r's selection stage, not on round r's block,
//     so they overlap the previous block's certification/propagation tail;
//     the overlap is credited against this round (prevBlock).
//
// CPU stages consume no virtual time. The result is deterministic: it is
// derived purely from per-stage virtual spans.
func (e *Engine) pipelinedDuration() simnet.Time {
	s := e.stageSpans
	processing := s[PhaseIntra] + s[PhaseInter] + s[PhaseScore]
	election := s[PhaseSelect]
	dur := s[PhaseConfig] + s[PhaseSemiCommit] + max(processing, election) + s[PhaseBlock]
	if overlap := min(s[PhaseConfig]+s[PhaseSemiCommit], e.prevBlock); overlap > 0 {
		dur -= overlap
	}
	e.prevBlock = s[PhaseBlock]
	return dur
}

// powEntry is one node's participation-puzzle outcome.
type powEntry struct {
	ok  bool
	sol pow.Solution
}

// stagePow performs the §IV-F election legwork: every online node solves
// the next round's participation puzzle. The puzzle depends only on the
// round number and the current randomness, both fixed when the round
// opens, and the search is deterministic. The solutions are submitted on
// the network during the selection phase.
func (e *Engine) stagePow() {
	puzzle := e.roster.puzzle(e.P.PowHardness)
	e.powSols = make([]powEntry, len(e.nodes))
	for i, n := range e.nodes {
		if n.Behavior.Offline {
			continue
		}
		if sol, _, err := pow.Solve(puzzle, n.Keys.PK, uint64(n.ID)<<32, 1<<22); err == nil {
			e.powSols[i] = powEntry{ok: true, sol: sol}
		}
	}
}

// pendingBlock carries the assembled-but-uncertified block state from the
// assemble stage to the ledger and certify stages.
type pendingBlock struct {
	valid       []*ledger.Tx
	fees        uint64
	crossBefore map[ledger.TxID]bool
}

// stageAssemble collects the certified committee results from C_R's view,
// de-duplicates them, and validates the candidate set against the current
// ledger (cross-shard double spends across paths die here). It is pure
// CPU over the crIntra/crInter maps, which are final once the inter phase
// drains; it runs after the score phase.
func (e *Engine) stageAssemble() {
	// C_R's joint view: a certified result may live on any referee member
	// (one crashed mid-phase misses messages its peers recorded), so the
	// candidate set is the union across members via refereeRecord — on
	// fault-free runs exactly the first online member's view.
	var candidates []*ledger.Tx
	seen := make(map[ledger.TxID]bool)
	add := func(txs []*ledger.Tx) {
		for _, tx := range txs {
			id := tx.ID()
			if !seen[id] {
				seen[id] = true
				candidates = append(candidates, tx)
			}
		}
	}
	for k := uint64(0); k < e.roster.M; k++ {
		if msg := refereeRecord(e, func(n *Node) *IntraResultMsg { return n.crIntra[k] }); msg != nil {
			if payload, ok := msg.Result.Payload.(*IntraPayload); ok {
				add(payload.Txs.Txs())
			}
		}
	}
	for from := uint64(0); from < e.roster.M; from++ {
		for to := uint64(0); to < e.roster.M; to++ {
			key := interKey(from, to)
			if msg := refereeRecord(e, func(n *Node) *InterResultMsg { return n.crInter[key] }); msg != nil {
				if payload, ok := msg.Result.Payload.(*InterPayload); ok {
					add(payload.Txs.Txs())
				}
			}
		}
	}

	crossBefore := make(map[ledger.TxID]bool)
	for _, tx := range candidates {
		if ledger.IsCrossShard(tx, e.utxo, e.roster.M) {
			crossBefore[tx.ID()] = true
		}
	}
	valid, fees, _ := ledger.ValidateBatch(candidates, e.utxo)
	e.pending = &pendingBlock{valid: valid, fees: fees, crossBefore: crossBefore}
}

// stageLedger applies the validated set to the sharded store and settles
// the workload bookkeeping, after the selection phase and before the block
// is certified: a failed apply aborts the round before anything is
// appended to the chain. The generator's Reject calls here reshape its
// model before the next round's workload stage draws a batch.
func (e *Engine) stageLedger(report *RoundReport) error {
	p := e.pending
	included := make(map[ledger.TxID]bool, len(p.valid))
	for _, tx := range p.valid {
		id := tx.ID()
		if p.crossBefore[id] {
			report.CrossIncluded++
		} else {
			report.IntraIncluded++
		}
		included[id] = true
		if err := e.utxo.ApplyTx(tx); err != nil {
			return fmt.Errorf("protocol: applying validated tx: %w", err)
		}
	}
	report.Fees = p.fees
	for _, tx := range e.work.offered {
		if !included[tx.ID()] {
			report.Rejected++
			e.gen.Reject(tx)
		}
	}
	return nil
}
