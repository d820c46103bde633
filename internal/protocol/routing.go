package protocol

import (
	"cycledger/internal/ledger"
	"cycledger/internal/reputation"
)

// routedWork is one round's transaction assignment, produced exactly once
// per round by the workload stage: the offered batch split into per-shard
// intra lists and (input shard → output shard) cross lists, plus the
// honest verdict vector for each committee's list, precomputed against
// shard-local views so the (identical) honest validation work is not
// repeated by every committee member inside the network simulation.
type routedWork struct {
	offered  []*ledger.Tx
	intra    map[uint64][]*ledger.Tx
	cross    map[uint64]map[uint64][]*ledger.Tx
	verdicts map[uint64]reputation.VoteVector
}

// stageWorkload builds the round's routed work, first thing in the round:
// it draws the batch, routes it once against the ledger view the previous
// round's apply left, and precomputes per-shard honest verdicts.
func (e *Engine) stageWorkload() {
	w := e.routeBatch(e.gen.NextBatch(e.P.M * e.P.TxPerCommittee))
	e.precomputeVerdicts(w)
	e.work = w
}

// routeBatch classifies every transaction once against the current ledger
// view (§IV-C/D): intra-shard transactions go to their home committee's
// list, unresolvable-input transactions are offered to their first output
// shard (where they will be voted No), and cross-shard transactions are
// filed under (first input shard → first other touched shard). The input,
// output, and union shard sets come from one combined ShardScratch pass
// per transaction (interned owner digests, slice-based sets, buffers
// reused across the batch) instead of the three separate map-building
// calls this loop used to make.
func (e *Engine) routeBatch(batch []*ledger.Tx) *routedWork {
	w := &routedWork{
		offered: batch,
		intra:   make(map[uint64][]*ledger.Tx),
		cross:   make(map[uint64]map[uint64][]*ledger.Tx),
	}
	var sc ledger.ShardScratch
	for _, tx := range batch {
		sc.Compute(tx, e.utxo, e.roster.M)
		shards := sc.Touched
		switch {
		case len(shards) <= 1:
			k := uint64(0)
			if len(shards) == 1 {
				k = shards[0]
			} else if len(sc.Out) > 0 {
				k = sc.Out[0] // unresolvable inputs: offered to the output shard, voted No
			}
			w.intra[k] = append(w.intra[k], tx)
		default:
			i := shards[0]
			if len(sc.In) > 0 {
				i = sc.In[0]
			}
			j := shards[0]
			if j == i && len(shards) > 1 {
				j = shards[1]
			}
			if w.cross[i] == nil {
				w.cross[i] = make(map[uint64][]*ledger.Tx)
			}
			w.cross[i][j] = append(w.cross[i][j], tx)
		}
	}
	return w
}

// precomputeVerdicts computes each committee's honest vote vector. Every
// honest member of committee k evaluates the same list in the same order
// against the same state, so the vector is a per-shard fact, not a
// per-node one; nodes then derive their actual votes from it through
// their Behavior (see voteOnTxs). Shard-local speculative views (overlays
// over the striped store) leave the store itself untouched, so the shards
// may be evaluated in any order.
func (e *Engine) precomputeVerdicts(w *routedWork) {
	w.verdicts = make(map[uint64]reputation.VoteVector, len(w.intra))
	for k, txs := range w.intra {
		w.verdicts[k] = e.honestVerdictFor(txs)
	}
}

// honestVerdictFor evaluates one committee's list in order. With
// ParallelBlockGen (§VIII-B) the verdicts are computed against a
// copy-on-write overlay so chained transactions in one list can both pass;
// otherwise each transaction is judged independently against the store.
func (e *Engine) honestVerdictFor(txs []*ledger.Tx) reputation.VoteVector {
	var view ledger.UTXOView = e.utxo
	var overlay *ledger.Overlay
	if e.P.ParallelBlockGen {
		overlay = ledger.NewOverlay(e.utxo)
		view = overlay
	}
	out := make(reputation.VoteVector, len(txs))
	for i, tx := range txs {
		out[i] = reputation.No
		if _, err := ledger.Validate(tx, view); err == nil {
			out[i] = reputation.Yes
			if overlay != nil {
				_ = overlay.ApplyTx(tx)
			}
		}
	}
	return out
}

// honestVerdicts returns the precomputed verdict vector for committee k
// when the supplied list is the one the engine primed, and falls back to a
// fresh evaluation otherwise (e.g. a byzantine leader substituted a list).
// The returned vector must be treated as read-only.
func (e *Engine) honestVerdicts(k uint64, txs []*ledger.Tx) reputation.VoteVector {
	if w := e.work; w != nil && sameTxList(w.intra[k], txs) {
		return w.verdicts[k]
	}
	return e.honestVerdictFor(txs)
}

// sameTxList reports whether b is exactly the primed list a (the in-process
// simulation passes lists by reference, so pointer comparison suffices and
// stays cheap on the hot path).
func sameTxList(a, b []*ledger.Tx) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
