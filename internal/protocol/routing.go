package protocol

import "cycledger/internal/ledger"

// routedWork is one round's transaction assignment, produced exactly once
// per round by the workload stage: the offered batch split into per-shard
// intra lists and (input shard → output shard) cross lists. It decides
// nothing: each committee's members validate the list they are handed
// (Node.voteOnTxs).
type routedWork struct {
	offered []*ledger.Tx
	intra   map[uint64][]*ledger.Tx
	cross   map[uint64]map[uint64][]*ledger.Tx
}

// stageWorkload builds the round's routed work, first thing in the round:
// it draws the batch and routes it once against the ledger view the
// previous round's apply left.
func (e *Engine) stageWorkload() {
	e.work = e.routeBatch(e.gen.NextBatch(e.P.M * e.P.TxPerCommittee))
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
