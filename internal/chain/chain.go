// Package chain stores the sequence of blocks the referee committee
// releases each round (§IV-G) and verifies its integrity: every block
// links to its predecessor by hash, rounds are consecutive, and the
// per-block transaction sets replay cleanly against a UTXO set.
//
// A stored block is its header and its transactions as bytes, in the list
// layout a block travels in (ledger.TxSlice): one pointer-free slice per
// round, not the decoded transactions, which nothing reads once the round
// has committed. A reader gets them decoded afresh (At, Verify).
package chain

import (
	"fmt"
	"sync"

	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
)

// Header is the chained summary of one round's block.
type Header struct {
	Round      uint64
	Prev       crypto.Digest // hash of the previous header (zero for genesis)
	TxRoot     crypto.Digest // hash over the included transaction IDs
	Randomness crypto.Digest // R_{r+1} carried in the block
	Fees       uint64
	TxCount    int
}

// Hash returns the header's chaining digest.
func (h Header) Hash() crypto.Digest {
	var fees [8]byte
	for i := 0; i < 8; i++ {
		fees[i] = byte(h.Fees >> (56 - 8*i))
	}
	var round [8]byte
	for i := 0; i < 8; i++ {
		round[i] = byte(h.Round >> (56 - 8*i))
	}
	return crypto.H([]byte("cycledger/header/v1"), round[:], h.Prev[:], h.TxRoot[:], h.Randomness[:], fees[:])
}

// TxRootOf computes the transaction root: H over the ordered tx IDs. The
// IDs are gathered in one slice, not one allocation each.
func TxRootOf(txs []*ledger.Tx) crypto.Digest {
	ids := make([]ledger.TxID, len(txs))
	parts := make([][]byte, 0, len(txs)+1)
	parts = append(parts, []byte("txroot"))
	for i, tx := range txs {
		ids[i] = tx.ID()
		parts = append(parts, ids[i][:])
	}
	return crypto.H(parts...)
}

// Entry is one stored block in its read form: the header and the block's
// transactions, decoded from the stored bytes for the caller alone.
type Entry struct {
	Header Header
	Txs    []*ledger.Tx
}

// stored is one block as the chain keeps it: the header and the
// transactions' list encoding (ledger.EncodeTxs).
type stored struct {
	header Header
	txs    []byte
}

// Chain is an append-only verified block store. Safe for concurrent use.
// It holds each block's transactions as bytes, and decodes them for each
// reader that asks.
type Chain struct {
	mu      sync.RWMutex
	entries []stored
}

// New returns an empty chain.
func New() *Chain { return &Chain{} }

// Append verifies and stores the next block: the round must follow the
// tip, the prev hash must match the tip's hash, and the declared tx root
// must cover the body. The chain keeps the list encoding of txs, not txs:
// the caller may reuse or drop the slice and its transactions.
func (c *Chain) Append(round uint64, randomness crypto.Digest, fees uint64, txs []*ledger.Tx) (Header, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var prev crypto.Digest
	nextRound := uint64(1)
	if len(c.entries) > 0 {
		tip := c.entries[len(c.entries)-1].header
		prev = tip.Hash()
		nextRound = tip.Round + 1
	}
	if round != nextRound {
		return Header{}, fmt.Errorf("chain: round %d does not follow tip round %d", round, nextRound-1)
	}
	h := Header{
		Round:      round,
		Prev:       prev,
		TxRoot:     TxRootOf(txs),
		Randomness: randomness,
		Fees:       fees,
		TxCount:    len(txs),
	}
	c.entries = append(c.entries, stored{header: h, txs: ledger.EncodeTxs(txs)})
	return h, nil
}

// Len returns the chain height.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// At returns the entry at height i (0-based), its transactions decoded
// afresh from the stored bytes on every call: nothing the caller does to
// them reaches the chain or another caller.
func (c *Chain) At(i int) (Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i < 0 || i >= len(c.entries) {
		return Entry{}, false
	}
	e := c.entries[i]
	txs, err := ledger.ReadTxs(e.txs)
	if err != nil {
		panic(fmt.Sprintf("chain: height %d stores a list Append did not encode: %v", i, err))
	}
	return Entry{Header: e.header, Txs: txs}, true
}

// Verify re-checks the whole chain: linkage, round numbering, tx roots,
// and (when a genesis UTXO snapshot is supplied) transaction replay. It
// decodes each entry's transactions once, and a list that does not decode
// is an error.
func (c *Chain) Verify(genesis *ledger.ShardedStore) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var prev crypto.Digest
	var view *ledger.ShardedStore
	if genesis != nil {
		view = genesis.Snapshot()
	}
	for i, e := range c.entries {
		h := e.header
		if h.Round != uint64(i+1) {
			return fmt.Errorf("chain: height %d has round %d", i, h.Round)
		}
		if h.Prev != prev {
			return fmt.Errorf("chain: height %d breaks linkage", i)
		}
		txs, err := ledger.ReadTxs(e.txs)
		if err != nil {
			return fmt.Errorf("chain: height %d body: %w", i, err)
		}
		if h.TxRoot != TxRootOf(txs) {
			return fmt.Errorf("chain: height %d tx root mismatch", i)
		}
		if h.TxCount != len(txs) {
			return fmt.Errorf("chain: height %d tx count mismatch", i)
		}
		if view != nil {
			var fees uint64
			for j, tx := range txs {
				fee, err := ledger.Validate(tx, view)
				if err != nil {
					id := tx.ID()
					return fmt.Errorf("chain: height %d tx %d (%x) replay: %w", i, j, id[:4], err)
				}
				if err := view.ApplyTx(tx); err != nil {
					return fmt.Errorf("chain: height %d apply: %w", i, err)
				}
				fees += fee
			}
			if fees != h.Fees {
				return fmt.Errorf("chain: height %d fees %d != declared %d", i, fees, h.Fees)
			}
		}
		prev = h.Hash()
	}
	return nil
}
