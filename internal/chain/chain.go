// Package chain stores the sequence of blocks the referee committee
// releases each round (§IV-G) and verifies its integrity: every block
// links to its predecessor by hash, rounds are consecutive, and the
// per-block transaction sets replay cleanly against a UTXO set.
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

// TxRootOf computes the transaction root: H over the ordered tx IDs.
func TxRootOf(txs []*ledger.Tx) crypto.Digest {
	parts := make([][]byte, 0, len(txs)+1)
	parts = append(parts, []byte("txroot"))
	for _, tx := range txs {
		id := tx.ID()
		parts = append(parts, id[:])
	}
	return crypto.H(parts...)
}

// Entry is one stored block: header plus body.
type Entry struct {
	Header Header
	Txs    []*ledger.Tx
}

// Chain is an append-only verified block store. Safe for concurrent use.
type Chain struct {
	mu      sync.RWMutex
	entries []Entry
}

// New returns an empty chain.
func New() *Chain { return &Chain{} }

// Append verifies and stores the next block: the round must follow the
// tip, the prev hash must match the tip's hash, and the declared tx root
// must cover the body.
func (c *Chain) Append(round uint64, randomness crypto.Digest, fees uint64, txs []*ledger.Tx) (Header, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var prev crypto.Digest
	nextRound := uint64(1)
	if len(c.entries) > 0 {
		tip := c.entries[len(c.entries)-1].Header
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
	c.entries = append(c.entries, Entry{Header: h, Txs: txs})
	return h, nil
}

// Len returns the chain height.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// At returns the entry at height i (0-based).
func (c *Chain) At(i int) (Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i < 0 || i >= len(c.entries) {
		return Entry{}, false
	}
	return c.entries[i], true
}

// Verify re-checks the whole chain: linkage, round numbering, tx roots,
// and (when a genesis UTXO snapshot is supplied) transaction replay.
func (c *Chain) Verify(genesis *ledger.ShardedStore) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var prev crypto.Digest
	var view *ledger.ShardedStore
	if genesis != nil {
		view = genesis.Snapshot()
	}
	for i, e := range c.entries {
		if e.Header.Round != uint64(i+1) {
			return fmt.Errorf("chain: height %d has round %d", i, e.Header.Round)
		}
		if e.Header.Prev != prev {
			return fmt.Errorf("chain: height %d breaks linkage", i)
		}
		if e.Header.TxRoot != TxRootOf(e.Txs) {
			return fmt.Errorf("chain: height %d tx root mismatch", i)
		}
		if e.Header.TxCount != len(e.Txs) {
			return fmt.Errorf("chain: height %d tx count mismatch", i)
		}
		if view != nil {
			var fees uint64
			for _, tx := range e.Txs {
				fee, err := ledger.Validate(tx, view)
				if err != nil {
					return fmt.Errorf("chain: height %d tx replay: %w", i, err)
				}
				if err := view.ApplyTx(tx); err != nil {
					return fmt.Errorf("chain: height %d apply: %w", i, err)
				}
				fees += fee
			}
			if fees != e.Header.Fees {
				return fmt.Errorf("chain: height %d fees %d != declared %d", i, fees, e.Header.Fees)
			}
		}
		prev = e.Header.Hash()
	}
	return nil
}
