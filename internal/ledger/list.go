package ledger

import (
	"fmt"

	"cycledger/internal/wire"
)

// TxSlice walks a list of tagged transactions: a u32 count, then each
// transaction's frame. It is the one layout of a transaction list, the one
// a message carries and a chain entry stores. Reading decodes every entry
// into one slab of Tx structs, not one allocation each; the slab lives as
// long as any of its entries. Checking walks every entry through the one
// Tx of a single-entry slab.
func TxSlice(c *wire.Coder, p *[]*Tx) {
	var slab []Tx
	wire.Slice(c, p, 2, func(c *wire.Coder, tx **Tx) {
		if c.Reading() && *tx == nil {
			if slab == nil {
				slab = make([]Tx, len(*p))
			}
			*tx, slab = &slab[0], slab[1:]
		}
		wire.Field(c, tx)
	})
}

// CheckTxSlice is the check wire.Coder.Hold runs over a list: TxSlice, into
// a list it drops.
func CheckTxSlice(c *wire.Coder) {
	var txs []*Tx
	TxSlice(c, &txs)
}

// EncodeTxs returns the list encoding of txs (TxSlice) in an exactly-sized
// slice that holds no pointer.
func EncodeTxs(txs []*Tx) []byte { return wire.EncodeHeld(txs, TxSlice) }

// ReadTxs reads b, which must be exactly one list encoding, into fresh
// transactions that nothing else holds.
func ReadTxs(b []byte) ([]*Tx, error) {
	txs, n, err := wire.ReadHeld(b, TxSlice)
	switch {
	case err != nil:
		return nil, err
	case n != len(b):
		return nil, fmt.Errorf("ledger: a transaction list of %d bytes ends after %d", len(b), n)
	}
	return txs, nil
}
