package ledger

// UTXOView is read access to a set of unspent outputs.
type UTXOView interface {
	// Get returns the output at the given outpoint if it is unspent.
	Get(OutPoint) (Output, bool)
}
