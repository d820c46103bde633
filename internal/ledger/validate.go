package ledger

import "errors"

// Validation errors, distinguishable so adversarial tests can assert on the
// exact rejection reason.
var (
	ErrEmptyTx        = errors.New("ledger: transaction has no inputs or no outputs")
	ErrMissingInput   = errors.New("ledger: input not found in UTXO set")
	ErrDoubleSpend    = errors.New("ledger: duplicate input within transaction")
	ErrInsufficient   = errors.New("ledger: inputs do not cover outputs")
	ErrZeroOutput     = errors.New("ledger: zero-valued output")
	ErrTooManyInOut   = errors.New("ledger: too many inputs or outputs")
	ErrOverflowOutput = errors.New("ledger: output sum overflows")
)

// MaxTxArity bounds inputs and outputs per transaction; protocol messages
// stay small and adversaries cannot craft quadratic-cost transactions.
const MaxTxArity = 128

// Validate is the authentication predicate V of §III-D: it checks that the
// transaction is well-formed, every input exists unspent in the view, no
// input is consumed twice, and the inputs cover the outputs. The fee
// (inputs − outputs) is returned on success. A rejection is one of the
// sentinel errors above, unwrapped, so it allocates nothing: members run
// Validate on every transaction they vote on and keep only the verdict.
func Validate(tx *Tx, view UTXOView) (fee uint64, err error) {
	if len(tx.Inputs) == 0 || len(tx.Outputs) == 0 {
		return 0, ErrEmptyTx
	}
	if len(tx.Inputs) > MaxTxArity || len(tx.Outputs) > MaxTxArity {
		return 0, ErrTooManyInOut
	}
	var inSum uint64
	seen := make(map[OutPoint]bool, len(tx.Inputs))
	for _, in := range tx.Inputs {
		if seen[in] {
			return 0, ErrDoubleSpend
		}
		seen[in] = true
		out, ok := view.Get(in)
		if !ok {
			return 0, ErrMissingInput
		}
		next := inSum + out.Amount
		if next < inSum {
			return 0, ErrOverflowOutput
		}
		inSum = next
	}
	var outSum uint64
	for _, o := range tx.Outputs {
		if o.Amount == 0 {
			return 0, ErrZeroOutput
		}
		next := outSum + o.Amount
		if next < outSum {
			return 0, ErrOverflowOutput
		}
		outSum = next
	}
	if inSum < outSum {
		return 0, ErrInsufficient
	}
	return inSum - outSum, nil
}

// ValidateBatch validates a list of transactions sequentially against a
// copy-on-write overlay of the base view, applying each valid one so
// intra-batch double spends are caught, without mutating (or deep-copying)
// the base. It returns the valid transactions, total fees, and a parallel
// slice of errors (nil for accepted transactions).
func ValidateBatch(txs []*Tx, base UTXOView) (valid []*Tx, fees uint64, errs []error) {
	view := NewOverlay(base)
	errs = make([]error, len(txs))
	for i, tx := range txs {
		fee, err := Validate(tx, view)
		if err != nil {
			errs[i] = err
			continue
		}
		if err := view.ApplyTx(tx); err != nil {
			errs[i] = err
			continue
		}
		valid = append(valid, tx)
		fees += fee
	}
	return valid, fees, errs
}
