package consensus

import (
	"fmt"
	"slices"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// Vote is one roster member's signature. What was signed is not repeated
// per vote: the message that carries the Quorum says it once, in its header.
type Vote struct {
	Voter simnet.NodeID
	Sig   []byte
}

// Quorum is the evidence that strictly more than half of a roster signed
// one message: a decision's confirmations, an impeachment's approvals. It
// has two forms. Per-voter: Votes lists each signer with its signature.
// Aggregate (Bitmap non-nil): the signers are a bitmap over the roster order
// and their signatures one constant-size Proof. Either way a Quorum names
// neither the roster nor the message; Verify is handed both by the carrier's
// receiver, so evidence gathered for one header proves nothing under another.
type Quorum struct {
	Votes  []Vote
	Bitmap Bitmap
	Proof  []byte
}

// layout opens with the form byte — 0 per-voter, 1 aggregate — which is how
// every carrier says which evidence it holds. A per-voter entry is the voter
// and its signature, 40 bytes under HashScheme.
func (q Quorum) layout(c *wire.Coder) Quorum {
	var form byte
	if q.Bitmap != nil {
		form = 1
	}
	c.U8(&form)
	switch form {
	case 0:
		wire.Slice(c, &q.Votes, 4+4, func(c *wire.Coder, v *Vote) {
			wire.ID(c, &v.Voter)
			c.Bytes(&v.Sig)
		})
	case 1:
		c.Bytes((*[]byte)(&q.Bitmap))
		if q.Bitmap == nil {
			// Non-nil even when empty: a non-nil Bitmap is what marks the
			// aggregate form, so the value re-encodes to this frame.
			q.Bitmap = Bitmap{}
		}
		c.Bytes(&q.Proof)
	default:
		c.Fail("quorum form")
	}
	return q
}

// Verify is the protocol's one >C/2 check: roster members only, each at most
// once, strictly more than half of them, and every signature valid under the
// voter's key in pki on msgAt(voter) — the signing bytes of the message the
// receiver rebuilds from the carrier's own header, never from the evidence.
// msgAt's result is used before the next call, so it may return the same
// reused buffer. An aggregate Quorum under a scheme with no aggregate face, or
// over a roster naming an ID pki has no key for, cannot be checked, which is
// an error like any other; its bitmap is validated against the roster first.
// A valid Quorum is checked without allocating.
func (q Quorum) Verify(pki *PKI, roster []simnet.NodeID, msgAt func(voter simnet.NodeID) []byte) error {
	if q.Bitmap == nil {
		if !Majority(len(q.Votes), len(roster)) {
			return fmt.Errorf("consensus: %d votes is not a majority of %d", len(q.Votes), len(roster))
		}
		for k := range q.Votes {
			if _, err := q.admit(roster, k); err != nil {
				return err
			}
		}
		for _, v := range q.Votes {
			if err := pki.Verify(v.Voter, v.Sig, msgAt(v.Voter)); err != nil {
				return fmt.Errorf("consensus: signature of voter %d: %w", v.Voter, err)
			}
		}
		return nil
	}
	as, ok := pki.Scheme.(AggregateScheme)
	if !ok {
		return fmt.Errorf("consensus: aggregate quorum under %T, which cannot verify aggregates", pki.Scheme)
	}
	if err := q.Bitmap.Validate(len(roster)); err != nil {
		return err
	}
	if n := q.Bitmap.Count(); !Majority(n, len(roster)) {
		return fmt.Errorf("consensus: %d aggregate votes is not a majority of %d", n, len(roster))
	}
	for _, id := range roster {
		if pki.PK(id) == nil {
			return fmt.Errorf("consensus: no key for roster member %d", id)
		}
	}
	if err := as.VerifyAggregate(pki, roster, q.Bitmap, msgAt, q.Proof); err != nil {
		return fmt.Errorf("consensus: aggregate proof: %w", err)
	}
	return nil
}

// admit checks the k-th vote's voter — a roster member, and not the voter
// of an earlier vote — and returns its position in roster. The roster may be
// one a message carried, so a voter is found by a scan, not in a table as
// long as its largest ID, and an earlier vote by a scan of the votes, which
// allocates nothing.
func (q Quorum) admit(roster []simnet.NodeID, k int) (int, error) {
	voter := q.Votes[k].Voter
	i := slices.Index(roster, voter)
	if i < 0 {
		return 0, fmt.Errorf("consensus: voter %d not in roster", voter)
	}
	if slices.ContainsFunc(q.Votes[:k], func(v Vote) bool { return v.Voter == voter }) {
		return 0, fmt.Errorf("consensus: duplicate voter %d", voter)
	}
	return i, nil
}

// Fold returns the aggregate form of a per-voter Quorum: a bitmap over the
// roster order plus one proof of the signatures, taken in ascending roster
// position per the Aggregate contract. A voter outside the roster or listed
// twice is an error. The signatures are not verified — a sender folds
// evidence it collected, and checked, itself. An aggregate Quorum is
// returned as it is. Besides the bitmap and the proof, Fold allocates one
// list of the votes' signatures, whatever the roster's length.
func (q Quorum) Fold(scheme AggregateScheme, roster []simnet.NodeID) (Quorum, error) {
	if q.Bitmap != nil {
		return q, nil
	}
	bm := NewBitmap(len(roster))
	for k := range q.Votes {
		i, err := q.admit(roster, k)
		if err != nil {
			return Quorum{}, err
		}
		bm.Set(i)
	}
	// Walk the seats taken in roster order, each to its one vote (admit
	// seated every voter at its first position).
	sigs := make([][]byte, 0, len(q.Votes))
	for i, id := range roster {
		if bm.Has(i) {
			k := slices.IndexFunc(q.Votes, func(v Vote) bool { return v.Voter == id })
			sigs = append(sigs, q.Votes[k].Sig)
		}
	}
	proof, err := scheme.Aggregate(sigs)
	if err != nil {
		return Quorum{}, err
	}
	return Quorum{Bitmap: bm, Proof: proof}, nil
}

// The four names below are the ones bench/cells.go verifies and folds a
// certificate by; they stay until a benchmark PR moves it to the methods.
// Each is the method it names, the two verifiers through pkiOver.

// AggResult is Result: one struct holds a certificate in either form.
type AggResult = Result

// VerifyCert is res.Verify, through a PKI of pkOf's keys for the committee.
func VerifyCert(scheme SignatureScheme, res Result, committee []simnet.NodeID, pkOf func(simnet.NodeID) crypto.PublicKey) error {
	return res.Verify(pkiOver(scheme, committee, pkOf), committee)
}

// VerifyAggCert is ar.Verify, as VerifyCert.
func VerifyAggCert(scheme AggregateScheme, ar AggResult, committee []simnet.NodeID, pkOf func(simnet.NodeID) crypto.PublicKey) error {
	return ar.Verify(pkiOver(scheme, committee, pkOf), committee)
}

// pkiOver is a PKI of pkOf's key for each committee member.
func pkiOver(scheme SignatureScheme, committee []simnet.NodeID, pkOf func(simnet.NodeID) crypto.PublicKey) *PKI {
	keys := make([]crypto.PublicKey, 0, len(committee))
	for _, id := range committee {
		if id >= 0 {
			keys = append(keys, make([]crypto.PublicKey, max(0, int(id)+1-len(keys)))...) // up to id
			keys[id] = pkOf(id)
		}
	}
	return NewPKI(scheme, keys)
}

// AggregateResult is res with its Quorum folded over the committee roster
// (Quorum.Fold).
func AggregateResult(scheme AggregateScheme, res Result, committee []simnet.NodeID) (AggResult, error) {
	q, err := res.Quorum.Fold(scheme, committee)
	res.Quorum = q
	return res, err
}
