package consensus

import (
	"crypto/subtle"
	"fmt"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

// Bitmap records which roster members contributed to an aggregate
// certificate, one bit per roster position (bit i of byte i/8, LSB first).
// The canonical form is exact: len = ⌈n/8⌉ with every bit at position ≥ n
// zero. Validate enforces this, so a bitmap structurally cannot name a
// voter twice or a voter outside the roster — the two attacks a per-voter
// Quorum has to be checked for by bookkeeping.
type Bitmap []byte

// NewBitmap returns an empty canonical bitmap for an n-member roster.
func NewBitmap(n int) Bitmap {
	return make(Bitmap, (n+7)/8)
}

// Set marks roster position i. It panics if i is outside the bitmap,
// matching slice-index semantics.
func (b Bitmap) Set(i int) {
	b[i/8] |= 1 << (i % 8)
}

// Has reports whether roster position i is marked. Positions outside the
// bitmap read as false.
func (b Bitmap) Has(i int) bool {
	if i < 0 || i/8 >= len(b) {
		return false
	}
	return b[i/8]&(1<<(i%8)) != 0
}

// Count returns the number of marked positions.
func (b Bitmap) Count() int {
	n := 0
	for _, x := range b {
		for ; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}

// Validate checks the canonical-form invariant against an n-member roster:
// exact length ⌈n/8⌉ and no stray bits at positions ≥ n. Certificates with
// non-canonical bitmaps are rejected before any cryptography runs.
func (b Bitmap) Validate(n int) error {
	if len(b) != (n+7)/8 {
		return fmt.Errorf("consensus: bitmap length %d for %d-member roster (want %d)", len(b), n, (n+7)/8)
	}
	if r := n % 8; r != 0 && len(b) > 0 {
		if b[len(b)-1]&^(byte(1)<<r-1) != 0 {
			return fmt.Errorf("consensus: bitmap has bits set beyond roster size %d", n)
		}
	}
	return nil
}

// Clone returns an independent copy of the bitmap.
func (b Bitmap) Clone() Bitmap {
	if b == nil {
		return nil
	}
	out := make(Bitmap, len(b))
	copy(out, b)
	return out
}

// AggregateScheme is the multi-signature face of a signature scheme: many
// per-voter signatures over per-voter messages fold into one constant-size
// proof, verified against the roster's public keys and a voter bitmap. The
// interface is shaped so a pairing-based scheme (BLS à la blscosi) can drop
// in: Aggregate needs only the signatures, and VerifyAggregate reconstructs
// each contributor's message from its ID via msgAt.
type AggregateScheme interface {
	SignatureScheme
	// Aggregate folds the given signatures into one constant-size proof.
	// The order must match the ascending roster positions of the
	// contributors' bitmap bits.
	Aggregate(sigs [][]byte) ([]byte, error)
	// VerifyAggregate checks proof against the contributors named by
	// bitmap: for each set bit i, roster[i] is taken to have signed
	// msgAt(roster[i]) under its key in pki. The bitmap must already be
	// canonical for len(roster) (see Bitmap.Validate) and every roster
	// member must have a key; VerifyAggregate itself imposes no quorum
	// rule — thresholds belong to the certificate layer.
	VerifyAggregate(pki *PKI, roster []simnet.NodeID, bitmap Bitmap, msgAt func(voter simnet.NodeID) []byte, proof []byte) error
}

// Aggregate implements AggregateScheme: the proof is the XOR fold of the
// 32-byte HashScheme tags. Because VerifyAggregate recomputes each named
// contributor's tag from (pk, message) and the bitmap fixes the contributor
// set exactly once each, XOR's self-cancellation (t ⊕ t = 0) gives an
// adversary no freedom: the only proof accepted for a given bitmap is the
// fold of the genuine tags. Same trust model as HashScheme itself —
// simulation-grade, trivially forgeable by anyone who knows the public
// keys, which in the simulator is everyone.
func (HashScheme) Aggregate(sigs [][]byte) ([]byte, error) {
	out := make([]byte, crypto.HashSize)
	for i, s := range sigs {
		if len(s) != crypto.HashSize {
			return nil, fmt.Errorf("consensus: aggregating signature %d: %d bytes, want %d", i, len(s), crypto.HashSize)
		}
		for j, b := range s {
			out[j] ^= b
		}
	}
	return out, nil
}

// VerifyAggregate implements AggregateScheme: recompute the HKeyed tag of
// every contributor named by the bitmap, XOR-fold them, and compare with
// the proof in constant time.
func (HashScheme) VerifyAggregate(pki *PKI, roster []simnet.NodeID, bitmap Bitmap, msgAt func(voter simnet.NodeID) []byte, proof []byte) error {
	if len(proof) != crypto.HashSize {
		return crypto.ErrBadSignature
	}
	var acc [crypto.HashSize]byte
	for i, id := range roster {
		if !bitmap.Has(i) {
			continue
		}
		d := crypto.HKeyed(pki.PK(id), msgAt(id))
		for j := range acc {
			acc[j] ^= d[j]
		}
	}
	if subtle.ConstantTimeCompare(proof, acc[:]) != 1 {
		return crypto.ErrBadSignature
	}
	return nil
}
