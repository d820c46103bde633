package consensus

import (
	"crypto/subtle"
	"fmt"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// Bitmap records which roster members contributed to an aggregate
// certificate, one bit per roster position (bit i of byte i/8, LSB first).
// The canonical form is exact: len = ⌈n/8⌉ with every bit at position ≥ n
// zero. Validate enforces this, so a bitmap structurally cannot name a
// voter twice or a voter outside the roster — the two attacks VerifyCert
// has to reject by bookkeeping.
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
// each contributor's message from its roster position via msgAt.
type AggregateScheme interface {
	// Aggregate folds the given signatures into one constant-size proof.
	// The order must match the ascending roster positions of the
	// contributors' bitmap bits.
	Aggregate(sigs [][]byte) ([]byte, error)
	// VerifyAggregate checks proof against the contributors named by
	// bitmap: for each set bit i, roster[i] is taken to have signed the
	// message parts msgAt(i). The bitmap must already be canonical for
	// len(roster) (see Bitmap.Validate); VerifyAggregate itself imposes no
	// quorum rule — thresholds belong to the certificate layer.
	VerifyAggregate(roster []crypto.PublicKey, bitmap Bitmap, msgAt func(i int) [][]byte, proof []byte) error
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
func (HashScheme) VerifyAggregate(roster []crypto.PublicKey, bitmap Bitmap, msgAt func(i int) [][]byte, proof []byte) error {
	if len(proof) != crypto.HashSize {
		return crypto.ErrBadSignature
	}
	var acc [crypto.HashSize]byte
	for i := range roster {
		if !bitmap.Has(i) {
			continue
		}
		d := crypto.HKeyed(roster[i], msgAt(i)...)
		for j := range acc {
			acc[j] ^= d[j]
		}
	}
	if subtle.ConstantTimeCompare(proof, acc[:]) != 1 {
		return crypto.ErrBadSignature
	}
	return nil
}

// AggResult is the aggregate form of a decision certificate: the same
// instance header and payload as Result, but the >C/2 per-voter Confirm
// list collapsed into one voter bitmap (over the committee roster order)
// plus one constant-size aggregate proof. Confirm echo evidence is not
// carried — third parties verify the aggregate against the roster, exactly
// as VerifyCert verifies the per-voter list.
type AggResult struct {
	Round   uint64
	SN      uint64
	Digest  crypto.Digest
	Payload any
	Bitmap  Bitmap
	Proof   []byte
}

// layout is constant in the committee size up to the ⌈C/8⌉-byte bitmap.
func (ar AggResult) layout(c *wire.Coder) AggResult {
	c.U64(&ar.Round)
	c.U64(&ar.SN)
	wire.Hash(c, &ar.Digest)
	c.Any(&ar.Payload)
	c.Bytes((*[]byte)(&ar.Bitmap))
	c.Bytes(&ar.Proof)
	return ar
}

// FoldVoters is the fold behind every aggregate certificate: n voters, the
// k-th being voter(k)'s (member, signature), become a bitmap over the roster
// order plus one aggregate proof of the signatures, taken in ascending
// roster position per the Aggregate contract. A voter outside the roster,
// or one already marked (dup), is handed to reject: a non-nil error aborts
// the fold, nil skips the voter.
func FoldVoters(scheme AggregateScheme, roster []simnet.NodeID, n int, voter func(k int) (simnet.NodeID, []byte), reject func(id simnet.NodeID, dup bool) error) (Bitmap, []byte, error) {
	pos := rosterIndex(roster)
	bm := NewBitmap(len(roster))
	byPos := make([][]byte, len(roster))
	for k := 0; k < n; k++ {
		id, sig := voter(k)
		i, member := pos[id]
		if !member || bm.Has(i) {
			if err := reject(id, member); err != nil {
				return nil, nil, err
			}
			continue
		}
		bm.Set(i)
		byPos[i] = sig
	}
	sigs := byPos[:0]
	for i, sig := range byPos {
		if bm.Has(i) {
			sigs = append(sigs, sig)
		}
	}
	proof, err := scheme.Aggregate(sigs)
	if err != nil {
		return nil, nil, err
	}
	return bm, proof, nil
}

// AggregateResult folds a per-voter certificate into aggregate form. The
// committee slice fixes the bitmap's bit order; a confirmer outside the
// committee or listed twice is an error. The input certificate is not
// otherwise verified — callers aggregate certificates their own consensus
// instance produced.
func AggregateResult(scheme AggregateScheme, res Result, committee []simnet.NodeID) (AggResult, error) {
	bm, proof, err := FoldVoters(scheme, committee, len(res.Confirms),
		func(k int) (simnet.NodeID, []byte) { return res.Confirms[k].Confirmer, res.Confirms[k].Sig },
		func(id simnet.NodeID, dup bool) error {
			if dup {
				return fmt.Errorf("consensus: aggregate: duplicate confirmer %d", id)
			}
			return fmt.Errorf("consensus: aggregate: confirmer %d not in committee", id)
		})
	if err != nil {
		return AggResult{}, err
	}
	return AggResult{
		Round:   res.Round,
		SN:      res.SN,
		Digest:  res.Digest,
		Payload: res.Payload,
		Bitmap:  bm,
		Proof:   proof,
	}, nil
}

// VerifyAggCert is the aggregate counterpart of VerifyCert: the bitmap must
// be canonical for the committee, name strictly more than half of it, and
// the proof must verify as the named members' Confirm signatures on the
// decided digest. Accepts exactly the voter sets VerifyCert accepts — the
// per-voter path is kept as the equivalence oracle (see aggregate tests).
func VerifyAggCert(scheme AggregateScheme, ar AggResult, committee []simnet.NodeID, pkOf func(simnet.NodeID) crypto.PublicKey) error {
	if err := ar.Bitmap.Validate(len(committee)); err != nil {
		return err
	}
	if n := ar.Bitmap.Count(); !Majority(n, len(committee)) {
		return fmt.Errorf("consensus: %d aggregate confirms is not a majority of %d", n, len(committee))
	}
	roster := make([]crypto.PublicKey, len(committee))
	for i, id := range committee {
		roster[i] = pkOf(id)
	}
	msgAt := func(i int) [][]byte {
		return [][]byte{sigMsg(TagConfirm, ar.Round, ar.SN, ar.Digest, int32(committee[i]))}
	}
	if err := scheme.VerifyAggregate(roster, ar.Bitmap, msgAt, ar.Proof); err != nil {
		return fmt.Errorf("consensus: aggregate confirm proof: %w", err)
	}
	return nil
}

// Certificate is a committee's >C/2 Algorithm 3 decision certificate as a
// third party (the referee committee, a remote leader) sees it: the decided
// instance and payload plus whatever evidence lets it be checked against the
// committee roster. Result carries one Confirm per voter, AggResult one voter
// bitmap plus one aggregate proof; carriers hold either without knowing
// which, and a receiver accepts whichever form verifies.
type Certificate interface {
	// Instance returns the decided instance's header: round, sequence
	// number and payload digest.
	Instance() (round, sn uint64, digest crypto.Digest)
	// Decided returns the decided payload.
	Decided() any
	// Verify checks the certificate against the committee roster under the
	// given scheme: strictly more than half of the committee, each member
	// at most once, every signature valid on the decided digest.
	Verify(scheme SignatureScheme, committee []simnet.NodeID, pkOf func(simnet.NodeID) crypto.PublicKey) error
}

// Instance implements Certificate.
func (r Result) Instance() (round, sn uint64, digest crypto.Digest) {
	return r.Round, r.SN, r.Digest
}

// Decided implements Certificate.
func (r Result) Decided() any { return r.Payload }

// Verify implements Certificate via VerifyCert.
func (r Result) Verify(scheme SignatureScheme, committee []simnet.NodeID, pkOf func(simnet.NodeID) crypto.PublicKey) error {
	return VerifyCert(scheme, r, committee, pkOf)
}

// Instance implements Certificate.
func (ar AggResult) Instance() (round, sn uint64, digest crypto.Digest) {
	return ar.Round, ar.SN, ar.Digest
}

// Decided implements Certificate.
func (ar AggResult) Decided() any { return ar.Payload }

// Verify implements Certificate via VerifyAggCert. Under a scheme with no
// aggregate face the certificate cannot be checked, which is an error like
// any other failed verification.
func (ar AggResult) Verify(scheme SignatureScheme, committee []simnet.NodeID, pkOf func(simnet.NodeID) crypto.PublicKey) error {
	as, ok := scheme.(AggregateScheme)
	if !ok {
		return fmt.Errorf("consensus: aggregate certificate under %T, which cannot verify aggregates", scheme)
	}
	return VerifyAggCert(as, ar, committee, pkOf)
}
