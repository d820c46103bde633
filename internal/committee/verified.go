package committee

import (
	"crypto/ed25519"
	"sync"

	"cycledger/internal/crypto"
)

// proofKey is a sortition record's exact bytes, pk ‖ hash ‖ proof — what
// crypto.VRFVerify reads of it. Two records that differ in any bit of the
// three have different keys.
type proofKey [ed25519.PublicKeySize + crypto.HashSize + ed25519.SignatureSize]byte

// VerifiedSet holds the sortition records that have passed
// crypto.VRFVerify under one sortition context (round, randomness).
// Verification is a pure function of the record's bytes and that context,
// so a member of the set need not be verified again — by the endpoint
// that verified it, or by any other endpoint of the same context in the
// same process. Only successes are kept: a record that fails is verified
// afresh every time it is shown and never occupies memory, so the set
// holds one entry per distinct valid proof of its round and nothing an
// adversary can forge. It is safe for concurrent use.
type VerifiedSet struct {
	round      uint64
	randomness crypto.Digest
	input      []byte // crypto.SortitionInput(round, randomness), built once

	mu sync.RWMutex
	ok map[proofKey]struct{}
}

// NewVerifiedSet returns an empty set for one round's sortition context.
func NewVerifiedSet(round uint64, randomness crypto.Digest) *VerifiedSet {
	return &VerifiedSet{
		round:      round,
		randomness: randomness,
		input:      crypto.SortitionInput(round, randomness),
		ok:         make(map[proofKey]struct{}),
	}
}

// Len returns how many distinct records have been verified. Each cost one
// full verification (two endpoints that first see a record at the same
// instant may each pay for it).
func (v *VerifiedSet) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.ok)
}

// verify reports whether rec carries a valid sortition proof for the
// set's context: by lookup when these exact bytes verified before, by
// crypto.VRFVerify otherwise. A record whose key or proof has the wrong
// length has no key and goes to VRFVerify, which rejects it.
func (v *VerifiedSet) verify(rec MemberRecord) bool {
	var k proofKey
	keyed := len(rec.PK) == ed25519.PublicKeySize && len(rec.Proof) == ed25519.SignatureSize
	if keyed {
		n := copy(k[:], rec.PK)
		n += copy(k[n:], rec.Hash[:])
		copy(k[n:], rec.Proof)
		v.mu.RLock()
		_, hit := v.ok[k]
		v.mu.RUnlock()
		if hit {
			return true
		}
	}
	out := crypto.VRFOutput{Hash: rec.Hash, Proof: rec.Proof}
	if crypto.VRFVerify(rec.PK, v.input, out) != nil {
		return false
	}
	if keyed {
		v.mu.Lock()
		v.ok[k] = struct{}{}
		v.mu.Unlock()
	}
	return true
}
