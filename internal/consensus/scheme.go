// Package consensus implements Algorithm 3 of the CycLedger paper:
// inside-committee consensus. A leader PROPOSEs a message M with digest
// H(M); members ECHO the digest, with the leader's signature on it but not
// M itself (a member that sees the committee echo a digest it has no
// proposal for FETCHes M from an echoer); once a member observes identical
// ECHOes from more than half the committee and holds the PROPOSE, it sends
// a signed CONFIRM back to the leader; the leader decides when more than
// half the committee has confirmed, yielding a Quorum of signatures that
// certifies the decision to third parties (the referee committee, other
// leaders).
//
// A leader that equivocates — signs two different digests for the same
// (round, sequence-number) — is caught by any honest member who sees both,
// producing a self-incriminating witness (the pair of signed headers)
// that drives the leader re-selection procedure of §V-D.
package consensus

import (
	"crypto/subtle"
	"fmt"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

// PKI is the public-key infrastructure of §III-A: the run's signature scheme
// and every node's public key, indexed by NodeID. Immutable once built, it is
// read from any lane without a lock; a message names its signer by ID.
type PKI struct {
	Scheme SignatureScheme
	keys   []crypto.PublicKey
}

// NewPKI returns the directory in which node i's key is keys[i].
func NewPKI(scheme SignatureScheme, keys []crypto.PublicKey) *PKI {
	return &PKI{Scheme: scheme, keys: keys}
}

// PK returns id's public key, or nil for an ID outside the population.
func (p *PKI) PK(id simnet.NodeID) crypto.PublicKey {
	if id < 0 || int(id) >= len(p.keys) {
		return nil
	}
	return p.keys[id]
}

// Verify checks that sig is id's signature on msg. An ID with no key is
// refused before the scheme runs: HashScheme accepts the tag under a nil
// key, which anyone can compute.
func (p *PKI) Verify(id simnet.NodeID, sig []byte, msg []byte) error {
	if pk := p.PK(id); pk != nil {
		return p.Scheme.Verify(pk, sig, msg)
	}
	return fmt.Errorf("consensus: no key for signer %d", id)
}

// SignatureScheme abstracts message authentication so protocol-security
// tests can use real Ed25519 while large throughput simulations use a
// cheap, deterministic hash tag (unforgeable signatures are irrelevant to
// performance shape). msg is one message's signing bytes
// (wire.SigningBytes), the one thing any signature in the protocol covers.
// An implementation must not retain msg, in Sign or in Verify: a Protocol
// hands every call the same reused buffer.
type SignatureScheme interface {
	Sign(kp crypto.KeyPair, msg []byte) []byte
	Verify(pk crypto.PublicKey, sig []byte, msg []byte) error
}

// Ed25519Scheme signs with real Ed25519 keys.
type Ed25519Scheme struct{}

// Sign implements SignatureScheme.
func (Ed25519Scheme) Sign(kp crypto.KeyPair, msg []byte) []byte {
	return crypto.Sign(kp.SK, msg)
}

// Verify implements SignatureScheme.
func (Ed25519Scheme) Verify(pk crypto.PublicKey, sig []byte, msg []byte) error {
	return crypto.Verify(pk, sig, msg)
}

// HashScheme is the fast simulation scheme: tag = H(pk ‖ msg). It is
// verifiable by anyone who knows pk (everyone, in a simulation) and
// deterministic, but trivially forgeable — acceptable because adversarial
// behaviour in the simulator is driven by explicit behaviour flags, not by
// forged bytes.
type HashScheme struct{}

// Sign implements SignatureScheme. The tag is computed with crypto.HKeyed
// so prefixing the signer's key costs no [][]byte header allocation; the
// returned slice is the only allocation (it escapes into the message).
func (HashScheme) Sign(kp crypto.KeyPair, msg []byte) []byte {
	d := crypto.HKeyed(kp.PK, msg)
	return d[:]
}

// Verify implements SignatureScheme. A truncated, oversized, or mutated tag
// is rejected; the comparison is constant-time via crypto/subtle. (Timing
// side channels are irrelevant inside a simulation — adversaries here are
// behaviour flags, not observers — but ConstantTimeCompare costs the same
// as a manual loop and keeps the scheme honest if it ever escapes the lab.)
func (HashScheme) Verify(pk crypto.PublicKey, sig []byte, msg []byte) error {
	d := crypto.HKeyed(pk, msg)
	if subtle.ConstantTimeCompare(sig, d[:]) != 1 {
		return crypto.ErrBadSignature
	}
	return nil
}
