package consensus

import (
	"math/rand"
	"testing"

	"cycledger/internal/crypto"
)

// TestHashSchemeSigLengths covers the malformed-signature edge cases of the
// constant-time verifier: truncated, oversized, empty, and bit-flipped tags
// must all be rejected, and a genuine tag must verify.
func TestHashSchemeSigLengths(t *testing.T) {
	s := HashScheme{}
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(1)))
	msg := sigMsg(TagPropose, 7, 3, crypto.HString("payload"), -1)

	sig := s.Sign(kp, msg)
	if len(sig) != crypto.HashSize {
		t.Fatalf("signature length %d, want %d", len(sig), crypto.HashSize)
	}
	if err := s.Verify(kp.PK, sig, msg); err != nil {
		t.Fatalf("genuine signature rejected: %v", err)
	}
	if err := s.Verify(kp.PK, sig[:len(sig)-1], msg); err == nil {
		t.Fatal("truncated signature accepted")
	}
	if err := s.Verify(kp.PK, append(append([]byte(nil), sig...), 0), msg); err == nil {
		t.Fatal("oversized signature accepted")
	}
	if err := s.Verify(kp.PK, nil, msg); err == nil {
		t.Fatal("empty signature accepted")
	}
	flipped := append([]byte(nil), sig...)
	flipped[0] ^= 0x80
	if err := s.Verify(kp.PK, flipped, msg); err == nil {
		t.Fatal("bit-flipped signature accepted")
	}
	other := crypto.GenerateKeyPair(rand.New(rand.NewSource(2)))
	if err := s.Verify(other.PK, sig, msg); err == nil {
		t.Fatal("signature verified under a different key")
	}
}

// TestSigMsgInjective spot-checks the fixed-width encoding: distinct
// instances, digests, and signer fields must produce distinct messages.
func TestSigMsgInjective(t *testing.T) {
	d1, d2 := crypto.HString("a"), crypto.HString("b")
	base := sigMsg(TagConfirm, 1, 2, d1, 3)
	for name, other := range map[string][]byte{
		"different round":  sigMsg(TagConfirm, 9, 2, d1, 3),
		"different sn":     sigMsg(TagConfirm, 1, 9, d1, 3),
		"different digest": sigMsg(TagConfirm, 1, 2, d2, 3),
		"different node":   sigMsg(TagConfirm, 1, 2, d1, 9),
		"different tag":    sigMsg(TagEcho, 1, 2, d1, 3),
	} {
		if string(base) == string(other) {
			t.Fatalf("sigMsg collides on %s", name)
		}
	}
	withNode := sigMsg(TagPropose, 1, 2, d1, 0)
	without := sigMsg(TagPropose, 1, 2, d1, -1)
	if string(withNode) == string(without) {
		t.Fatal("sigMsg collides on present-vs-absent node field")
	}
}
