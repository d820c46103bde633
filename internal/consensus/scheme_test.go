package consensus

import (
	"math/rand"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/wire"
)

// TestHashSchemeSigLengths covers the malformed-signature edge cases of the
// constant-time verifier: truncated, oversized, empty, and bit-flipped tags
// must all be rejected, and a genuine tag must verify.
func TestHashSchemeSigLengths(t *testing.T) {
	s := HashScheme{}
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(1)))
	msg := wire.SigningBytes(nil, Propose{Round: 7, SN: 3, Digest: crypto.HString("payload")})

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

// TestSigningBytesInjective spot-checks what the three Algorithm 3 messages
// sign: distinct instances, digests and signers give distinct bytes, and so
// do two types whose fields are equal, told apart by their wire tags — while
// a proposal's payload, which its signed digest binds, changes nothing.
func TestSigningBytesInjective(t *testing.T) {
	d1, d2 := crypto.HString("a"), crypto.HString("b")
	base := wire.SigningBytes(nil, Confirm{Round: 1, SN: 2, Digest: d1, Confirmer: 3})
	for name, other := range map[string][]byte{
		"different round":  wire.SigningBytes(nil, Confirm{Round: 9, SN: 2, Digest: d1, Confirmer: 3}),
		"different sn":     wire.SigningBytes(nil, Confirm{Round: 1, SN: 9, Digest: d1, Confirmer: 3}),
		"different digest": wire.SigningBytes(nil, Confirm{Round: 1, SN: 2, Digest: d2, Confirmer: 3}),
		"different node":   wire.SigningBytes(nil, Confirm{Round: 1, SN: 2, Digest: d1, Confirmer: 9}),
		"a proposal":       wire.SigningBytes(nil, Propose{Round: 1, SN: 2, Digest: d1, Leader: 3}),
		"an echo":          wire.SigningBytes(nil, Echo{Round: 1, SN: 2, Digest: d1, Echoer: 3}),
	} {
		if string(base) == string(other) {
			t.Fatalf("signing bytes collide on %s", name)
		}
	}
	bare := wire.SigningBytes(nil, Propose{Round: 1, SN: 2, Digest: d1, Leader: 3})
	if full := wire.SigningBytes(nil, Propose{Round: 1, SN: 2, Digest: d1, Leader: 3, Payload: sealed{7}, Sig: []byte("s")}); string(bare) != string(full) {
		t.Fatal("a proposal's signing bytes cover its payload or its signature")
	}
	if len(bare) != len(base) || string(bare[2:]) != string(base[2:]) {
		t.Fatalf("a proposal and a confirm with equal fields differ beyond the tag: %x, %x", bare, base)
	}
}
