package consensus

import (
	"math/rand"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// TestUnknownSignersRefused: a carried roster may name any ID, and the PKI
// has no key for one outside the population. HashScheme accepts the tag
// under the nil key, which anyone can compute, so a certificate whose
// voters are all outsiders, signed that way, must be refused by the PKI in
// either form — while the population's own certificate still verifies.
func TestUnknownSignersRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	population := make([]crypto.KeyPair, 4)
	keys := make([]crypto.PublicKey, len(population))
	for i := range population {
		population[i] = crypto.GenerateKeyPair(rng)
		keys[i] = population[i].PK
	}
	pki := NewPKI(HashScheme{}, keys)
	res := Result{Round: 2, SN: 5, Digest: crypto.HString("forged")}
	sign := func(roster []simnet.NodeID, kpOf func(simnet.NodeID) crypto.KeyPair) Result {
		r := res
		for _, id := range roster {
			conf := Confirm{Round: r.Round, SN: r.SN, Digest: r.Digest, Confirmer: id}
			r.Quorum.Votes = append(r.Quorum.Votes, Vote{Voter: id, Sig: HashScheme{}.Sign(kpOf(id), wire.SigningBytes(nil, conf))})
		}
		return r
	}
	members := []simnet.NodeID{0, 1, 2}
	outsiders := []simnet.NodeID{-1, 4, 1 << 30}
	genuine := sign(members, func(id simnet.NodeID) crypto.KeyPair { return population[id] })
	forged := sign(outsiders, func(simnet.NodeID) crypto.KeyPair { return crypto.KeyPair{} })
	for _, id := range outsiders {
		if pk := pki.PK(id); pk != nil {
			t.Fatalf("PK(%d) = %x for an ID outside the population", id, pk)
		}
	}
	first := Confirm{Round: res.Round, SN: res.SN, Digest: res.Digest, Confirmer: outsiders[0]}
	if (HashScheme{}).Verify(nil, forged.Quorum.Votes[0].Sig, wire.SigningBytes(nil, first)) != nil {
		t.Fatal("the scheme refuses a tag under the nil key; the forgery below proves nothing")
	}
	for _, form := range []string{"per-voter", "aggregate"} {
		t.Run(form, func(t *testing.T) {
			genuine, forged := genuine, forged
			if form == "aggregate" {
				var err error
				if genuine, err = AggregateResult(HashScheme{}, genuine, members); err != nil {
					t.Fatal(err)
				}
				if forged, err = AggregateResult(HashScheme{}, forged, outsiders); err != nil {
					t.Fatal(err)
				}
			}
			if err := genuine.Verify(pki, members); err != nil {
				t.Fatalf("the population's certificate is refused: %v", err)
			}
			if err := forged.Verify(pki, outsiders); err == nil {
				t.Fatal("a certificate signed under the nil key by three IDs outside the population verifies")
			}
		})
	}
}

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
