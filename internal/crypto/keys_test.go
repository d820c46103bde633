package crypto

import (
	"math/rand"
	"testing"
)

func TestGenerateKeyPairDeterministic(t *testing.T) {
	a := GenerateKeyPair(rand.New(rand.NewSource(1)))
	b := GenerateKeyPair(rand.New(rand.NewSource(1)))
	if !a.PK.Equal(b.PK) {
		t.Fatal("same seed produced different keys")
	}
	c := GenerateKeyPair(rand.New(rand.NewSource(2)))
	if a.PK.Equal(c.PK) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestSignVerify(t *testing.T) {
	kp := GenerateKeyPair(rand.New(rand.NewSource(3)))
	sig := Sign(kp.SK, []byte("hello"), []byte("world"))
	if err := Verify(kp.PK, sig, []byte("hello"), []byte("world")); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := Verify(kp.PK, sig, []byte("hello"), []byte("mars")); err == nil {
		t.Fatal("tampered message accepted")
	}
	other := GenerateKeyPair(rand.New(rand.NewSource(4)))
	if err := Verify(other.PK, sig, []byte("hello"), []byte("world")); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestVerifyBadKeyLength(t *testing.T) {
	if err := Verify(PublicKey{1, 2, 3}, nil, []byte("m")); err == nil {
		t.Fatal("short public key accepted")
	}
}

func TestPublicKeyOrdering(t *testing.T) {
	a := PublicKey{0, 1}
	b := PublicKey{0, 2}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("Less ordering broken")
	}
	if a.Less(a) {
		t.Fatal("Less is not irreflexive")
	}
}

func TestPublicKeyString(t *testing.T) {
	if PublicKey(nil).String() != "pk:empty" {
		t.Fatal("empty key string")
	}
	s := PublicKey{0xab, 0xcd}.String()
	if s != "pk:abcd" {
		t.Fatalf("short key string = %q", s)
	}
}
