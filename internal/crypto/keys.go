package crypto

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
)

// PublicKey identifies a node. It is an Ed25519 public key.
type PublicKey []byte

// SecretKey is the matching Ed25519 private key.
type SecretKey []byte

// KeyPair bundles a node's identity keys.
type KeyPair struct {
	PK PublicKey
	SK SecretKey
}

// String renders a short hex prefix of the public key, convenient in logs.
func (pk PublicKey) String() string {
	if len(pk) == 0 {
		return "pk:empty"
	}
	n := 8
	if len(pk) < n {
		n = len(pk)
	}
	return "pk:" + hex.EncodeToString(pk[:n])
}

// Equal reports whether two public keys are identical.
func (pk PublicKey) Equal(other PublicKey) bool {
	return bytes.Equal(pk, other)
}

// Less imposes a total order on public keys (lexicographic), used to build
// canonical member lists for semi-commitments.
func (pk PublicKey) Less(other PublicKey) bool {
	return bytes.Compare(pk, other) < 0
}

// GenerateKeyPair creates an Ed25519 key pair from the given deterministic
// source. Using math/rand keeps whole-protocol simulations reproducible from
// a single seed; this is a simulation substrate, not a production wallet.
func GenerateKeyPair(rng *rand.Rand) KeyPair {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	sk := ed25519.NewKeyFromSeed(seed)
	pk := sk.Public().(ed25519.PublicKey)
	return KeyPair{PK: PublicKey(pk), SK: SecretKey(sk)}
}

// ErrBadSignature is returned when signature verification fails.
var ErrBadSignature = errors.New("crypto: signature verification failed")

// Sign produces an Ed25519 signature over the injective encoding of parts.
func Sign(sk SecretKey, parts ...[]byte) []byte {
	d := H(parts...)
	return ed25519.Sign(ed25519.PrivateKey(sk), d[:])
}

// Verify checks an Ed25519 signature produced by Sign.
func Verify(pk PublicKey, sig []byte, parts ...[]byte) error {
	if len(pk) != ed25519.PublicKeySize {
		return fmt.Errorf("crypto: bad public key length %d", len(pk))
	}
	d := H(parts...)
	if !ed25519.Verify(ed25519.PublicKey(pk), d[:], sig) {
		return ErrBadSignature
	}
	return nil
}
