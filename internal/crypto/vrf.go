package crypto

import (
	"crypto/ed25519"
	"fmt"
)

// The paper's cryptographic sortition (Algorithm 1) needs a Verifiable
// Random Function: VRF_SK(α) → (hash, π) where anyone holding PK can check
// that hash was honestly derived from α, yet hash is pseudorandom to anyone
// without SK.
//
// We use the shape of the "VRF from unique signatures" construction
// (Micali-Rabin-Vadhan style): π = Sig_SK(α), hash = H(π). Verifiability is
// signature verification, and pseudorandomness of hash follows from
// modelling H as a random oracle. Uniqueness does not hold: it needs a
// signature scheme with one valid signature per (key, message), and Ed25519
// is not one. Go's Ed25519 signer is deterministic (RFC 8032), so an honest
// signer produces one proof per input, but verification accepts a signature
// made with any nonce. A key holder can therefore produce many valid
// (hash, π) pairs for one α and pick the one whose hash mod m seats it in
// the committee it wants (Algorithm 1). An RFC 9381 ECVRF, whose proof is
// unique, would close this; it is an open item in ROADMAP.md.

// VRFOutput carries the pseudorandom hash and the proof that certifies it.
type VRFOutput struct {
	Hash  Digest
	Proof []byte
}

// vrfDomain separates VRF signatures from ordinary protocol signatures so a
// leaked proof can never be replayed as a message signature.
var vrfDomain = []byte("cycledger/vrf/v1")

// VRFProve evaluates the VRF on input alpha.
func VRFProve(sk SecretKey, alpha []byte) VRFOutput {
	if len(sk) != ed25519.PrivateKeySize {
		panic(fmt.Sprintf("crypto: bad secret key length %d", len(sk)))
	}
	d := H(vrfDomain, alpha)
	proof := ed25519.Sign(ed25519.PrivateKey(sk), d[:])
	return VRFOutput{Hash: H(vrfDomain, proof), Proof: proof}
}

// VRFVerify checks that out certifies an honest VRF evaluation of alpha
// under pk. It returns nil on success.
func VRFVerify(pk PublicKey, alpha []byte, out VRFOutput) error {
	if len(pk) != ed25519.PublicKeySize {
		return fmt.Errorf("crypto: bad public key length %d", len(pk))
	}
	d := H(vrfDomain, alpha)
	if !ed25519.Verify(ed25519.PublicKey(pk), d[:], out.Proof) {
		return ErrBadSignature
	}
	if H(vrfDomain, out.Proof) != out.Hash {
		return fmt.Errorf("crypto: VRF hash does not match proof")
	}
	return nil
}
