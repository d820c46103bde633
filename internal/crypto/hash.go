// Package crypto provides the cryptographic substrate CycLedger relies on:
// a SHA-256 random-oracle helper H, an Ed25519 public-key infrastructure,
// signed message envelopes, a verifiable random function built from
// deterministic signatures, and the role lottery used to select referee
// committees and partial sets.
//
// Everything is built on the Go standard library, except the PoW search's
// eight-lane SHA-256 block kernel on amd64 hosts with AVX-512VL
// (search_amd64.s); SearchNonce runs on the standard library everywhere
// else.
//
// The arithmetic helpers on Digest (Mod, BelowTarget) and the Target type
// run on fixed [4]uint64 limbs via math/bits — no math/big, and therefore no
// heap allocation — because they sit on the simulator's per-candidate,
// per-attempt hot paths (shard assignment, the PoW search loop, the role
// lottery). The math/big reference forms they replaced live in hash_test.go
// as oracles; equivalence is enforced by tests.
package crypto

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/bits"
)

// HashSize is the byte length of the protocol hash H (SHA-256).
const HashSize = sha256.Size

// Digest is the output of the protocol's random oracle H.
type Digest [HashSize]byte

// H is the protocol's external random oracle: SHA-256 over the
// concatenation of the given byte strings, each prefixed with its length so
// the encoding is injective (no ambiguity between ("ab","c") and ("a","bc")).
func H(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// HKeyed is H with a distinguished first part: HKeyed(key, parts...) equals
// H(key, parts...) byte for byte, but avoids materialising the combined
// [][]byte header that `append([][]byte{key}, parts...)` would allocate.
// Per-message signing (consensus.HashScheme) uses it so tagging a message
// with the signer's key costs no steady-state allocation.
func HKeyed(key []byte, parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(key)))
	h.Write(lenBuf[:])
	h.Write(key)
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// SearchNonce returns the first n among start, start+1, … (wrapping) for
// which H(prefix..., be64(n)).BelowTarget(t) holds, trying at most max
// values; tried is how many it evaluated. The framed stream before the
// nonce's 8 value bytes is fixed, so it is absorbed once: on AVX-512VL
// (useAVX512) eight attempts share a pass of the block kernel, each
// compressing only the one or two padded final blocks; otherwise the
// standard library's midstate is snapshotted and resumed per attempt.
func SearchNonce(t Target, start, max uint64, prefix ...[]byte) (nonce, tried uint64, ok bool) {
	n := 8 + 8 + 1 + 8 // the nonce's frame and value, the 0x80 pad byte, the bit length
	for _, p := range prefix {
		n += 8 + len(p)
	}
	msg := make([]byte, 0, (n+63)&^63)
	for _, p := range prefix {
		msg = binary.BigEndian.AppendUint64(msg, uint64(len(p)))
		msg = append(msg, p...)
	}
	msg = binary.BigEndian.AppendUint64(msg, 8)
	if useAVX512 {
		return searchLanes(t, start, max, msg)
	}
	h := sha256.New().(interface {
		hash.Hash
		encoding.BinaryAppender
		encoding.BinaryUnmarshaler
	})
	h.Write(msg)
	// The snapshot and resume cannot fail: the hash reads back its own state.
	mid, err := h.AppendBinary(nil)
	if err != nil {
		panic("crypto: snapshotting SHA-256 midstate: " + err.Error())
	}
	var nb [8]byte
	sum := make([]byte, 0, HashSize)
	for i := uint64(0); i < max; i++ {
		if err := h.UnmarshalBinary(mid); err != nil {
			panic("crypto: resuming SHA-256 midstate: " + err.Error())
		}
		binary.BigEndian.PutUint64(nb[:], start+i)
		h.Write(nb[:])
		if Digest(h.Sum(sum[:0])).BelowTarget(t) {
			return start + i, i + 1, true
		}
	}
	return 0, max, false
}

// HString is a convenience wrapper hashing string parts.
func HString(parts ...string) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, s := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		h.Write([]byte(s))
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// Bytes returns the digest as a byte slice.
func (d Digest) Bytes() []byte { return d[:] }

// MarshalText writes the digest as lowercase hex, the form a report's JSON
// holds it in.
func (d Digest) MarshalText() ([]byte, error) { return hex.AppendEncode(nil, d[:]), nil }

// UnmarshalText reads the hex form MarshalText writes.
func (d *Digest) UnmarshalText(b []byte) error {
	if hex.DecodedLen(len(b)) != HashSize {
		return fmt.Errorf("crypto: digest of %d hex digits, want %d", len(b), 2*HashSize)
	}
	_, err := hex.Decode(d[:], b)
	return err
}

// Uint64 folds the first 8 bytes of the digest into an unsigned integer.
// It is used for "hash mod m" style committee assignment.
func (d Digest) Uint64() uint64 {
	return binary.BigEndian.Uint64(d[:8])
}

// Mod returns the digest interpreted as a 256-bit big-endian integer,
// reduced modulo m. m must be positive. The reduction chains bits.Div64
// across the four 64-bit limbs (allocation-free); a test proves equivalence
// with the math/big reference.
func (d Digest) Mod(m uint64) uint64 {
	if m == 0 {
		panic("crypto: Mod by zero")
	}
	var rem uint64
	for i := 0; i < HashSize; i += 8 {
		// rem < m always holds, so Div64's hi < y precondition is met.
		_, rem = bits.Div64(rem, binary.BigEndian.Uint64(d[i:i+8]), m)
	}
	return rem
}

// Target is a 256-bit comparison threshold as four big-endian uint64 limbs
// (limb 0 is the most significant). It replaces *big.Int targets on the hot
// comparison paths: the PoW puzzle search evaluates BelowTarget once per
// attempted nonce, and the role lottery once per candidate per role, so the
// threshold must compare without allocating.
type Target [4]uint64

// MaxTarget is the largest representable target (2^256 − 1); every digest
// satisfies BelowTarget(MaxTarget).
var MaxTarget = Target{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// IsZero reports whether the target accepts (essentially) nothing.
func (t Target) IsZero() bool {
	return t == Target{}
}

// BelowTarget returns whether the digest, read as a 256-bit big-endian
// integer, is at or below the target — the comparison used by both the PoW
// puzzle and the role lottery H(r+1 ‖ R ‖ PK ‖ role) ≤ d(role). It is a
// four-limb compare with no allocation.
func (d Digest) BelowTarget(t Target) bool {
	for i := 0; i < 4; i++ {
		limb := binary.BigEndian.Uint64(d[8*i : 8*i+8])
		if limb < t[i] {
			return true
		}
		if limb > t[i] {
			return false
		}
	}
	return true // equal
}

// IsZero reports whether the digest is all zeroes.
func (d Digest) IsZero() bool {
	for _, b := range d {
		if b != 0 {
			return false
		}
	}
	return true
}

// FractionTargetLimbs returns a target t such that a uniformly random
// digest satisfies d.BelowTarget(t) with probability num/den — the limb
// form of the math/big FractionTarget oracle (hash_test.go), computed by
// 320-bit long division (bits.Div64). Fractions ≥ 1 saturate to MaxTarget
// (accept all), so callers can pass FractionTargetLimbs(1, 1) for a trivial
// puzzle.
func FractionTargetLimbs(num, den uint64) Target {
	if den == 0 {
		panic("crypto: FractionTarget with zero denominator")
	}
	if num == 0 {
		return Target{}
	}
	if num >= den {
		// floor(2^256·num/den) − 1 ≥ 2^256 − 1: every digest passes.
		return MaxTarget
	}
	// Long-divide the 320-bit value num·2^256 (limbs [num,0,0,0,0]) by den.
	// num < den keeps the quotient within 256 bits.
	var t Target
	rem := num
	for i := range t {
		t[i], rem = bits.Div64(rem, 0, den)
	}
	// Subtract 1 (t > 0 here: num ≥ 1 guarantees a nonzero quotient) so the
	// acceptance probability is exactly num/den, matching FractionTarget.
	for i := 3; i >= 0; i-- {
		t[i]--
		if t[i] != ^uint64(0) {
			break // no borrow
		}
	}
	return t
}
