package pvss

import (
	"encoding/binary"
	"math/big"
	"math/bits"

	"cycledger/internal/crypto"
)

// limbs is the fixed width of a group element: 12 × 64 = 768 bits, the
// Oakley prime's size. A narrower modulus is zero-extended, which
// Montgomery arithmetic with R = 2^768 handles for every odd p < R, so the
// tiny test groups run the same code as the default one.
const limbs = 12

// fe is a group element in Montgomery form: the residue x·R mod p with
// R = 2^768, little-endian limbs. An fe is always fully reduced (< p), so
// == on two fe is equality of the residues they stand for.
type fe [limbs]uint64

// mont is the arithmetic modulo one odd prime p < 2^768.
type mont struct {
	p       fe       // the modulus
	n0      uint64   // −p⁻¹ mod 2^64
	one, r2 fe       // R mod p (the element 1) and R² mod p
	modulus *big.Int // p again, for enter's reduction
}

// newMont prepares arithmetic modulo p. It panics on a modulus Montgomery
// reduction cannot serve (even, non-positive) or that does not fit an fe;
// newGroup is fed constants, so only a bug gets here.
func newMont(p *big.Int) *mont {
	if p.Sign() <= 0 || p.Bit(0) == 0 || p.BitLen() > 64*limbs {
		panic("pvss: modulus must be odd, positive and at most 768 bits")
	}
	m := &mont{p: toLimbs(p), modulus: p}
	// Newton's iteration doubles the correct low bits of p⁻¹ mod 2^64
	// each step, starting from the 3 that p·p ≡ 1 (mod 8) gives.
	inv := m.p[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - m.p[0]*inv
	}
	m.n0 = -inv
	r := new(big.Int).Lsh(big.NewInt(1), 64*limbs)
	m.one = toLimbs(new(big.Int).Mod(r, p))
	m.r2 = toLimbs(r.Mod(r.Mul(r, r), p))
	return m
}

// toLimbs lays a non-negative integer below 2^768 out as limbs. It goes
// through FillBytes, not big.Word, so nothing depends on the word size.
func toLimbs(x *big.Int) (z fe) {
	var buf [8 * limbs]byte
	x.FillBytes(buf[:])
	for i := range z {
		z[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
	}
	return z
}

// fromLimbs is toLimbs' inverse.
func fromLimbs(z fe) *big.Int {
	var buf [8 * limbs]byte
	for i, w := range z {
		binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], w)
	}
	return new(big.Int).SetBytes(buf[:])
}

// useADX picks mul's backend once, at init: montMulADX (mont_amd64.s)
// where the host has BMI2 and ADX, else the Go loop mulGeneric. Every fe
// is fully reduced, so the two agree bit for bit. Tests swap it to run
// both on one host.
var useADX = crypto.HasADX()

// mul sets z = x·y·R⁻¹ mod p, the Montgomery product; z may alias x or y.
// The backends are called directly, not through a func value, so that x,
// y and z do not escape.
func (m *mont) mul(z, x, y *fe) {
	if useADX {
		montMulADX(z, x, y, &m.p, m.n0)
		return
	}
	m.mulGeneric(z, x, y)
}

// mulGeneric is mul in Go: the only backend off amd64 and montMulADX's
// oracle. Each limb of x takes one pass over the running sum t: add x[i]·y
// and the multiple q·p that clears t's low word, and drop that word. The
// Oakley prime's top limb is all ones, so t < 2p does not fit twelve
// words: the overflow is kept in a thirteenth (top, 0 or 1) and one
// conditional subtraction at the end brings t below p.
func (m *mont) mulGeneric(z, x, y *fe) {
	var t fe
	var top uint64
	for i := 0; i < limbs; i++ {
		xi := x[i]
		// Word 0 fixes q; c1 and c2 carry x[i]·y and q·p up the pass.
		// A carry is folded in with Add64(hi, 0, c), which compiles to
		// one add-with-carry where hi += c does not.
		c1, lo := bits.Mul64(xi, y[0])
		lo, c := bits.Add64(lo, t[0], 0)
		c1, _ = bits.Add64(c1, 0, c)
		q := lo * m.n0
		c2, pl := bits.Mul64(q, m.p[0])
		_, c = bits.Add64(pl, lo, 0)
		c2, _ = bits.Add64(c2, 0, c)
		for j := 1; j < limbs; j++ {
			hi, lo := bits.Mul64(xi, y[j])
			lo, c = bits.Add64(lo, c1, 0)
			hi, _ = bits.Add64(hi, 0, c)
			lo, c = bits.Add64(lo, t[j], 0)
			c1, _ = bits.Add64(hi, 0, c)
			hi, pl = bits.Mul64(q, m.p[j])
			pl, c = bits.Add64(pl, c2, 0)
			hi, _ = bits.Add64(hi, 0, c)
			t[j-1], c = bits.Add64(pl, lo, 0)
			c2, _ = bits.Add64(hi, 0, c)
		}
		s, c := bits.Add64(c1, c2, 0)
		t[limbs-1], top = bits.Add64(s, top, 0)
		top += c
	}
	var d fe
	var borrow uint64
	for j := range d {
		d[j], borrow = bits.Sub64(t[j], m.p[j], borrow)
	}
	if top != 0 || borrow == 0 {
		t = d
	}
	*z = t
}

// enter brings any integer into Montgomery form. A negative value or one
// at or above p is first reduced to its residue in [0, p), which is how
// big.Int.Exp reads such a base.
func (m *mont) enter(x *big.Int) fe {
	if x.Sign() < 0 || x.Cmp(m.modulus) >= 0 {
		x = new(big.Int).Mod(x, m.modulus)
	}
	z := toLimbs(x)
	m.mul(&z, &z, &m.r2)
	return z
}

// leave returns the residue x stands for, in [0, p).
func (m *mont) leave(x *fe) *big.Int {
	z := fe{1}
	m.mul(&z, x, &z)
	return fromLimbs(z)
}

// pow returns x^e for e ≥ 0 by left-to-right square-and-multiply. x^0 is 1
// for every x, zero included, as big.Int.Exp has it.
func (m *mont) pow(x fe, e *big.Int) fe {
	acc := m.one
	for i := e.BitLen() - 1; i >= 0; i-- {
		m.mul(&acc, &acc, &acc)
		if e.Bit(i) != 0 {
			m.mul(&acc, &acc, &x)
		}
	}
	return acc
}
