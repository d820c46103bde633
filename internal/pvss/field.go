// Package pvss implements the distributed-randomness substrate CycLedger's
// referee committee uses (§IV-F cites SCRAPE): publicly verifiable secret
// sharing built from Shamir sharing over a prime-order group with Feldman
// commitments, plus a leaderless commit-reveal beacon protocol on top.
//
// As long as a majority of the referee committee is honest, the beacon
// output is unpredictable and unbiasable: every dealer is committed to its
// contribution before any secret is revealed, and honest-majority
// reconstruction recovers the contribution of any dealer who aborts after
// committing. These are exactly the properties §V-A relies on.
//
// The group is the order-q subgroup of quadratic residues modulo the
// 768-bit Oakley Group 1 safe prime (p = 2q+1), with generator g = 4. Share
// delivery is point-to-point over the simulated network, so share
// encryption (the "PV" layer of full SCRAPE) is replaced by the simulator's
// private channels; commitments and share verification are implemented in
// full.
package pvss

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
)

// Oakley Group 1 (RFC 2409) 768-bit safe prime: p = 2q + 1 with q prime.
const oakleyPrimeHex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74" +
	"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437" +
	"4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF"

// Group describes the prime-order subgroup used for commitments. A Group
// is immutable once built and safe for concurrent use.
type Group struct {
	P *big.Int // safe prime modulus
	Q *big.Int // subgroup order, (P-1)/2
	G *big.Int // generator of the order-Q subgroup (a quadratic residue)

	// comb is the fixed-base table Exp reads (see newGroup).
	comb []big.Int
	cols int
}

// combRows is the Lim–Lee comb's height: an exponent below Q is laid out
// as combRows rows of cols = ⌈|Q|/combRows⌉ bits, and the table holds the
// product of G^(2^(cols·i)) over every non-empty subset of rows. For the
// default group that is 8 × 96 and 255 entries of 96 bytes (≈ 33 KB with
// headers), after which G^e costs 96 squarings and at most 96
// multiplications where a square-and-multiply ladder needs 767 squarings.
const combRows = 8

// defaultGroup builds the one shared instance, and with it the one comb
// table a process holds.
var defaultGroup = sync.OnceValue(func() *Group {
	p, ok := new(big.Int).SetString(oakleyPrimeHex, 16)
	if !ok {
		panic("pvss: bad prime constant")
	}
	return newGroup(p, big.NewInt(4))
})

// DefaultGroup returns the package's standard group (Oakley 768, g = 4).
func DefaultGroup() *Group { return defaultGroup() }

// newGroup describes the order-(p-1)/2 subgroup generated by gen modulo the
// safe prime p and precomputes gen's comb table.
func newGroup(p, gen *big.Int) *Group {
	g := &Group{P: p, Q: new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1), G: gen}
	g.cols = (g.Q.BitLen() + combRows - 1) / combRows
	g.comb = make([]big.Int, 1<<combRows-1) // comb[u-1] for row subset u
	// One backing array for every entry, so the table is its 96-byte
	// residues and their headers and nothing else.
	words := len(p.Bits())
	back := make([]big.Word, len(g.comb)*words)
	put := func(u int, v *big.Int) {
		w := back[(u-1)*words : u*words : u*words]
		copy(w, v.Bits())
		g.comb[u-1].SetBits(w)
	}
	var s scratch
	row, entry := new(big.Int).Mod(gen, p), new(big.Int)
	for i := 0; i < combRows; i++ {
		// row = gen^(2^(cols·i)): the previous row squared cols times.
		for j := 0; i > 0 && j < g.cols; j++ {
			s.mulMod(row, row, row, p)
		}
		bit := 1 << i
		put(bit, row)
		for u := 1; u < bit; u++ {
			s.mulMod(entry, &g.comb[u-1], row, p)
			put(bit+u, entry)
		}
	}
	return g
}

// randScalar draws a uniform element of Z_q from the given deterministic
// source (simulation substrate — reproducibility over secrecy).
func (g *Group) randScalar(rng *rand.Rand) *big.Int {
	buf := make([]byte, (g.Q.BitLen()+15)/8)
	for {
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		x := new(big.Int).SetBytes(buf)
		x.Mod(x, g.Q)
		if x.Sign() > 0 {
			return x
		}
	}
}

// Exp returns g.G^e mod p for any integer e. G has order Q, so an exponent
// outside [0, Q) is first reduced mod Q. Column j of the comb gathers bit
// cols·i+j of e from every row i into one table index; walking the columns
// from the top, squaring once per column, rebuilds G^e.
func (g *Group) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 || e.Cmp(g.Q) >= 0 {
		e = new(big.Int).Mod(e, g.Q)
	}
	acc := big.NewInt(1)
	var s scratch
	for j := g.cols - 1; j >= 0; j-- {
		s.mulMod(acc, acc, acc, g.P)
		u := uint(0)
		for i := combRows - 1; i >= 0; i-- {
			u = u<<1 | e.Bit(i*g.cols+j)
		}
		if u != 0 {
			s.mulMod(acc, acc, &g.comb[u-1], g.P)
		}
	}
	return acc
}

// mulMod returns a*b mod m.
func mulMod(a, b, m *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), m)
}

// scratch holds the product and quotient of a chain of modular
// multiplications, so the chain allocates only until they have grown.
type scratch struct{ prod, quo big.Int }

// mulMod sets dst = a*b mod m for non-negative a and b; dst may be a or b.
func (s *scratch) mulMod(dst, a, b, m *big.Int) {
	s.prod.Mul(a, b)
	s.quo.QuoRem(&s.prod, m, dst)
}

// lagrangeAtZero computes the Lagrange coefficient for index xi among the
// set xs, evaluated at 0, over Z_q:  ∏_{xj≠xi} xj/(xj-xi).
func lagrangeAtZero(g *Group, xi int64, xs []int64) (*big.Int, error) {
	num := big.NewInt(1)
	den := big.NewInt(1)
	bi := big.NewInt(xi)
	for _, xj := range xs {
		if xj == xi {
			continue
		}
		bj := big.NewInt(xj)
		num = mulMod(num, new(big.Int).Mod(bj, g.Q), g.Q)
		diff := new(big.Int).Sub(bj, bi)
		diff.Mod(diff, g.Q)
		den = mulMod(den, diff, g.Q)
	}
	if den.Sign() == 0 {
		return nil, fmt.Errorf("pvss: duplicate share indices")
	}
	denInv := new(big.Int).ModInverse(den, g.Q)
	if denInv == nil {
		return nil, fmt.Errorf("pvss: non-invertible denominator")
	}
	return mulMod(num, denInv, g.Q), nil
}
