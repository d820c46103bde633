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
//
// Group elements are kept in Montgomery form (mont.go: twelve 64-bit limbs,
// one multiplication routine, run by the MULX/ADX kernel of mont_amd64.s
// where the host has BMI2 and ADX and by a Go loop elsewhere) and G is
// raised through a two-table Lim–Lee comb; math/big remains for scalars
// mod Q and at the *big.Int boundary of the exported API. That is as far
// as the arithmetic goes, on purpose. On a shared two-core Xeon at
// GOMAXPROCS 1 a product costs ≈ 190–270 ns on the kernel (≈ 350–650 ns
// on the loop), an Exp ≈ 40 µs and a RunBeacon at n = 9 ≈ 5.6–6.4 ms.
// Measured there and declined: four comb tables (an Exp ≈ 40 → 33–39 µs,
// a RunBeacon within its noise, for another 49 KB held live and a comb
// past the 64 KiB it is pinned under). Declined on operation count, not
// measured: a dedicated squaring (≈ 8% of an Exp) and Horner's rule in the
// exponent for VerifyShare's right-hand side (≈ 0.5 ms a round), which
// raises to i^j unreduced where the code reduces mod Q — the two differ for
// a hostile commitment outside the order-Q subgroup once i^j ≥ Q. Declined
// as a different program: folding a dealer's n share checks into one random
// linear combination, which makes an exact check a probabilistic one.
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

	m *mont // arithmetic mod P; group elements are fe in Montgomery form

	// comb holds the two fixed-base tables Exp reads (see newGroup),
	// combSize entries each, over cols columns.
	comb []fe
	cols int
}

// The Lim–Lee comb lays an exponent below Q out as combRows rows of cols
// bits and splits every row into combTables spans of cols/combTables.
// Table k holds, for every non-empty subset of rows, the product of
// G^(2^(cols·i + k·cols/combTables)) over the rows i in it. For the
// default group that is 8 × 96 and 2 × 255 entries of 96 bytes (48,960 B),
// after which G^e costs 48 squarings and at most 96 multiplications where
// a square-and-multiply ladder needs 767 squarings.
const (
	combRows   = 8
	combTables = 2
	combSize   = 1<<combRows - 1 // entries per table: comb[k*combSize+u-1] for row subset u
)

// defaultGroup builds the one shared instance, and with it the one comb
// a process holds.
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
// safe prime p and precomputes gen's comb. Row i's base for table k is
// gen^(2^(span·r)) with r = combTables·i + k, so all of them come off one
// chain of squarings.
func newGroup(p, gen *big.Int) *Group {
	g := &Group{P: p, Q: new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1), G: gen, m: newMont(p)}
	span := (g.Q.BitLen() + combTables*combRows - 1) / (combTables * combRows)
	g.cols = combTables * span
	g.comb = make([]fe, combTables*combSize)
	base := g.m.enter(gen)
	for r := 0; r < combTables*combRows; r++ {
		for j := 0; r > 0 && j < span; j++ {
			g.m.mul(&base, &base, &base)
		}
		table := g.comb[r%combTables*combSize:][:combSize]
		bit := 1 << (r / combTables)
		table[bit-1] = base
		for u := 1; u < bit; u++ {
			g.m.mul(&table[bit+u-1], &table[u-1], &base)
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
// outside [0, Q) is first reduced mod Q.
func (g *Group) Exp(e *big.Int) *big.Int {
	x := g.exp(e)
	return g.m.leave(&x)
}

// exp is Exp without the step out of Montgomery form. Column j of table k
// gathers bit cols·i + k·span + j of e from every row i into one index;
// walking the columns from the top, squaring once per column, rebuilds G^e.
// The package comment lists what would make this faster and why it is not
// done.
func (g *Group) exp(e *big.Int) fe {
	if e.Sign() < 0 || e.Cmp(g.Q) >= 0 {
		e = new(big.Int).Mod(e, g.Q)
	}
	span := g.cols / combTables
	acc := g.m.one
	for j := span - 1; j >= 0; j-- {
		g.m.mul(&acc, &acc, &acc)
		for k := 0; k < combTables; k++ {
			u := uint(0)
			for i := combRows - 1; i >= 0; i-- {
				u = u<<1 | e.Bit(i*g.cols+k*span+j)
			}
			if u != 0 {
				g.m.mul(&acc, &acc, &g.comb[k*combSize+int(u)-1])
			}
		}
	}
	return acc
}

// mulMod returns a*b mod m.
func mulMod(a, b, m *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), m)
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
