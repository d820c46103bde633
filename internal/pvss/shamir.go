package pvss

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
)

// Share is one participant's piece of a dealt secret. Index is the
// evaluation point (1-based; 0 is the secret itself and never dealt).
type Share struct {
	Index int64
	Value *big.Int
}

// Deal is a publicly verifiable sharing of a secret: n shares with
// threshold t (any t shares reconstruct; t-1 reveal nothing), plus Feldman
// commitments to the polynomial coefficients that let anyone verify any
// share against the dealer's committed polynomial.
type Deal struct {
	Group       *Group
	Threshold   int
	Shares      []Share    // private: sent point-to-point to each participant
	Commitments []*big.Int // public: C_j = g^{a_j}, j = 0..t-1
}

// NewDeal shares secret (drawn uniformly from Z_q using rng) among n
// participants with reconstruction threshold t. It returns the deal and the
// secret so the dealer can later open it.
func NewDeal(g *Group, n, t int, rng *rand.Rand) (*Deal, *big.Int, error) {
	if t < 1 || t > n {
		return nil, nil, fmt.Errorf("pvss: threshold %d out of range for %d participants", t, n)
	}
	coeffs := make([]*big.Int, t)
	for i := range coeffs {
		coeffs[i] = g.randScalar(rng)
	}
	secret := new(big.Int).Set(coeffs[0])

	d := &Deal{Group: g, Threshold: t}
	d.Commitments = make([]*big.Int, t)
	for j, a := range coeffs {
		d.Commitments[j] = g.Exp(a)
	}
	d.Shares = make([]Share, n)
	for i := 1; i <= n; i++ {
		d.Shares[i-1] = Share{Index: int64(i), Value: evalPoly(coeffs, int64(i), g.Q)}
	}
	return d, secret, nil
}

// evalPoly evaluates the polynomial with the given coefficients (constant
// term first) at x over Z_q, using Horner's rule. Each step multiplies by
// x, a word, so the sum is reduced once, at the end.
func evalPoly(coeffs []*big.Int, x int64, q *big.Int) *big.Int {
	bx := big.NewInt(x)
	acc := new(big.Int)
	for j := len(coeffs) - 1; j >= 0; j-- {
		acc.Mul(acc, bx)
		acc.Add(acc, coeffs[j])
	}
	return acc.Mod(acc, q)
}

// interpolate returns the coefficients, constant term first, of the one
// polynomial over Z_q of degree below t = len(xs) through the points
// (xs[i], ys[i]); the xs are distinct residues mod q. It is Lagrange's
// formula in coefficient form. With M(x) = ∏_i (x − x_i) and
// c_i = y_i / ∏_{j≠i} (x_i − x_j),
//
//	f(x) = Σ_i c_i · M(x)/(x − x_i).
//
// M, the products ∏_{j≠i} (x_i − x_j) and each quotient M(x)/(x − x_i) are
// kept as exact integers, built by multiplying by points, which are words:
// for the indices 1…t a deal hands out they are a few words at most. The
// c_i share one inversion (Montgomery's trick), and each coefficient is
// reduced once.
func interpolate(xs []int64, ys []*big.Int, q *big.Int) []*big.Int {
	t := len(xs)
	var w big.Int
	m := make([]big.Int, t+1) // M, one factor (x − x_j) at a time
	m[0].SetInt64(1)
	for j, xj := range xs {
		w.SetInt64(-xj)
		for l := j + 1; l > 0; l-- {
			m[l].Add(&m[l-1], m[l].Mul(&m[l], &w))
		}
		m[0].Mul(&m[0], &w)
	}
	// d_i = ∏_{j≠i} (x_i − x_j) mod q, and the prefix products d_0 ⋯ d_i.
	d, pre := make([]big.Int, t), make([]big.Int, t)
	for i, xi := range xs {
		d[i].SetInt64(1)
		for j, xj := range xs {
			if j != i {
				d[i].Mul(&d[i], w.SetInt64(xi-xj))
			}
		}
		d[i].Mod(&d[i], q)
		if i == 0 {
			pre[0].Set(&d[0])
		} else {
			pre[i].Mod(w.Mul(&d[i], &pre[i-1]), q)
		}
	}
	// One inversion: 1/d_i is (d_0 ⋯ d_{i−1}) / (d_0 ⋯ d_i), walking the
	// inverse of the prefix product down; c_i is y_i times it. The walk has
	// read the prefix product it overwrites with 1/d_i.
	c := pre
	inv := new(big.Int).ModInverse(&pre[t-1], q)
	for i := t - 1; i > 0; i-- {
		c[i].Mod(w.Mul(inv, &pre[i-1]), q)
		inv.Mod(w.Mul(inv, &d[i]), q)
	}
	c[0].Set(inv)
	for i := range c {
		c[i].Mod(w.Mul(&c[i], ys[i]), q)
	}
	// Add c_i times M(x)/(x − x_i), whose coefficients synthetic division
	// yields from the top: the one at x^k is m_{k+1} + x_i times the one
	// at x^{k+1}.
	f, sums := make([]*big.Int, t), make([]big.Int, t)
	for k := range f {
		f[k] = &sums[k]
	}
	var quo big.Int
	for i, xi := range xs {
		quo.SetInt64(0)
		for k := t - 1; k >= 0; k-- {
			quo.Add(&m[k+1], quo.Mul(&quo, w.SetInt64(xi)))
			f[k].Add(f[k], w.Mul(&c[i], &quo))
		}
	}
	for _, a := range f {
		a.Mod(a, q)
	}
	return f
}

// VerifyShare checks a share against the public commitments:
//
//	g^{s_i} ?= ∏_j C_j^{i^j}  (mod p)
//
// A mismatch proves the dealer equivocated on that participant's share. Both
// sides are computed in Montgomery form and compared as arrays; the
// exponents are i^j reduced mod Q, one by one (the package comment says why
// not Horner's rule). A deal whose commitments do not number Threshold, or
// include a nil, is rejected.
func (d *Deal) VerifyShare(s Share) error {
	if s.Index <= 0 {
		return fmt.Errorf("pvss: share index %d must be positive", s.Index)
	}
	if s.Value == nil || s.Value.Sign() < 0 || s.Value.Cmp(d.Group.Q) >= 0 {
		return fmt.Errorf("pvss: share value out of field range")
	}
	if len(d.Commitments) != d.Threshold {
		return fmt.Errorf("pvss: %d commitments for threshold %d", len(d.Commitments), d.Threshold)
	}
	g := d.Group
	lhs, rhs := g.exp(s.Value), g.m.one
	xPow := big.NewInt(1)
	bx := big.NewInt(s.Index)
	for j, c := range d.Commitments {
		if c == nil {
			return fmt.Errorf("pvss: commitment %d is missing", j)
		}
		term := g.m.pow(g.m.enter(c), xPow)
		g.m.mul(&rhs, &rhs, &term)
		// Reduce the exponent mod Q (group has order Q).
		xPow.Mul(xPow, bx)
		xPow.Mod(xPow, g.Q)
	}
	if lhs != rhs {
		return fmt.Errorf("pvss: share %d fails commitment check", s.Index)
	}
	return nil
}

// Verify checks every share of the deal against its commitments at once.
// The n shares of an honest deal are n points of one polynomial of degree
// below t, so Verify interpolates it through the first t shares, refuses
// the deal if any other share is off it, and then compares G raised to each
// of its coefficients with the commitment to that coefficient: t
// exponentiations of the generator where n VerifyShare calls make n, and no
// commitment raised to a power.
//
// It accepts exactly the deals whose every share passes VerifyShare and
// whose every commitment lies in the order-Q subgroup, and it refuses fewer
// than t shares or two indices equal mod Q. With every C_j = G^{c_j} in the
// subgroup, every VerifyShare passes exactly when every share lies on
// Σ c_j x^j, which is then the interpolated polynomial; and shares on a
// polynomial f with C_j = G^{a_j} for its coefficients make every right-hand
// side G^{f(i)}. The subgroup is where the two checks part: C₁ and C₂ both
// negated mod p pass every VerifyShare, since (−1)^{i+i²} = 1, and Verify
// refuses them.
func (d *Deal) Verify() error {
	g, t := d.Group, d.Threshold
	if t < 1 || len(d.Commitments) != t {
		return fmt.Errorf("pvss: %d commitments for threshold %d", len(d.Commitments), t)
	}
	if len(d.Shares) < t {
		return fmt.Errorf("pvss: %d shares below threshold %d", len(d.Shares), t)
	}
	if j := slices.Index(d.Commitments, nil); j >= 0 {
		return fmt.Errorf("pvss: commitment %d is missing", j)
	}
	xs, ys, err := g.points(d.Shares)
	if err != nil {
		return err
	}
	f := interpolate(xs[:t], ys[:t], g.Q)
	for _, s := range d.Shares[t:] {
		if evalPoly(f, s.Index, g.Q).Cmp(s.Value) != 0 {
			return fmt.Errorf("pvss: share %d is off the polynomial of the first %d", s.Index, t)
		}
	}
	for j, a := range f {
		if g.exp(a) != g.m.enter(d.Commitments[j]) {
			return fmt.Errorf("pvss: commitment %d does not match the shares", j)
		}
	}
	return nil
}

// points reads shares as points of a polynomial over Z_Q. It refuses an
// index that is not positive, a value outside [0, Q) and two indices equal
// mod Q, and returns the indices reduced mod Q and the values.
func (g *Group) points(shares []Share) ([]int64, []*big.Int, error) {
	xs, ys := make([]int64, len(shares)), make([]*big.Int, len(shares))
	for i, s := range shares {
		if s.Index <= 0 {
			return nil, nil, fmt.Errorf("pvss: share index %d must be positive", s.Index)
		}
		if s.Value == nil || s.Value.Sign() < 0 || s.Value.Cmp(g.Q) >= 0 {
			return nil, nil, fmt.Errorf("pvss: share %d value out of field range", s.Index)
		}
		xs[i], ys[i] = s.Index, s.Value
		if g.Q.IsInt64() {
			xs[i] %= g.Q.Int64()
		}
		if slices.Contains(xs[:i], xs[i]) {
			return nil, nil, fmt.Errorf("pvss: share index %d repeats another mod Q", s.Index)
		}
	}
	return xs, ys, nil
}

// Reconstruct recovers the secret from at least threshold shares: the
// constant term of the polynomial through the first threshold of them,
// which must have positive indices, distinct mod Q.
func Reconstruct(g *Group, threshold int, shares []Share) (*big.Int, error) {
	if threshold < 1 || len(shares) < threshold {
		return nil, fmt.Errorf("pvss: %d shares below threshold %d", len(shares), threshold)
	}
	xs, ys, err := g.points(shares[:threshold])
	if err != nil {
		return nil, err
	}
	return interpolate(xs, ys, g.Q)[0], nil
}
