package pvss

import (
	"fmt"
	"math/big"
	"math/rand"
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
// term first) at x over Z_q, using Horner's rule.
func evalPoly(coeffs []*big.Int, x int64, q *big.Int) *big.Int {
	bx := big.NewInt(x)
	acc := new(big.Int)
	for j := len(coeffs) - 1; j >= 0; j-- {
		acc.Mul(acc, bx)
		acc.Add(acc, coeffs[j])
		acc.Mod(acc, q)
	}
	return acc
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

// Reconstruct recovers the secret from at least Threshold shares by
// Lagrange interpolation at zero. Shares must have distinct indices.
func Reconstruct(g *Group, threshold int, shares []Share) (*big.Int, error) {
	if len(shares) < threshold {
		return nil, fmt.Errorf("pvss: %d shares below threshold %d", len(shares), threshold)
	}
	use := shares[:threshold]
	xs := make([]int64, len(use))
	seen := make(map[int64]bool, len(use))
	for i, s := range use {
		if s.Value == nil || s.Value.Sign() < 0 || s.Value.Cmp(g.Q) >= 0 {
			return nil, fmt.Errorf("pvss: share %d value out of field range", s.Index)
		}
		if seen[s.Index] {
			return nil, fmt.Errorf("pvss: duplicate share index %d", s.Index)
		}
		seen[s.Index] = true
		xs[i] = s.Index
	}
	secret := new(big.Int)
	for _, s := range use {
		coef, err := lagrangeAtZero(g, s.Index, xs)
		if err != nil {
			return nil, err
		}
		secret.Add(secret, mulMod(coef, s.Value, g.Q))
		secret.Mod(secret, g.Q)
	}
	return secret, nil
}
