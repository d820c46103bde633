package pvss

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// verifyShareBig is VerifyShare as it stood before the Montgomery form:
// math/big on both sides of the commitment equation (the left through
// expBig), kept as the oracle the limb arithmetic is compared with.
func verifyShareBig(d *Deal, s Share) error {
	if s.Index <= 0 {
		return fmt.Errorf("pvss: share index %d must be positive", s.Index)
	}
	if s.Value == nil || s.Value.Sign() < 0 || s.Value.Cmp(d.Group.Q) >= 0 {
		return fmt.Errorf("pvss: share value out of field range")
	}
	lhs := expBig(d.Group, s.Value)
	rhs := big.NewInt(1)
	xPow := big.NewInt(1)
	bx := big.NewInt(s.Index)
	for _, c := range d.Commitments {
		term := new(big.Int).Exp(c, xPow, d.Group.P)
		rhs = mulMod(rhs, term, d.Group.P)
		xPow = new(big.Int).Mul(xPow, bx)
		// Reduce the exponent mod Q (group has order Q).
		xPow.Mod(xPow, d.Group.Q)
	}
	if lhs.Cmp(rhs) != 0 {
		return fmt.Errorf("pvss: share %d fails commitment check", s.Index)
	}
	return nil
}

// TestVerifyShareMatchesBig compares verdicts with the oracle on honest
// deals, a corrupted share, and every commitment in turn replaced by a
// hostile value, at the dealt indices and at two near the top of int64
// (where the shares are honest evaluations too, so both verdicts occur).
// P−C lies outside the order-Q subgroup, so its term's sign hangs on the
// parity of i^j mod Q: the tiny group, where i^j passes Q at once, is
// where a right-hand side that did not reduce its exponents would differ.
func TestVerifyShareMatchesBig(t *testing.T) {
	type shape struct {
		g *Group
		n int
	}
	def, tiny := testGroup(), newGroup(big.NewInt(2063), big.NewInt(4))
	shapes := []shape{{def, 4}, {def, 9}, {tiny, 9}, {tiny, 15}}
	if !testing.Short() {
		shapes = append(shapes, shape{def, 15})
	}
	for _, sh := range shapes {
		g, n := sh.g, sh.n
		seed := int64(100 + n)
		d, _, err := NewDeal(g, n, n/2+1, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		// NewDeal draws its coefficients first, so the same seed replays them.
		rng := rand.New(rand.NewSource(seed))
		coeffs := make([]*big.Int, d.Threshold)
		for i := range coeffs {
			coeffs[i] = g.randScalar(rng)
		}
		shares := append([]Share(nil), d.Shares...)
		for _, x := range []int64{1 << 62, 1<<63 - 1} {
			shares = append(shares, Share{Index: x, Value: evalPoly(coeffs, x, g.Q)})
		}
		accepted := 0
		compare := func(what string) {
			t.Helper()
			for _, s := range shares {
				got, want := d.VerifyShare(s), verifyShareBig(d, s)
				if (got == nil) != (want == nil) {
					t.Fatalf("p=%v n=%d %s, share %d: VerifyShare says %v, oracle %v", g.P, n, what, s.Index, got, want)
				}
				if got == nil {
					accepted++
				}
			}
		}
		compare("honest")
		if accepted != len(shares) {
			t.Fatalf("p=%v n=%d: %d of %d honest shares accepted", g.P, n, accepted, len(shares))
		}
		honest := shares[0].Value
		shares[0].Value = new(big.Int).Mod(new(big.Int).Add(honest, big.NewInt(1)), g.Q)
		compare("corrupted share")
		shares[0].Value = honest

		for j, c := range d.Commitments {
			for _, hostile := range []*big.Int{
				new(big.Int), big.NewInt(1), new(big.Int).Sub(g.P, big.NewInt(1)), big.NewInt(-7),
				new(big.Int).Add(g.P, big.NewInt(5)), new(big.Int).Lsh(big.NewInt(3), 900), big.NewInt(3),
				new(big.Int).Add(c, g.P), new(big.Int).Sub(c, g.P), new(big.Int).Sub(g.P, c),
			} {
				d.Commitments[j] = hostile
				compare(fmt.Sprintf("commitment %d = %v", j, hostile))
			}
			d.Commitments[j] = c
		}
		t.Logf("p of %d bits, n=%d: both accepted %d times", g.P.BitLen(), n, accepted)
	}
}
