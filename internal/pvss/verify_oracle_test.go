package pvss

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
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

// verifyByShares is the verdict Deal.Verify must reach, from the checks it
// replaces: a threshold of at least one and at least that many shares, their
// indices distinct mod Q, every share passing VerifyShare, and every
// commitment in the order-Q subgroup, which mod the safe prime P is the
// quadratic residues.
func verifyByShares(d *Deal) bool {
	g := d.Group
	if d.Threshold < 1 || len(d.Shares) < d.Threshold {
		return false
	}
	seen := make(map[string]bool, len(d.Shares))
	for _, s := range d.Shares {
		if d.VerifyShare(s) != nil {
			return false
		}
		x := new(big.Int).Mod(big.NewInt(s.Index), g.Q).String()
		if seen[x] {
			return false
		}
		seen[x] = true
	}
	for _, c := range d.Commitments {
		if big.Jacobi(new(big.Int).Mod(c, g.P), g.P) != 1 {
			return false
		}
	}
	return true
}

// cloneDeal copies the deal's share and commitment lists, so a case can
// replace entries without touching the honest deal.
func cloneDeal(d *Deal) *Deal {
	c := *d
	c.Shares = slices.Clone(d.Shares)
	c.Commitments = slices.Clone(d.Commitments)
	return &c
}

// oracleGroups are the default group and TestExpSmallGroups' safe primes.
// In the smallest, p = 7 and Q = 3, a deal's indices collide mod Q from the
// fourth share on.
func oracleGroups() []*Group {
	gs := []*Group{testGroup()}
	for _, p := range []int64{7, 23, 227, 1019, 2063} {
		gs = append(gs, newGroup(big.NewInt(p), big.NewInt(4)))
	}
	return gs
}

// checkDealVerify fails the test when Verify and the share checks disagree,
// and returns the verdict.
func checkDealVerify(t *testing.T, d *Deal, what string) bool {
	t.Helper()
	got, want := d.Verify(), verifyByShares(d)
	if (got == nil) != want {
		t.Fatalf("p=%v t=%d n=%d %s: Verify says %v, the share checks %v", d.Group.P, d.Threshold, len(d.Shares), what, got, want)
	}
	return want
}

// dealCases are the ways a test corrupts an honest deal: each edits a clone.
func dealCases(d *Deal) map[string]func(*Deal) {
	g, n, t := d.Group, len(d.Shares), d.Threshold
	one := big.NewInt(1)
	cases := map[string]func(*Deal){
		"honest": func(*Deal) {},
		"DealCorruptShares' pattern": func(c *Deal) {
			for i := 0; i < t/2+1 && i < n; i++ {
				c.Shares[i].Value = new(big.Int).Mod(new(big.Int).Add(c.Shares[i].Value, one), g.Q)
			}
		},
		"fewer shares than t": func(c *Deal) { c.Shares = c.Shares[:t-1] },
		"threshold 0":         func(c *Deal) { c.Threshold, c.Commitments = 0, nil },
	}
	for i := range n {
		cases[fmt.Sprintf("share %d plus one", i)] = func(c *Deal) {
			c.Shares[i].Value = new(big.Int).Mod(new(big.Int).Add(c.Shares[i].Value, one), g.Q)
		}
		cases[fmt.Sprintf("share %d valued Q", i)] = func(c *Deal) { c.Shares[i].Value = new(big.Int).Set(g.Q) }
		cases[fmt.Sprintf("share %d valued nil", i)] = func(c *Deal) { c.Shares[i].Value = nil }
		cases[fmt.Sprintf("share %d at index 0", i)] = func(c *Deal) { c.Shares[i].Index = 0 }
		if i > 0 {
			cases[fmt.Sprintf("share %d repeats share 0", i)] = func(c *Deal) { c.Shares[i] = c.Shares[0] }
		}
		if g.Q.IsInt64() {
			// The same point mod Q under another index: every share
			// check passes, and the indices are not distinct mod Q.
			cases[fmt.Sprintf("share %d aliases share 0 mod Q", i)] = func(c *Deal) {
				c.Shares = append(c.Shares, Share{Index: c.Shares[i].Index + g.Q.Int64(), Value: c.Shares[i].Value})
			}
		}
	}
	for j := range t {
		cases[fmt.Sprintf("commitment %d times G", j)] = func(c *Deal) {
			c.Commitments[j] = new(big.Int).Mod(new(big.Int).Mul(c.Commitments[j], g.G), g.P)
		}
		cases[fmt.Sprintf("commitment %d negated", j)] = func(c *Deal) {
			c.Commitments[j] = new(big.Int).Sub(g.P, c.Commitments[j])
		}
		cases[fmt.Sprintf("commitment %d plus P", j)] = func(c *Deal) {
			c.Commitments[j] = new(big.Int).Add(c.Commitments[j], g.P)
		}
		cases[fmt.Sprintf("commitment %d nil", j)] = func(c *Deal) { c.Commitments[j] = nil }
	}
	if t >= 3 {
		cases["commitments 1 and 2 negated"] = func(c *Deal) {
			c.Commitments[1] = new(big.Int).Sub(g.P, c.Commitments[1])
			c.Commitments[2] = new(big.Int).Sub(g.P, c.Commitments[2])
		}
	}
	return cases
}

// TestDealVerifyMatchesShareChecks compares Verify with the checks it
// replaces on honest deals at t = 1, a majority and t = n, and on every
// case of dealCases, in the default group and the small safe-prime groups.
func TestDealVerifyMatchesShareChecks(t *testing.T) {
	var verdicts [2]int
	for _, g := range oracleGroups() {
		for _, n := range []int{1, 3, 5, 9} {
			for _, th := range []int{1, n/2 + 1, n} {
				d, _, err := NewDeal(g, n, th, rand.New(rand.NewSource(int64(31*n+th))))
				if err != nil {
					t.Fatal(err)
				}
				distinct := g.Q.Cmp(big.NewInt(int64(n))) >= 0
				if honest := checkDealVerify(t, d, "honest"); honest != distinct {
					t.Fatalf("p=%v t=%d n=%d: honest deal accepted %v, want %v", g.P, th, n, honest, distinct)
				}
				for what, edit := range dealCases(d) {
					c := cloneDeal(d)
					edit(c)
					if checkDealVerify(t, c, what) {
						verdicts[1]++
					} else {
						verdicts[0]++
					}
				}
			}
		}
	}
	t.Logf("%d deals accepted, %d refused", verdicts[1], verdicts[0])
}

// TestDealVerifyRefusesNegatedCommitments pins where Verify and the share
// checks part: C₁ and C₂ both negated mod P leave every share check
// passing, since (−1)^{i+i²} = 1, and put both outside the subgroup.
func TestDealVerifyRefusesNegatedCommitments(t *testing.T) {
	g := testGroup()
	d, _, err := NewDeal(g, 9, 5, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	dealCases(d)["commitments 1 and 2 negated"](d)
	for _, s := range d.Shares {
		if err := d.VerifyShare(s); err != nil {
			t.Fatalf("share %d: %v", s.Index, err)
		}
	}
	if d.Verify() == nil {
		t.Fatal("Verify accepted commitments outside the order-Q subgroup")
	}
}

// FuzzDealVerify asserts TestDealVerifyMatchesShareChecks' equivalence on
// deals edited by the fuzzer: each pair of op bytes is an edit and the
// share or commitment it applies to.
func FuzzDealVerify(f *testing.F) {
	groups := oracleGroups()
	f.Add(uint8(0), uint8(9), uint8(5), int64(1), []byte{})
	f.Add(uint8(0), uint8(9), uint8(5), int64(2), []byte{0, 7})
	f.Add(uint8(0), uint8(5), uint8(3), int64(3), []byte{3, 1, 3, 2})
	f.Add(uint8(1), uint8(5), uint8(2), int64(4), []byte{})
	f.Add(uint8(2), uint8(9), uint8(9), int64(5), []byte{4, 3, 2, 0})
	f.Add(uint8(5), uint8(12), uint8(1), int64(6), []byte{1, 11, 6, 0})
	f.Fuzz(func(t *testing.T, gi, nRaw, tRaw uint8, seed int64, ops []byte) {
		g := groups[int(gi)%len(groups)]
		n := int(nRaw)%12 + 1
		th := int(tRaw)%n + 1
		d, _, err := NewDeal(g, n, th, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		one := big.NewInt(1)
		for k := 0; k+1 < len(ops) && k < 16; k += 2 {
			if len(d.Shares) == 0 {
				break
			}
			i, j := int(ops[k+1])%len(d.Shares), int(ops[k+1])%len(d.Commitments)
			switch ops[k] % 8 {
			case 0:
				d.Shares[i].Value = new(big.Int).Mod(new(big.Int).Add(d.Shares[i].Value, one), g.Q)
			case 1:
				d.Shares[i].Index = d.Shares[0].Index
			case 2:
				d.Commitments[j] = new(big.Int).Sub(g.P, d.Commitments[j])
			case 3:
				d.Commitments[j] = new(big.Int).Mod(new(big.Int).Mul(d.Commitments[j], g.G), g.P)
			case 4:
				d.Shares = d.Shares[:i]
			case 5:
				d.Shares[i].Value = new(big.Int).Add(d.Shares[i].Value, g.Q)
			case 6:
				if g.Q.IsInt64() {
					d.Shares[i].Index += g.Q.Int64()
				}
			case 7:
				i2 := (i + 1) % len(d.Shares)
				d.Shares[i].Value, d.Shares[i2].Value = d.Shares[i2].Value, d.Shares[i].Value
			}
		}
		checkDealVerify(t, d, fmt.Sprintf("ops %v", ops))
	})
}
