package pvss

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func testGroup() *Group { return DefaultGroup() }

func TestGroupParameters(t *testing.T) {
	g := testGroup()
	// p = 2q + 1.
	want := new(big.Int).Add(new(big.Int).Lsh(g.Q, 1), big.NewInt(1))
	if g.P.Cmp(want) != 0 {
		t.Fatal("p != 2q+1")
	}
	if !g.P.ProbablyPrime(32) {
		t.Fatal("p is not prime")
	}
	if !g.Q.ProbablyPrime(32) {
		t.Fatal("q is not prime")
	}
	// g has order q: g^q = 1 and g != 1.
	if new(big.Int).Exp(g.G, g.Q, g.P).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("generator order does not divide q")
	}
	if g.G.Cmp(big.NewInt(1)) == 0 {
		t.Fatal("generator is identity")
	}
}

func TestDealAndReconstruct(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(1))
	d, secret, err := NewDeal(g, 7, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(g, 4, d.Shares[:4])
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatal("reconstruction from first 4 shares failed")
	}
	// Any other subset of size threshold works too.
	subset := []Share{d.Shares[6], d.Shares[2], d.Shares[4], d.Shares[0]}
	got2, err := Reconstruct(g, 4, subset)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Cmp(secret) != 0 {
		t.Fatal("reconstruction from scattered shares failed")
	}
}

func TestReconstructBelowThresholdFails(t *testing.T) {
	g := testGroup()
	d, _, err := NewDeal(g, 5, 3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reconstruct(g, 3, d.Shares[:2]); err == nil {
		t.Fatal("reconstruction below threshold succeeded")
	}
}

func TestReconstructDuplicateIndicesRejected(t *testing.T) {
	g := testGroup()
	d, _, err := NewDeal(g, 5, 3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	dup := []Share{d.Shares[0], d.Shares[0], d.Shares[1]}
	if _, err := Reconstruct(g, 3, dup); err == nil {
		t.Fatal("duplicate indices accepted")
	}
}

func TestVerifyShareAcceptsHonest(t *testing.T) {
	g := testGroup()
	d, _, err := NewDeal(g, 6, 4, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Shares {
		if err := d.VerifyShare(s); err != nil {
			t.Fatalf("honest share %d rejected: %v", s.Index, err)
		}
	}
}

func TestVerifyShareDetectsTampering(t *testing.T) {
	g := testGroup()
	d, _, err := NewDeal(g, 6, 4, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	bad := Share{Index: d.Shares[0].Index, Value: new(big.Int).Add(d.Shares[0].Value, big.NewInt(1))}
	bad.Value.Mod(bad.Value, g.Q)
	if err := d.VerifyShare(bad); err == nil {
		t.Fatal("tampered share accepted")
	}
}

func TestVerifyShareRejectsBadIndexAndRange(t *testing.T) {
	g := testGroup()
	d, _, err := NewDeal(g, 4, 2, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyShare(Share{Index: 0, Value: big.NewInt(1)}); err == nil {
		t.Fatal("index 0 accepted")
	}
	if err := d.VerifyShare(Share{Index: 1, Value: new(big.Int).Set(g.Q)}); err == nil {
		t.Fatal("out-of-field value accepted")
	}
	if err := d.VerifyShare(Share{Index: 1, Value: nil}); err == nil {
		t.Fatal("nil value accepted")
	}

	// A hostile deal is an error too, never a panic: a commitment list
	// that is not the threshold's length, or one with a hole in it.
	honest := d.Commitments
	d.Commitments = honest[:1]
	if err := d.VerifyShare(d.Shares[0]); err == nil {
		t.Fatal("deal with too few commitments accepted")
	}
	d.Commitments = append(append([]*big.Int(nil), honest...), big.NewInt(1))
	if err := d.VerifyShare(d.Shares[0]); err == nil {
		t.Fatal("deal with too many commitments accepted")
	}
	d.Commitments = []*big.Int{honest[0], nil}
	if err := d.VerifyShare(d.Shares[0]); err == nil {
		t.Fatal("nil commitment accepted")
	}
	d.Commitments = honest
	if err := d.VerifyShare(d.Shares[0]); err != nil {
		t.Fatalf("honest share rejected after the deal was restored: %v", err)
	}
}

func TestReconstructRejectsBadValues(t *testing.T) {
	g := testGroup()
	d, _, err := NewDeal(g, 5, 3, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*big.Int{
		"nil":      nil,
		"negative": big.NewInt(-1),
		"q":        new(big.Int).Set(g.Q),
	} {
		shares := []Share{d.Shares[0], {Index: d.Shares[1].Index, Value: v}, d.Shares[2]}
		if _, err := Reconstruct(g, 3, shares); err == nil {
			t.Fatalf("%s share value accepted", name)
		}
	}
	// Past the threshold nothing is read, as before.
	if _, err := Reconstruct(g, 3, append(d.Shares[:3:3], Share{Index: 9})); err != nil {
		t.Fatal(err)
	}
}

func TestNewDealValidatesThreshold(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(7))
	if _, _, err := NewDeal(g, 5, 0, rng); err == nil {
		t.Fatal("threshold 0 accepted")
	}
	if _, _, err := NewDeal(g, 5, 6, rng); err == nil {
		t.Fatal("threshold above n accepted")
	}
}

func TestCommitmentToSecretMatches(t *testing.T) {
	g := testGroup()
	d, secret, err := NewDeal(g, 5, 3, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Commitments[0].Cmp(g.Exp(secret)) != 0 {
		t.Fatal("C_0 != g^secret")
	}
}

func TestThresholdPropertyQuick(t *testing.T) {
	// Property: for random (n, t), reconstruction from any t shares yields
	// the dealt secret.
	g := testGroup()
	f := func(seed int64, nRaw, tRaw uint8) bool {
		n := int(nRaw%8) + 3
		th := int(tRaw)%n + 1
		rng := rand.New(rand.NewSource(seed))
		d, secret, err := NewDeal(g, n, th, rng)
		if err != nil {
			return false
		}
		perm := rng.Perm(n)[:th]
		shares := make([]Share, th)
		for i, idx := range perm {
			shares[i] = d.Shares[idx]
		}
		got, err := Reconstruct(g, th, shares)
		return err == nil && got.Cmp(secret) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalPolyHorner(t *testing.T) {
	q := big.NewInt(97)
	// f(x) = 3 + 2x + x², f(5) = 3 + 10 + 25 = 38.
	coeffs := []*big.Int{big.NewInt(3), big.NewInt(2), big.NewInt(1)}
	if got := evalPoly(coeffs, 5, q); got.Int64() != 38 {
		t.Fatalf("evalPoly = %v, want 38", got)
	}
}
