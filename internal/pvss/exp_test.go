package pvss

import (
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
)

// expBig is Group.Exp as it stood before the comb table: math/big's own
// modular exponentiation, kept as the oracle the comb is compared with.
func expBig(g *Group, e *big.Int) *big.Int {
	return new(big.Int).Exp(g.G, e, g.P)
}

// expSeeds are the exponents every comparison starts from: the edges of
// [0, Q), values past them in both directions, and 200 random scalars.
func expSeeds(g *Group) []*big.Int {
	one := big.NewInt(1)
	seeds := []*big.Int{
		new(big.Int),
		big.NewInt(1),
		new(big.Int).Sub(g.Q, one),
		new(big.Int).Set(g.Q),
		new(big.Int).Add(g.Q, one),
		new(big.Int).Lsh(one, 768),
		big.NewInt(-12345),
		new(big.Int).Neg(g.Q),
		new(big.Int).Neg(new(big.Int).Lsh(one, 900)),
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, g.randScalar(rng))
	}
	return seeds
}

func TestExpMatchesBig(t *testing.T) {
	g := testGroup()
	for _, e := range expSeeds(g) {
		in := new(big.Int).Set(e)
		if got, want := g.Exp(e), expBig(g, e); got.Cmp(want) != 0 {
			t.Fatalf("Exp(%v) = %v, oracle %v", e, got, want)
		}
		if e.Cmp(in) != 0 {
			t.Fatalf("Exp modified its argument %v", in)
		}
	}
	// Single bits walk every cell of the comb: row i, column j.
	for b := uint(0); b < 780; b++ {
		e := new(big.Int).Lsh(big.NewInt(1), b)
		if g.Exp(e).Cmp(expBig(g, e)) != 0 {
			t.Fatalf("Exp(2^%d) differs from the oracle", b)
		}
	}
}

// TestExpSmallGroups checks the comb exhaustively where that is possible:
// every exponent over more than two periods, in groups whose order does
// not fill the comb's rows.
func TestExpSmallGroups(t *testing.T) {
	for _, p := range []int64{7, 23, 227, 1019, 2063} { // safe primes; 4 generates the residues
		g := newGroup(big.NewInt(p), big.NewInt(4))
		q := g.Q.Int64()
		for e := -q - 3; e <= 2*q+3; e++ {
			be := big.NewInt(e)
			if got, want := g.Exp(be), expBig(g, be); got.Cmp(want) != 0 {
				t.Fatalf("p=%d: Exp(%d) = %v, oracle %v", p, e, got, want)
			}
		}
	}
}

// TestDefaultGroupSharedAndSmall pins the comb's shape and bound: one
// instance per process, two tables of 255, at most 64 KiB.
func TestDefaultGroupSharedAndSmall(t *testing.T) {
	g := DefaultGroup()
	if g != DefaultGroup() {
		t.Fatal("DefaultGroup built a second instance")
	}
	if g.cols != 96 || len(g.comb) != 510 || combTables != 2 {
		t.Fatalf("comb is %d entries over %d columns in %d tables, want 510 over 96 in 2", len(g.comb), g.cols, combTables)
	}
	size := uintptr(len(g.comb)) * unsafe.Sizeof(fe{})
	if size > 64<<10 {
		t.Fatalf("comb holds %d bytes, want at most 64 KiB", size)
	}
	t.Logf("comb: %d bytes", size)
}

// FuzzGroupExp compares the comb with the oracle on arbitrary integers.
func FuzzGroupExp(f *testing.F) {
	g := testGroup()
	for _, e := range expSeeds(g) {
		f.Add(e.Bytes(), e.Sign() < 0)
	}
	f.Fuzz(func(t *testing.T, mag []byte, neg bool) {
		if len(mag) > 256 {
			mag = mag[:256]
		}
		e := new(big.Int).SetBytes(mag)
		if neg {
			e.Neg(e)
		}
		if got, want := g.Exp(e), expBig(g, e); got.Cmp(want) != 0 {
			t.Fatalf("Exp(%v) = %v, oracle %v", e, got, want)
		}
	})
}

func BenchmarkGroupExp(b *testing.B) {
	g := testGroup()
	e := g.randScalar(rand.New(rand.NewSource(1)))
	b.Run("comb", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Exp(e)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			expBig(g, e)
		}
	})
}
