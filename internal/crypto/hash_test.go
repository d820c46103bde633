package crypto

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// The math/big reference forms of the limb arithmetic in hash.go. They have
// no production caller: the tests below use them as equivalence oracles.

// TargetFromBig converts a big.Int threshold to limbs. Values ≥ 2^256
// saturate to MaxTarget; negative values collapse to zero. It exists for
// interoperating with the math/big reference helpers and for tests.
func TargetFromBig(x *big.Int) Target {
	if x.Sign() <= 0 {
		return Target{}
	}
	if x.BitLen() > 256 {
		return MaxTarget
	}
	var buf [32]byte
	x.FillBytes(buf[:])
	var t Target
	for i := range t {
		t[i] = binary.BigEndian.Uint64(buf[8*i : 8*i+8])
	}
	return t
}

// Big returns the target as a math/big integer (reference/oracle use).
func (t Target) Big() *big.Int {
	var buf [32]byte
	for i, limb := range t {
		binary.BigEndian.PutUint64(buf[8*i:8*i+8], limb)
	}
	return new(big.Int).SetBytes(buf[:])
}

// Below returns whether the digest, read as a 256-bit big-endian integer,
// is at or below the target. This is the math/big reference form of
// BelowTarget, kept as an oracle; hot paths use BelowTarget.
func (d Digest) Below(target *big.Int) bool {
	x := new(big.Int).SetBytes(d[:])
	return x.Cmp(target) <= 0
}

// MaxDigestInt is the largest value a Digest can represent (2^256 - 1).
func MaxDigestInt() *big.Int {
	one := big.NewInt(1)
	max := new(big.Int).Lsh(one, 256)
	return max.Sub(max, one)
}

// FractionTarget returns a target t such that a uniformly random digest
// satisfies d ≤ t with probability num/den. It is used to build difficulty
// functions d(role) for the role lottery: to select an expected k winners
// from p candidates, use FractionTarget(k, p). This is the math/big
// reference form; hot paths use FractionTargetLimbs.
func FractionTarget(num, den uint64) *big.Int {
	if den == 0 {
		panic("crypto: FractionTarget with zero denominator")
	}
	t := new(big.Int).Lsh(big.NewInt(1), 256)
	t.Mul(t, new(big.Int).SetUint64(num))
	t.Div(t, new(big.Int).SetUint64(den))
	if t.Sign() > 0 {
		t.Sub(t, big.NewInt(1))
	}
	return t
}

func TestHInjectiveEncoding(t *testing.T) {
	// ("ab","c") and ("a","bc") must hash differently: the length-prefixed
	// encoding is injective.
	a := H([]byte("ab"), []byte("c"))
	b := H([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("H collides on shifted part boundaries")
	}
}

func TestHDeterministic(t *testing.T) {
	if H([]byte("x"), []byte("y")) != H([]byte("x"), []byte("y")) {
		t.Fatal("H is not deterministic")
	}
}

func TestHEmptyParts(t *testing.T) {
	// Zero parts, one empty part, and two empty parts must all differ.
	h0 := H()
	h1 := H(nil)
	h2 := H(nil, nil)
	if h0 == h1 || h1 == h2 || h0 == h2 {
		t.Fatal("H does not distinguish empty part counts")
	}
}

func TestHString(t *testing.T) {
	if HString("a", "b") != H([]byte("a"), []byte("b")) {
		t.Fatal("HString disagrees with H")
	}
}

func TestDigestUint64AndMod(t *testing.T) {
	d := HString("seed")
	if d.Uint64() == 0 {
		t.Fatal("suspicious zero fold")
	}
	for _, m := range []uint64{1, 2, 7, 1 << 20} {
		if got := d.Mod(m); got >= m {
			t.Fatalf("Mod(%d) = %d out of range", m, got)
		}
	}
	if d.Mod(1) != 0 {
		t.Fatal("Mod(1) must be 0")
	}
}

func TestDigestModPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mod(0) did not panic")
		}
	}()
	HString("x").Mod(0)
}

func TestDigestModMatchesBigInt(t *testing.T) {
	// Mod must use all 256 bits, not just the first word.
	f := func(s string, m uint64) bool {
		if m == 0 {
			m = 1
		}
		d := HString(s)
		want := new(big.Int).SetBytes(d[:])
		want.Mod(want, new(big.Int).SetUint64(m))
		return d.Mod(m) == want.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFractionTarget(t *testing.T) {
	// A target for fraction 1/1 accepts everything.
	all := FractionTarget(1, 1)
	for i := 0; i < 50; i++ {
		d := HString("t", string(rune(i)))
		if !d.Below(all) {
			t.Fatal("full-fraction target rejected a digest")
		}
	}
	// A zero fraction accepts (essentially) nothing.
	none := FractionTarget(0, 1)
	if none.Sign() != 0 {
		t.Fatalf("zero-fraction target = %v, want 0", none)
	}
}

func TestFractionTargetEmpiricalRate(t *testing.T) {
	// About half of random digests should fall below the 1/2 target.
	target := FractionTarget(1, 2)
	rng := rand.New(rand.NewSource(7))
	hits, trials := 0, 4000
	for i := 0; i < trials; i++ {
		var buf [16]byte
		rng.Read(buf[:])
		if H(buf[:]).Below(target) {
			hits++
		}
	}
	rate := float64(hits) / float64(trials)
	if rate < 0.45 || rate > 0.55 {
		t.Fatalf("hit rate %.3f too far from 0.5", rate)
	}
}

func TestIsZero(t *testing.T) {
	var d Digest
	if !d.IsZero() {
		t.Fatal("zero digest not recognised")
	}
	if HString("x").IsZero() {
		t.Fatal("nonzero digest reported zero")
	}
}

func TestMaxDigestInt(t *testing.T) {
	max := MaxDigestInt()
	want := new(big.Int).Lsh(big.NewInt(1), 256)
	want.Sub(want, big.NewInt(1))
	if max.Cmp(want) != 0 {
		t.Fatalf("MaxDigestInt = %v", max)
	}
}

func TestFractionTargetLimbsMatchesBigInt(t *testing.T) {
	// The limb-form long division must agree with the math/big reference on
	// every fraction, including the saturating num >= den cases.
	cases := []struct{ num, den uint64 }{
		{0, 1}, {1, 1}, {1, 2}, {1, 3}, {2, 3}, {1, 8}, {1, 4096},
		{3, 7}, {999, 1000}, {1, ^uint64(0)}, {^uint64(0) - 1, ^uint64(0)},
		{5, 2}, {^uint64(0), 1}, // >= 1: saturate to MaxTarget
	}
	for _, c := range cases {
		got := FractionTargetLimbs(c.num, c.den)
		want := TargetFromBig(FractionTarget(c.num, c.den))
		if got != want {
			t.Errorf("FractionTargetLimbs(%d,%d) = %v, want %v", c.num, c.den, got, want)
		}
	}
}

func TestBelowTargetMatchesBigInt(t *testing.T) {
	// BelowTarget must agree with the big.Int comparison for random digests
	// against random targets, and on the exact-equality boundary.
	f := func(s string, num, den uint64) bool {
		if den == 0 {
			den = 1
		}
		num %= den + 1
		d := HString(s)
		tl := FractionTargetLimbs(num, den)
		return d.BelowTarget(tl) == d.Below(tl.Big())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	d := HString("boundary")
	if !d.BelowTarget(TargetFromBig(new(big.Int).SetBytes(d[:]))) {
		t.Fatal("digest not at-or-below its own value")
	}
	one := new(big.Int).SetBytes(d[:])
	one.Sub(one, big.NewInt(1))
	if d.BelowTarget(TargetFromBig(one)) {
		t.Fatal("digest below a target one less than itself")
	}
}

func TestTargetBigRoundTrip(t *testing.T) {
	for _, tt := range []Target{{}, MaxTarget, {0, 1, 2, 3}, {1 << 63, 0, ^uint64(0), 7}} {
		if got := TargetFromBig(tt.Big()); got != tt {
			t.Fatalf("round trip %v -> %v", tt, got)
		}
	}
	if !TargetFromBig(big.NewInt(-5)).IsZero() {
		t.Fatal("negative big.Int did not collapse to zero target")
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 300)
	if TargetFromBig(huge) != MaxTarget {
		t.Fatal("over-width big.Int did not saturate to MaxTarget")
	}
}

func TestHKeyedMatchesH(t *testing.T) {
	key := []byte("signer-pk")
	parts := [][]byte{[]byte("a"), nil, []byte("bc")}
	if HKeyed(key, parts...) != H(append([][]byte{key}, parts...)...) {
		t.Fatal("HKeyed disagrees with H")
	}
	if HKeyed(key) != H(key) {
		t.Fatal("HKeyed with no parts disagrees with H")
	}
}

func TestModAndBelowTargetAllocFree(t *testing.T) {
	d := HString("alloc-check")
	target := FractionTargetLimbs(1, 3)
	allocs := testing.AllocsPerRun(100, func() {
		_ = d.Mod(97)
		_ = d.BelowTarget(target)
	})
	if allocs != 0 {
		t.Fatalf("limb arithmetic allocated %.1f times per run", allocs)
	}
}

func TestPrefixHasherMatchesH(t *testing.T) {
	// Prefixes whose framed length (8 bytes of frame per part) lands one
	// before, on and one after a SHA-256 block boundary — both the prefix's
	// own end (63, 64, 65) and, in the PoW puzzle's shape with 31-, 32- and
	// 33-byte keys, the end of prefix ‖ tail frame (127, 128, 129).
	filled := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	prefixes := [][][]byte{
		{[]byte("tag"), []byte("round"), []byte("randomness-32-bytes-ish")},
		{filled(55, 1)}, {filled(56, 2)}, {filled(57, 3)},
		{filled(16, 4), filled(8, 5), filled(32, 6), filled(31, 7)},
		{filled(16, 4), filled(8, 5), filled(32, 6), filled(32, 7)},
		{filled(16, 4), filled(8, 5), filled(32, 6), filled(33, 7)},
	}
	for _, prefix := range prefixes {
		ph, err := NewPrefixHasher(prefix...)
		if err != nil {
			t.Fatal(err)
		}
		check := func(tail []byte) {
			t.Helper()
			want := H(append(append([][]byte{}, prefix...), tail)...)
			if got := ph.SumWith(tail); got != want {
				t.Fatalf("prefix %d parts: SumWith(%d bytes) disagrees with one-shot H", len(prefix), len(tail))
			}
		}
		// Every tail length 0–130, interleaved from both ends so each step
		// changes the length and the second snapshot is re-derived mid-run;
		// then the same length again with other bytes, which resumes it.
		for i := 0; i <= 130; i++ {
			n := i / 2
			if i%2 == 1 {
				n = 130 - i/2
			}
			check(filled(n, byte(i)))
			check(filled(n, byte(i+1)))
		}
	}
	// Steady-state SumWith — equal-length tails — must not allocate, also
	// right after a change of length.
	ph, err := NewPrefixHasher(prefixes[0]...)
	if err != nil {
		t.Fatal(err)
	}
	tail := []byte("12345678")
	ph.SumWith(tail[:3])
	ph.SumWith(tail)
	allocs := testing.AllocsPerRun(100, func() { ph.SumWith(tail) })
	if allocs != 0 {
		t.Fatalf("SumWith allocated %.1f times per run", allocs)
	}
}
