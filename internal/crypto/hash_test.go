package crypto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
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

// searchOracle is SearchNonce by brute force over the one-shot H.
func searchOracle(t Target, start, max uint64, prefix [][]byte) (uint64, uint64, bool) {
	for i := uint64(0); i < max; i++ {
		if nonceDigest(prefix, start+i).BelowTarget(t) {
			return start + i, i + 1, true
		}
	}
	return 0, max, false
}

func nonceDigest(prefix [][]byte, nonce uint64) Digest {
	return H(append(prefix[:len(prefix):len(prefix)], binary.BigEndian.AppendUint64(nil, nonce))...)
}

// A searchBackend is one of SearchNonce's backends: the one useAVX512
// selects, by name, and whether the host runs it.
type searchBackend struct {
	name           string
	avx512, usable bool
}

// searchBackends are SearchNonce's backends; avx512 is usable only where
// the host runs blockAVX512x8, which useAVX512 holds at init.
var searchBackends = []searchBackend{
	{"avx512", true, useAVX512},
	{"portable", false, true},
}

// lanes is how many nonces the selected backend compresses per pass.
func lanes() int {
	if useAVX512 {
		return 8
	}
	return 1
}

// onBackends runs f as a subtest named for each backend, with useAVX512
// set to it; a kernel the host cannot run is a skipped subtest.
func onBackends(t *testing.T, f func(t *testing.T)) {
	defer func(avx512 bool) { useAVX512 = avx512 }(useAVX512)
	for _, k := range searchBackends {
		t.Run(k.name, func(t *testing.T) {
			if !k.usable {
				t.Skipf("this host cannot run the %s kernel", k.name)
			}
			useAVX512 = k.avx512
			f(t)
		})
	}
}

// asTarget reads a digest as the target it just meets.
func asTarget(d Digest) (t Target) {
	for j := range t {
		t[j] = binary.BigEndian.Uint64(d[8*j:])
	}
	return t
}

// less orders targets as 256-bit integers.
func less(a, b Target) bool {
	for j := range a {
		if a[j] != b[j] {
			return a[j] < b[j]
		}
	}
	return false
}

// leastDigest returns, as a target, the least digest among the n nonces
// from start, and that nonce's offset.
func leastDigest(prefix [][]byte, start, n uint64) (least Target, at uint64) {
	least = MaxTarget
	for i := uint64(0); i < n; i++ {
		if t := asTarget(nonceDigest(prefix, start+i)); less(t, least) {
			least, at = t, i
		}
	}
	return least, at
}

// leastAt returns the first start from 0 whose window of n nonces has its
// least digest at offset at, and that digest as a target.
func leastAt(prefix [][]byte, n, at uint64) (start uint64, least Target) {
	for ; ; start++ {
		if least, a := leastDigest(prefix, start, n); a == at {
			return start, least
		}
	}
}

// puzzlePrefix is pow.Solve's prefix shape: tag, round, randomness, key.
func puzzlePrefix(keyLen int) [][]byte {
	filled := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	return [][]byte{[]byte("cycledger/pow/v1"), filled(8, 1), filled(32, 2), filled(keyLen, 3)}
}

func TestSearchNonceMatchesH(t *testing.T) {
	onBackends(t, func(t *testing.T) {
		check := func(name string, tg Target, start, max uint64, prefix [][]byte) (uint64, uint64, bool) {
			t.Helper()
			n, tried, ok := SearchNonce(tg, start, max, prefix...)
			wn, wtried, wok := searchOracle(tg, start, max, prefix)
			if n != wn || tried != wtried || ok != wok {
				t.Fatalf("%s: SearchNonce = (%d, %d, %v), oracle (%d, %d, %v)", name, n, tried, ok, wn, wtried, wok)
			}
			return n, tried, ok
		}
		eighth := FractionTargetLimbs(1, 8)
		// One part of 0–127 bytes: the framed stream before the nonce's value
		// is 16+len bytes, so its remainder mod 64 takes every value twice,
		// once after one absorbed block and once after two. Remainders
		// 48–63 leave no room for the padding, and 57–63 split the nonce
		// itself: the final part is two blocks.
		for n := 0; n < 128; n++ {
			check(fmt.Sprintf("%d-byte part", n), eighth, uint64(n)<<40, 64, [][]byte{bytes.Repeat([]byte{byte(n)}, n)})
		}
		// The puzzle shape: a 32-byte key ends the nonce frame on a block
		// boundary, 31- and 33-byte keys move it either way.
		for _, keyLen := range []int{31, 32, 33} {
			if _, _, ok := check(fmt.Sprintf("%d-byte key", keyLen), FractionTargetLimbs(1, 64), 7, 1024, puzzlePrefix(keyLen)); !ok {
				t.Fatalf("%d-byte key: no solution in 1024 attempts at hardness 64", keyLen)
			}
		}
		// A target equal to the least digest of a window ties its first limb
		// there, so only the full compare accepts it; one less rejects it.
		prefix := puzzlePrefix(32)
		least, at := leastDigest(prefix, 100, 16)
		if n, _, ok := check("tied target", least, 100, 16, prefix); !ok || n != 100+at {
			t.Fatalf("tied target: found (%d, %v), want nonce %d", n, ok, 100+at)
		}
		below := least
		below[3]-- // the least of 16 digests has a nonzero last limb
		if _, _, ok := check("target one below", below, 100, 16, prefix); ok {
			t.Fatal("a target one below the window's least digest was met")
		}
		// Wrap-around: four nonces before 2^64 and four after, on the first
		// prefix whose least digest in that window falls after the wrap.
		for tag := 0; ; tag++ {
			prefix := [][]byte{[]byte(fmt.Sprintf("wrap-%d", tag))}
			least, at := leastDigest(prefix, ^uint64(0)-3, 8)
			if at < 4 {
				continue
			}
			if n, _, ok := check("wrap-around", least, ^uint64(0)-3, 8, prefix); !ok || n != at-4 {
				t.Fatalf("wrap-around: found (%d, %v), want nonce %d", n, ok, at-4)
			}
			break
		}
		// A kernel of w lanes compresses offsets i … i+w−1 (i a multiple of
		// w) in one pass and checks them in order; the portable loop runs
		// the two-lane cases. In every lane k of the second pass: the only
		// hit, decided on the first limb; a tied first limb, which only the
		// full compare accepts; and that target one below, which misses.
		w := uint64(max(lanes(), 2))
		for k := uint64(0); k < w; k++ {
			at := w + k
			s, least := leastAt(prefix, 2*w, at)
			if n, tried, ok := check(fmt.Sprintf("lane %d", k), Target{least[0] + 1}, s, 2*w, prefix); !ok || n != s+at || tried != at+1 {
				t.Fatalf("lane %d: (%d, %d, %v), want (%d, %d, true)", k, n, tried, ok, s+at, at+1)
			}
			if n, tried, ok := check(fmt.Sprintf("tied target, lane %d", k), least, s, 2*w, prefix); !ok || n != s+at || tried != at+1 {
				t.Fatalf("tied target, lane %d: (%d, %d, %v), want (%d, %d, true)", k, n, tried, ok, s+at, at+1)
			}
			below := least
			below[3]--
			if _, _, ok := check(fmt.Sprintf("one below, lane %d", k), below, s, 2*w, prefix); ok {
				t.Fatalf("a target one below the window's least digest was met in lane %d", k)
			}
		}
		// Two lanes of the second pass hit, its last and an earlier one,
		// and nothing before them: the lower lane wins.
		for start := uint64(0); ; start++ {
			_, at := leastDigest(prefix, start, 2*w)
			if at < w || at == 2*w-1 {
				continue
			}
			last := asTarget(nonceDigest(prefix, start+2*w-1))
			if earlier, _ := leastDigest(prefix, start, at); !less(last, earlier) {
				continue
			}
			if n, tried, ok := check("two lanes", last, start, 2*w, prefix); !ok || n != start+at || tried != at+1 {
				t.Fatalf("two lanes: (%d, %d, %v), want (%d, %d, true)", n, tried, ok, start+at, at+1)
			}
			break
		}
		// Budgets that end a pass early, or just after one: the hit is the
		// last nonce inside the budget, or would be the first past it, in a
		// lane the search must not count.
		for _, max := range slices.Compact([]uint64{1, w - 1, w + 1, 257}) {
			s, least := leastAt(prefix, max, max-1)
			if n, tried, ok := check(fmt.Sprintf("budget %d, last nonce", max), least, s, max, prefix); !ok || n != s+max-1 || tried != max {
				t.Fatalf("budget %d, last nonce: (%d, %d, %v), want (%d, %d, true)", max, n, tried, ok, s+max-1, max)
			}
			s, least = leastAt(prefix, max+1, max)
			if _, tried, ok := check(fmt.Sprintf("budget %d, past it", max), least, s, max, prefix); ok || tried != max {
				t.Fatalf("budget %d, hit past it: tried %d, ok %v", max, tried, ok)
			}
		}
		// A second pass with w/2 nonces either side of a boundary, from
		// boundary − w − w/2, on the first prefix whose least digest in
		// the window lies past the boundary. Across 2^64 − 1 the nonce
		// wraps to 0. Across a 2^32 boundary the nonce's high word differs
		// between the lanes: with the puzzle's 32-byte key the nonce is the
		// final block's first two words, so a kernel that shared W[0]
		// across lanes would miss the hit.
		for _, c := range []struct {
			name     string
			boundary uint64
			prefix   func(tag int) [][]byte
		}{
			{"straddle 2^64", 0, func(tag int) [][]byte { return [][]byte{[]byte(fmt.Sprintf("straddle-%d", tag))} }},
			{"cross 2^32", 7 << 32, func(tag int) [][]byte {
				return append(puzzlePrefix(32)[:3], bytes.Repeat([]byte{byte(tag)}, 32))
			}},
		} {
			from := c.boundary - w - w/2
			for tag := 0; ; tag++ {
				prefix := c.prefix(tag)
				least, at := leastDigest(prefix, from, 2*w)
				if at < w+w/2 {
					continue
				}
				if n, tried, ok := check(c.name, least, from, 2*w, prefix); !ok || n != from+at || tried != at+1 {
					t.Fatalf("%s: (%d, %d, %v), want (%d, %d, true)", c.name, n, tried, ok, from+at, at+1)
				}
				break
			}
		}
		// No budget, and a budget that runs out.
		if n, tried, ok := check("max 0", MaxTarget, 5, 0, prefix); ok || n != 0 || tried != 0 {
			t.Fatalf("max 0: (%d, %d, %v)", n, tried, ok)
		}
		if _, tried, ok := check("exhausted", Target{}, 5, 100, prefix); ok || tried != 100 {
			t.Fatalf("exhausted budget: tried %d, ok %v", tried, ok)
		}
	})
}

func TestSearchNonceAllocsIndependentOfAttempts(t *testing.T) {
	onBackends(t, func(t *testing.T) {
		prefix := puzzlePrefix(32)
		allocs := func(max uint64) float64 {
			return testing.AllocsPerRun(20, func() { SearchNonce(Target{}, 0, max, prefix...) })
		}
		if one, many := allocs(1), allocs(1000); one != many {
			t.Fatalf("SearchNonce allocated %.1f times for 1 attempt, %.1f for 1000", one, many)
		}
	})
}

// FuzzSearchNonce holds every backend the host runs to the one-shot oracle
// on two prefix parts, a target's first limb, a start and a budget.
func FuzzSearchNonce(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte, limb, start uint64, budget uint16) {
		tg, max := Target{limb, 1 << 63, 0, ^uint64(0)}, uint64(budget%257)
		prefix := [][]byte{a, b}
		wn, wtried, wok := searchOracle(tg, start, max, prefix)
		defer func(avx512 bool) { useAVX512 = avx512 }(useAVX512)
		for _, k := range searchBackends {
			if !k.usable {
				continue
			}
			useAVX512 = k.avx512
			if n, tried, ok := SearchNonce(tg, start, max, prefix...); n != wn || tried != wtried || ok != wok {
				t.Fatalf("%s: SearchNonce = (%d, %d, %v), oracle (%d, %d, %v)", k.name, n, tried, ok, wn, wtried, wok)
			}
		}
	})
}

// BenchmarkSearchNonce times the search at the workloads' puzzle shape and
// hardness (a 32-byte key, 1 in 4096), per attempt, on each backend.
// h64-avx512 is the kernel at wide-cross's hardness, 1 in 64: a short
// search pays its setup, and its last pass's unused lanes, over few
// attempts.
func BenchmarkSearchNonce(b *testing.B) {
	prefix := puzzlePrefix(32)
	defer func(avx512 bool) { useAVX512 = avx512 }(useAVX512)
	avx512, portable := searchBackends[0], searchBackends[1]
	for _, r := range []struct {
		name     string
		backend  searchBackend
		hardness uint64
	}{{"avx512", avx512, 4096}, {"portable", portable, 4096}, {"h64-avx512", avx512, 64}} {
		b.Run(r.name, func(b *testing.B) {
			if !r.backend.usable {
				b.Skipf("this host cannot run the %s kernel", r.backend.name)
			}
			useAVX512 = r.backend.avx512
			target := FractionTargetLimbs(1, r.hardness)
			var attempts uint64
			for i := 0; i < b.N; i++ {
				_, tried, _ := SearchNonce(target, uint64(i)<<32, 1<<20, prefix...)
				attempts += tried
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
		})
	}
}
