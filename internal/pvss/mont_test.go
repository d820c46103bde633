package pvss

import (
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"cycledger/internal/crypto"
)

// montModuli are the moduli the Montgomery arithmetic is compared with
// math/big under: the default prime (top limb all ones), two of
// TestExpSmallGroups' tiny safe primes, the one-limb prime 2^64 − 59, and
// three random odd 768-bit moduli, top bit set, whose running sums reach
// the kernel's fourteenth word. The default prime has n0 = 1, so only the
// others catch a product that skips the multiplication by n0.
func montModuli() []*big.Int {
	oneLimb := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64), big.NewInt(59))
	moduli := []*big.Int{testGroup().P, big.NewInt(7), big.NewInt(2063), oneLimb}
	rng := rand.New(rand.NewSource(31))
	for range 3 {
		p := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64*limbs))
		moduli = append(moduli, p.SetBit(p.SetBit(p, 64*limbs-1, 1), 0, 1))
	}
	return moduli
}

// montKernels are mul's backends, by name; adx is usable only where the
// host has BMI2 and ADX.
var montKernels = []struct {
	name        string
	adx, usable bool
}{
	{"adx", true, crypto.HasADX()},
	{"generic", false, true},
}

// onMontKernels runs f as a subtest named for each Montgomery kernel, with
// useADX set to it; a kernel the host cannot run is a skipped subtest.
func onMontKernels(t *testing.T, f func(t *testing.T)) {
	defer func(adx bool) { useADX = adx }(useADX)
	for _, k := range montKernels {
		t.Run(k.name, func(t *testing.T) {
			if !k.usable {
				t.Skipf("this host cannot run the %s kernel", k.name)
			}
			useADX = k.adx
			f(t)
		})
	}
}

// mulMod returns a*b mod m with math/big: the product the Montgomery form
// replaced, kept as its oracle.
func mulMod(a, b, m *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), m)
}

// checkMontMul compares one product with math/big's (mulMod)
// and with mulGeneric: into a fresh z, into x, into y, and as a square in
// place when a is b.
func checkMontMul(t *testing.T, m *mont, a, b *big.Int) {
	t.Helper()
	p := m.modulus
	want := mulMod(new(big.Int).Mod(a, p), new(big.Int).Mod(b, p), p)
	x, y := m.enter(a), m.enter(b)
	var z, oracle fe
	m.mul(&z, &x, &y)
	m.mulGeneric(&oracle, &x, &y)
	if z != oracle {
		t.Fatalf("p=%v: %v·%v = %x, mulGeneric %x", p, a, b, z, oracle)
	}
	if fromLimbs(z).Cmp(p) >= 0 {
		t.Fatalf("p=%v: %v·%v left unreduced as %v", p, a, b, fromLimbs(z))
	}
	if got := m.leave(&z); got.Cmp(want) != 0 {
		t.Fatalf("p=%v: %v·%v = %v, oracle %v", p, a, b, got, want)
	}
	if z != m.enter(want) {
		t.Fatalf("p=%v: %v·%v is not the one form of %v", p, a, b, want)
	}
	zx, zy := x, y
	m.mul(&zx, &zx, &y)
	m.mul(&zy, &x, &zy)
	if zx != z || zy != z {
		t.Fatalf("p=%v: %v·%v differs when z aliases an operand", p, a, b)
	}
	if a.Cmp(b) == 0 {
		sq := x
		m.mul(&sq, &sq, &sq)
		if sq != z {
			t.Fatalf("p=%v: %v squared in place differs", p, a)
		}
	}
}

func TestMontMulMatchesBig(t *testing.T) {
	onMontKernels(t, testMontMulMatchesBig)
}

func testMontMulMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, p := range montModuli() {
		m := newMont(p)
		edges := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(p, big.NewInt(1)), fromLimbs(m.r2)}
		for _, a := range edges {
			for _, b := range edges {
				checkMontMul(t, m, a, b)
			}
		}
		for i := 0; i < 300; i++ {
			a, b := new(big.Int).Rand(rng, p), new(big.Int).Rand(rng, p)
			checkMontMul(t, m, a, b)
			checkMontMul(t, m, a, a)
			checkMontMul(t, m, a, edges[i%len(edges)])
		}
		// enter reduces whatever it is given the way big.Int.Exp reads a
		// base; leave undoes it.
		for _, x := range []*big.Int{
			big.NewInt(-7), new(big.Int).Neg(p), new(big.Int).Set(p), new(big.Int).Add(p, big.NewInt(5)),
			new(big.Int).Lsh(big.NewInt(1), 64*limbs), new(big.Int).Lsh(big.NewInt(3), 900),
			new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(3), 900)),
		} {
			in := new(big.Int).Set(x)
			e := m.enter(x)
			if got, want := m.leave(&e), new(big.Int).Mod(x, p); got.Cmp(want) != 0 {
				t.Fatalf("p=%v: enter/leave of %v = %v, want %v", p, x, got, want)
			}
			if x.Cmp(in) != 0 {
				t.Fatalf("enter modified its argument %v", in)
			}
		}
	}
}

func TestMontPowMatchesBig(t *testing.T) {
	onMontKernels(t, testMontPowMatchesBig)
}

func testMontPowMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, p := range montModuli() {
		m := newMont(p)
		bases := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(p, big.NewInt(1)), big.NewInt(3), new(big.Int).Rand(rng, p)}
		exps := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(2), big.NewInt(6561), new(big.Int).Rand(rng, p)}
		for _, b := range bases {
			for _, e := range exps {
				x := m.pow(m.enter(b), e)
				if got, want := m.leave(&x), new(big.Int).Exp(b, e, p); got.Cmp(want) != 0 {
					t.Fatalf("p=%v: %v^%v = %v, oracle %v", p, b, e, got, want)
				}
			}
		}
	}
}

func TestNewMontRefusesBadModulus(t *testing.T) {
	for _, p := range []*big.Int{new(big.Int), big.NewInt(-7), big.NewInt(10), new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 64*limbs), big.NewInt(1))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("newMont(%v) did not panic", p)
				}
			}()
			newMont(p)
		}()
	}
}

// FuzzMontMul compares products of arbitrary integers, signed and
// oversized, with the oracles under each of montModuli, on every kernel
// the host runs.
func FuzzMontMul(f *testing.F) {
	var monts []*mont
	for _, p := range montModuli() {
		monts = append(monts, newMont(p))
	}
	p := testGroup().P
	f.Add([]byte{}, []byte{1}, false, uint8(0))
	f.Add(new(big.Int).Sub(p, big.NewInt(1)).Bytes(), new(big.Int).Sub(p, big.NewInt(1)).Bytes(), false, uint8(0))
	f.Add(p.Bytes(), fromLimbs(monts[0].r2).Bytes(), true, uint8(0))
	f.Add([]byte{6}, []byte{6}, true, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xc4}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xc4}, false, uint8(3))
	f.Fuzz(func(t *testing.T, a, b []byte, neg bool, which uint8) {
		if len(a) > 128 {
			a = a[:128]
		}
		if len(b) > 128 {
			b = b[:128]
		}
		x, y := new(big.Int).SetBytes(a), new(big.Int).SetBytes(b)
		if neg {
			x.Neg(x)
		}
		onMontKernels(t, func(t *testing.T) {
			checkMontMul(t, monts[int(which)%len(monts)], x, y)
		})
	})
}

// TestMontKernelMatchesCPU logs the kernel mont.mul runs and holds it to
// the host: adx exactly where crypto.HasADX holds, which is never off
// amd64 and, on Linux, is where /proc/cpuinfo lists both bmi2 and adx.
func TestMontKernelMatchesCPU(t *testing.T) {
	name := "generic"
	if useADX {
		name = "adx"
	}
	t.Logf("mont.mul kernel: %s", name)
	if useADX != crypto.HasADX() {
		t.Fatalf("kernel %s, but BMI2 and ADX: %v", name, crypto.HasADX())
	}
	if runtime.GOARCH != "amd64" {
		if crypto.HasADX() {
			t.Fatalf("HasADX on %s, which has no MULX/ADX kernel", runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if got := flags["bmi2"] && flags["adx"]; got != crypto.HasADX() {
		t.Errorf("/proc/cpuinfo says BMI2 and ADX %v, HasADX %v", got, crypto.HasADX())
	}
}

// BenchmarkMontMul times one product of the default group on each kernel,
// as the chain x = x·y that an exponentiation runs.
func BenchmarkMontMul(b *testing.B) {
	m := testGroup().m
	rng := rand.New(rand.NewSource(1))
	x, y := m.enter(new(big.Int).Rand(rng, m.modulus)), m.enter(new(big.Int).Rand(rng, m.modulus))
	b.Run("adx", func(b *testing.B) {
		if !crypto.HasADX() {
			b.Skip("this host cannot run the adx kernel")
		}
		for i := 0; i < b.N; i++ {
			montMulADX(&x, &x, &y, &m.p, m.n0)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.mulGeneric(&x, &x, &y)
		}
	})
}
