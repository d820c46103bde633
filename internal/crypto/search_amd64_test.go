package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// pad appends SHA-256's padding to a copy of m.
func pad(m []byte) []byte {
	p := append(append([]byte(nil), m...), 0x80)
	for len(p)%64 != 56 {
		p = append(p, 0)
	}
	return binary.BigEndian.AppendUint64(p, uint64(len(m))*8)
}

// TestBlockAVX512x8MatchesSHA256 runs the eight-lane kernel from the IV on
// messages padded by hand, one to three blocks long, and holds each lane
// to the standard library: once with a different message in every lane,
// once with the same slice in all eight.
func TestBlockAVX512x8MatchesSHA256(t *testing.T) {
	if !hasAVX512() {
		t.Skip("no AVX-512VL on this host: the kernel cannot run")
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 183; n++ {
		var distinct, same [8][]byte
		var msgs [8][]byte
		for k := range distinct {
			msgs[k] = make([]byte, n)
			rng.Read(msgs[k])
			distinct[k] = pad(msgs[k])
			same[k] = distinct[0]
		}
		for _, c := range []struct {
			name string
			p    *[8][]byte
			m    func(lane int) []byte
		}{
			{"distinct", &distinct, func(lane int) []byte { return msgs[lane] }},
			{"same", &same, func(int) []byte { return msgs[0] }},
		} {
			var dig [8][8]uint32
			blockAVX512x8(&dig, &iv, c.p)
			for lane := range dig {
				if got, want := digestOf(dig[lane]), Digest(sha256.Sum256(c.m(lane))); got != want {
					t.Fatalf("%d bytes, %s lanes: lane %d = %x, want %x", n, c.name, lane, got, want)
				}
			}
		}
	}
}

// TestSearchKernelMatchesCPU logs the kernel SearchNonce runs and holds it
// to the feature bits, read here from CPUID and XCR0 independently of
// hasAVX512, and, on Linux, to the flags the kernel reports. It also holds
// HasADX, pvss's kernel probe, to CPUID.
func TestSearchKernelMatchesCPU(t *testing.T) {
	name := "portable"
	if useAVX512 {
		name = "avx512"
	}
	t.Logf("SearchNonce kernel: %s (%d lanes)", name, lanes())
	bit := func(r uint32, i uint) bool { return r>>i&1 == 1 }
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	osAVX512 := false
	if bit(ecx1, 27) {
		xcr0, _ := xgetbv()
		osAVX512 = bit(xcr0, 1) && bit(xcr0, 2) && bit(xcr0, 5) && bit(xcr0, 6) && bit(xcr0, 7)
	}
	avx512 := osAVX512 && bit(ebx7, 5) && bit(ebx7, 16) && bit(ebx7, 31)
	if useAVX512 != avx512 {
		t.Fatalf("kernel %s, but AVX-512VL usable: %v", name, avx512)
	}
	if hasAVX512() != avx512 {
		t.Fatalf("hasAVX512 %v; the feature bits say %v", hasAVX512(), avx512)
	}
	if adx := bit(ebx7, 8) && bit(ebx7, 19); HasADX() != adx {
		t.Fatalf("HasADX %v; the feature bits say BMI2 and ADX %v", HasADX(), adx)
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
	// Linux lists the AVX-512 flags only where it enables their state.
	if got := flags["avx2"] && flags["avx512f"] && flags["avx512vl"]; got != avx512 {
		t.Errorf("/proc/cpuinfo says AVX-512VL usable %v, the feature bits %v", got, avx512)
	}
}
