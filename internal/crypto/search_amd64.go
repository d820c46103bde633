package crypto

import "encoding/binary"

// The amd64 PoW search: one SHA-256 block kernel, blockAVX512x8
// (search_amd64.s), which compresses eight nonces per pass on AVX-512VL,
// and the loop searchLanes that drives it. CPUID and XGETBV (the OS's
// consent to the AVX-512 state) decide at init whether the host runs it; a
// host that does not runs the portable loop.

// useAVX512 picks SearchNonce's backend once, at init: searchLanes where
// the host runs blockAVX512x8, else the portable midstate loop. Tests swap
// it to run both on one host.
var useAVX512 = hasAVX512()

// blockAVX512x8 compresses p[k] into dig[k], eight lanes per pass, each
// lane from the chaining value h; every p[k] must be as long as p[0], and
// only whole 64-byte blocks are read.
//
//go:noescape
func blockAVX512x8(dig *[8][8]uint32, h *[8]uint32, p *[8][]byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX512 reports what blockAVX512x8 executes, AVX2, AVX512F and
// AVX512VL (CPUID.7.0:EBX[5], [16] and [31]), and that the OS saves the
// state it touches: OSXSAVE (CPUID.1:ECX[27]) set and XCR0's SSE, AVX,
// opmask, ZMM_Hi256 and Hi16_ZMM bits (1, 2, 5, 6 and 7) enabled. Y16–Y31
// live in Hi16_ZMM.
func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false
	}
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if eax, _ := xgetbv(); eax&xcr0 != xcr0 {
		return false
	}
	const ebx7 = 1<<5 | 1<<16 | 1<<31
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&ebx7 == ebx7
}

// HasADX reports BMI2 (CPUID.7.0:EBX[8]) and ADX (CPUID.7.0:EBX[19]): the
// MULX and ADCX/ADOX that pvss's Montgomery kernel executes. It is false
// off amd64.
func HasADX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const ebx7 = 1<<8 | 1<<19
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&ebx7 == ebx7
}

// iv is SHA-256's initial chaining value.
var iv = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// searchLanes pads msg in place into a SHA-256 message with an 8-byte nonce
// slot at len(msg) and absorbs the blocks before the slot once from the IV.
// The remaining one or two blocks are copied to each of the eight lanes,
// and a pass writes nonces start+i … start+i+7 into them and compresses
// all eight from that midstate. Lanes are checked in nonce order and those
// past the budget are ignored, so the result is what a one-nonce-at-a-time
// loop returns.
func searchLanes(t Target, start, max uint64, msg []byte) (uint64, uint64, bool) {
	const w = 8
	slot := len(msg)
	msg = msg[:cap(msg)]
	msg[slot+8] = 0x80
	binary.BigEndian.PutUint64(msg[len(msg)-8:], uint64(slot+8)*8)
	var (
		tails [w][128]byte
		p     [w][]byte
		dig   [w][8]uint32
	)
	for k := range p {
		p[k] = msg[:slot&^63]
	}
	blockAVX512x8(&dig, &iv, &p)
	mid := dig[0]
	tail, o := msg[slot&^63:], slot&63
	for k := range tails {
		p[k] = tails[k][:copy(tails[k][:], tail)]
	}
	for i := uint64(0); i < max; i += w {
		for k := range tails {
			binary.BigEndian.PutUint64(tails[k][o:], start+i+uint64(k))
		}
		blockAVX512x8(&dig, &mid, &p)
		// The first limb rejects almost every lane without a call.
		for k := range dig[:min(w, max-i)] {
			if limb := uint64(dig[k][0])<<32 | uint64(dig[k][1]); limb <= t[0] && meets(&dig[k], t) {
				return start + i + uint64(k), i + uint64(k) + 1, true
			}
		}
	}
	return 0, max, false
}

// meets reports whether the digest with state h is at or below t, deciding
// on the first limb alone unless it ties.
func meets(h *[8]uint32, t Target) bool {
	limb := uint64(h[0])<<32 | uint64(h[1])
	return limb < t[0] || limb == t[0] && digestOf(*h).BelowTarget(t)
}

func digestOf(h [8]uint32) (d Digest) {
	for i, w := range h {
		binary.BigEndian.PutUint32(d[4*i:], w)
	}
	return d
}
