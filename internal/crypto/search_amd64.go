package crypto

import "encoding/binary"

// The amd64 PoW search: two SHA-256 block kernels (search_amd64.s) and one
// loop, searchLanes, that drives either. blockAVX512x8 compresses eight
// nonces per pass on AVX-512VL and blockSHANIx2 two on the SHA extensions.
// At init CPUID picks the widest the host runs (with XGETBV for the OS's
// consent to the AVX-512 state); a host with neither runs the portable loop.

// blockKernels lists the amd64 block kernels, widest first. Both run
// searchLanes, which dispatches on the lane count.
var blockKernels = []blockKernel{
	{name: "avx512", lanes: 8, usable: hasAVX512, search: searchLanes},
	{name: "shani", lanes: 2, usable: hasSHANI, search: searchLanes},
}

// blockSHANIx2 compresses a into dig[0] and b into dig[1], two lanes per
// pass; len(b) must equal len(a), and only whole 64-byte blocks are read.
//
//go:noescape
func blockSHANIx2(dig *[2][8]uint32, a, b []byte)

// blockAVX512x8 compresses p[k] into dig[k], eight lanes per pass, each
// lane from the chaining value h; every p[k] must be as long as p[0], and
// only whole 64-byte blocks are read.
//
//go:noescape
func blockAVX512x8(dig *[8][8]uint32, h *[8]uint32, p *[8][]byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasSHANI reports SHA (CPUID.7.0:EBX[29]), SSSE3 (CPUID.1:ECX[9]) and
// SSE4.1 (CPUID.1:ECX[19]): what blockSHANIx2 executes.
func hasSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}

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

// shaniHost caches hasSHANI for searchLanes' midstate.
var shaniHost = hasSHANI()

// iv is SHA-256's initial chaining value.
var iv = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// searchLanes pads msg in place into a SHA-256 message with an 8-byte nonce
// slot at len(msg) and absorbs the blocks before the slot once from the IV.
// The remaining one or two blocks are copied to each of the kernel's w
// lanes, and a pass writes nonces start+i … start+i+w−1 into them and
// compresses all w from that midstate. Lanes are checked in nonce order and
// those past the budget are ignored, so the result is what a
// one-nonce-at-a-time loop returns.
func searchLanes(w int, t Target, start, max uint64, msg []byte) (uint64, uint64, bool) {
	slot := len(msg)
	msg = msg[:cap(msg)]
	msg[slot+8] = 0x80
	binary.BigEndian.PutUint64(msg[len(msg)-8:], uint64(slot+8)*8)
	var (
		tails [8][128]byte
		p     [8][]byte
		dig   [8][8]uint32
	)
	for k := range p {
		p[k] = msg[:slot&^63]
	}
	// The fixed blocks are one message: where the host has SHA-NI, its
	// kernel absorbs them faster than eight lanes repeating one another.
	if shaniHost {
		compress(2, &dig, &iv, &p)
	} else {
		compress(w, &dig, &iv, &p)
	}
	mid := dig[0]
	tail, o := msg[slot&^63:], slot&63
	for k := range tails[:w] {
		p[k] = tails[k][:copy(tails[k][:], tail)]
	}
	for i := uint64(0); i < max; i += uint64(w) {
		for k := range tails[:w] {
			binary.BigEndian.PutUint64(tails[k][o:], start+i+uint64(k))
		}
		compress(w, &dig, &mid, &p)
		// The first limb rejects almost every lane without a call.
		for k := range dig[:min(uint64(w), max-i)] {
			if limb := uint64(dig[k][0])<<32 | uint64(dig[k][1]); limb <= t[0] && meets(&dig[k], t) {
				return start + i + uint64(k), i + uint64(k) + 1, true
			}
		}
	}
	return 0, max, false
}

// compress runs the w-lane kernel: p[k] into dig[k] for k < w, each lane
// from the chaining value h.
func compress(w int, dig *[8][8]uint32, h *[8]uint32, p *[8][]byte) {
	if w == 8 {
		blockAVX512x8(dig, h, p)
		return
	}
	dig[0], dig[1] = *h, *h
	blockSHANIx2((*[2][8]uint32)(dig[:2]), p[0], p[1])
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
