package crypto

import "encoding/binary"

func init() {
	if hasSHANI() {
		searchKernel = searchSHANI
	}
}

// blockSHANIx2 compresses a into dig[0] and b into dig[1], two lanes per
// pass; len(b) must equal len(a), and only whole 64-byte blocks are read.
//
//go:noescape
func blockSHANIx2(dig *[2][8]uint32, a, b []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

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

// iv is SHA-256's initial chaining value.
var iv = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// searchSHANI pads msg in place into a SHA-256 message with an 8-byte nonce
// slot at len(msg) and absorbs the blocks before the slot once from the IV.
// The remaining one or two blocks are copied to a second lane, and each
// kernel call compresses nonces start+i and start+i+1 side by side. Lane A
// is checked first, and lane B past the budget is ignored, so the result is
// what a one-nonce-at-a-time loop returns.
func searchSHANI(t Target, start, max uint64, msg []byte) (uint64, uint64, bool) {
	slot := len(msg)
	msg = msg[:cap(msg)]
	msg[slot+8] = 0x80
	binary.BigEndian.PutUint64(msg[len(msg)-8:], uint64(slot+8)*8)
	head := msg[:slot&^63]
	mid := [2][8]uint32{iv, iv}
	blockSHANIx2(&mid, head, head)
	a := msg[slot&^63:]
	var lane [128]byte
	b := lane[:copy(lane[:], a)]
	for i := uint64(0); i < max; i += 2 {
		binary.BigEndian.PutUint64(a[slot&63:], start+i)
		binary.BigEndian.PutUint64(b[slot&63:], start+i+1)
		h := mid
		blockSHANIx2(&h, a, b)
		if meets(h[0], t) {
			return start + i, i + 1, true
		}
		if i+1 == max {
			break // an odd budget's last pair: lane B is past it
		}
		if meets(h[1], t) {
			return start + i + 1, i + 2, true
		}
	}
	return 0, max, false
}

// meets reports whether the digest with state h is at or below t, deciding
// on the first limb alone unless it ties.
func meets(h [8]uint32, t Target) bool {
	limb := uint64(h[0])<<32 | uint64(h[1])
	return limb < t[0] || limb == t[0] && digestOf(h).BelowTarget(t)
}

func digestOf(h [8]uint32) (d Digest) {
	for i, w := range h {
		binary.BigEndian.PutUint32(d[4*i:], w)
	}
	return d
}
