package crypto

import "encoding/binary"

func init() {
	if hasSHANI() {
		searchKernel = searchSHANI
	}
}

//go:noescape
func blockSHANI(dig *[8]uint32, p []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// hasSHANI reports SHA (CPUID.7.0:EBX[29]), SSSE3 (CPUID.1:ECX[9]) and
// SSE4.1 (CPUID.1:ECX[19]): what blockSHANI executes.
func hasSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}

// searchSHANI pads msg in place into a SHA-256 message with an 8-byte nonce
// slot at len(msg), absorbs the blocks before the slot once from the IV, and
// then spends one kernel call on the remaining one or two blocks per nonce.
func searchSHANI(t Target, start, max uint64, msg []byte) (uint64, uint64, bool) {
	slot := len(msg)
	msg = msg[:cap(msg)]
	msg[slot+8] = 0x80
	binary.BigEndian.PutUint64(msg[len(msg)-8:], uint64(slot+8)*8)
	mid := [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
	blockSHANI(&mid, msg[:slot&^63])
	tail := msg[slot&^63:]
	for i := uint64(0); i < max; i++ {
		binary.BigEndian.PutUint64(tail[slot&63:], start+i)
		h := mid
		blockSHANI(&h, tail)
		if limb := uint64(h[0])<<32 | uint64(h[1]); limb < t[0] || limb == t[0] && digestOf(h).BelowTarget(t) {
			return start + i, i + 1, true
		}
	}
	return 0, max, false
}

func digestOf(h [8]uint32) (d Digest) {
	for i, w := range h {
		binary.BigEndian.PutUint32(d[4*i:], w)
	}
	return d
}
