//go:build !amd64

package crypto

// useAVX512 is false off amd64: SearchNonce runs the portable loop. It is a
// variable only so that the tests can name both backends on every build.
var useAVX512 = false

// searchLanes is amd64 assembly's driver; useAVX512 is never set here, so
// SearchNonce never calls it.
func searchLanes(t Target, start, max uint64, msg []byte) (uint64, uint64, bool) {
	panic("crypto: the AVX-512 PoW search is amd64 only")
}

// HasADX reports whether the host runs pvss's MULX/ADX Montgomery kernel,
// which is amd64 assembly: never here.
func HasADX() bool { return false }
