//go:build !amd64

package crypto

// blockKernels is empty off amd64: SearchNonce runs the portable loop.
var blockKernels []blockKernel

// HasADX reports whether the host runs pvss's MULX/ADX Montgomery kernel,
// which is amd64 assembly: never here.
func HasADX() bool { return false }
