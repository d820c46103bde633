//go:build !amd64

package crypto

// blockKernels is empty off amd64: SearchNonce runs the portable loop.
var blockKernels []blockKernel
