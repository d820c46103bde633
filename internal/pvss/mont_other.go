//go:build !amd64

package pvss

// montMulADX is amd64 assembly; crypto.HasADX is false elsewhere, so the
// kernel that calls it is never chosen.
func montMulADX(z, x, y, p *fe, n0 uint64) {
	panic("pvss: the MULX/ADX kernel is amd64 only")
}
