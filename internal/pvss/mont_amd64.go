package pvss

// montMulADX sets z = x·y·R⁻¹ mod p for an odd p < 2^768 with
// n0 = −p⁻¹ mod 2^64, like mulGeneric; z may alias x or y. It executes
// MULX (BMI2) and ADCX/ADOX (ADX): run it only where crypto.HasADX holds.
//
//go:noescape
func montMulADX(z, x, y, p *fe, n0 uint64)
