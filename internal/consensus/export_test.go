package consensus

// Decided reports whether the leader reached a decision for sn.
func (p *Protocol) Decided(sn uint64) bool {
	in, ok := p.insts[sn]
	return ok && in.decided
}
