package consensus

import (
	"sync"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

// echoKey names an echo among those of one (round, leader): its instance,
// its echoer and the digest it endorses.
type echoKey struct {
	sn     uint64
	echoer simnet.NodeID
	digest crypto.Digest
}

// VerifiedEchoes holds the echoes that have passed Scheme.Verify for the
// instances of one (round, leader). An echo's verdict is a pure function
// of the bytes Verify reads — its signing bytes (round, sn, digest, echoer,
// leader) and its signature — and of the echoer's key, so endpoints that
// share a scheme and a PKI need not verify again what one of them has: in
// Algorithm 3's echo round every member is shown every other member's
// echo, c(c−1) checks of c−1 distinct messages. A hit is exact: the set's
// round and leader, and the echo's sn, echoer, digest and signature bytes,
// equal those of an echo that verified. (The leader's signature an echo
// relays is outside the echoer's and is checked on its own, per instance.)
// Only successes are kept, so a forged or mutated echo is verified afresh
// every time it is shown and never occupies memory. It is safe for
// concurrent use.
type VerifiedEchoes struct {
	round  uint64
	leader simnet.NodeID

	mu sync.RWMutex
	ok map[echoKey]string // the echo's signature bytes
}

// NewVerifiedEchoes returns an empty set for the instances leader leads
// in round.
func NewVerifiedEchoes(round uint64, leader simnet.NodeID) *VerifiedEchoes {
	return &VerifiedEchoes{round: round, leader: leader, ok: make(map[echoKey]string)}
}

// Len returns how many distinct echoes have been recorded. Each cost one
// verification (two endpoints that first see an echo at the same instant
// may each pay for it).
func (v *VerifiedEchoes) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.ok)
}

// holds reports whether an echo with e's exact bytes has verified. A nil
// set holds nothing.
func (v *VerifiedEchoes) holds(e *Echo) bool {
	if v == nil || e.Round != v.round || e.Leader != v.leader {
		return false
	}
	v.mu.RLock()
	sig, ok := v.ok[echoKey{e.SN, e.Echoer, e.Digest}]
	v.mu.RUnlock()
	return ok && sig == string(e.Sig)
}

// add records e, which has just verified. A key holds one signature: a
// second encoding that verifies under it replaces the first.
func (v *VerifiedEchoes) add(e *Echo) {
	if v == nil || e.Round != v.round || e.Leader != v.leader {
		return
	}
	v.mu.Lock()
	v.ok[echoKey{e.SN, e.Echoer, e.Digest}] = string(e.Sig)
	v.mu.Unlock()
}
