package consensus

import (
	"reflect"
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

// headerKey names a proposal header among those of one (round, leader): its
// instance and the digest the leader signed.
type headerKey struct {
	sn     uint64
	digest crypto.Digest
}

// VerifiedEchoes holds what has passed a check for the instances of one
// (round, leader), so that the endpoints of one committee check each shared
// input once, not once per member.
//
// Echoes. An echo's verdict is a pure function of the bytes Verify reads —
// its signing bytes (round, sn, digest, echoer, leader) and its signature —
// and of the echoer's key, so endpoints that share a scheme and a PKI need
// not verify again what one of them has: in Algorithm 3's echo round every
// member is shown every other member's echo, c(c−1) checks of c−1 distinct
// messages. A hit is exact: the set's round and leader, and the echo's sn,
// echoer, digest and signature bytes, equal those of an echo that verified.
//
// Proposals. The leader's signature on a header (round, sn, digest, leader)
// is held the same way, keyed (sn, digest) → signature bytes, whether the
// header came in a PROPOSE or inside an echo. A proposal's payload is
// matched to its digest by PayloadDigest; a pointer payload that matched is
// kept under (sn, digest), and the same pointer shown again under that key
// is not encoded again. A pointer payload is never written once proposed
// (like a *Block or a *ledger.Tx), so its encoding is fixed by its address.
// A value payload, or another pointer, is always digested.
//
// Only successes are kept, so a forged or mutated message is checked afresh
// every time it is shown and never occupies memory. It is safe for
// concurrent use.
type VerifiedEchoes struct {
	round  uint64
	leader simnet.NodeID

	mu       sync.RWMutex
	ok       map[echoKey]string   // the echo's signature bytes
	headers  map[headerKey]string // the leader's signature bytes
	payloads map[headerKey]any    // a pointer payload that digested to the key's digest
}

// NewVerifiedEchoes returns an empty set for the instances leader leads
// in round.
func NewVerifiedEchoes(round uint64, leader simnet.NodeID) *VerifiedEchoes {
	return &VerifiedEchoes{
		round: round, leader: leader,
		ok:       make(map[echoKey]string),
		headers:  make(map[headerKey]string),
		payloads: make(map[headerKey]any),
	}
}

// Len returns how many distinct echoes have been recorded. Each cost one
// verification (two endpoints that first see an echo at the same instant
// may each pay for it).
func (v *VerifiedEchoes) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.ok)
}

// covers reports whether a message of round and leader belongs in the set.
// A nil set covers nothing: it holds nothing and records nothing.
func (v *VerifiedEchoes) covers(round uint64, leader simnet.NodeID) bool {
	return v != nil && round == v.round && leader == v.leader
}

// holds reports whether an echo with e's exact bytes has verified.
func (v *VerifiedEchoes) holds(e *Echo) bool {
	if !v.covers(e.Round, e.Leader) {
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
	if !v.covers(e.Round, e.Leader) {
		return
	}
	v.mu.Lock()
	v.ok[echoKey{e.SN, e.Echoer, e.Digest}] = string(e.Sig)
	v.mu.Unlock()
}

// holdsHeader reports whether a header with prop's exact signed fields and
// signature bytes has verified.
func (v *VerifiedEchoes) holdsHeader(prop *Propose) bool {
	if !v.covers(prop.Round, prop.Leader) {
		return false
	}
	v.mu.RLock()
	sig, ok := v.headers[headerKey{prop.SN, prop.Digest}]
	v.mu.RUnlock()
	return ok && sig == string(prop.Sig)
}

// addHeader records prop's header, which has just verified; as for echoes,
// a second signature encoding replaces the first.
func (v *VerifiedEchoes) addHeader(prop *Propose) {
	if !v.covers(prop.Round, prop.Leader) {
		return
	}
	v.mu.Lock()
	v.headers[headerKey{prop.SN, prop.Digest}] = string(prop.Sig)
	v.mu.Unlock()
}

// matched reports whether prop's payload is the very pointer that was
// matched to prop's (sn, digest). The set holds pointers only, so a value
// payload compares unequal to every entry (without panicking: the dynamic
// types differ) and matches nothing.
func (v *VerifiedEchoes) matched(prop *Propose) bool {
	if !v.covers(prop.Round, prop.Leader) {
		return false
	}
	v.mu.RLock()
	p, ok := v.payloads[headerKey{prop.SN, prop.Digest}]
	v.mu.RUnlock()
	return ok && p == prop.Payload
}

// addMatch records that prop's payload digested to prop's digest. Only a
// pointer is kept: a value is compared by content, which would cost what
// the digest it saves does.
func (v *VerifiedEchoes) addMatch(prop *Propose) {
	if !v.covers(prop.Round, prop.Leader) || !isPointer(prop.Payload) {
		return
	}
	v.mu.Lock()
	v.payloads[headerKey{prop.SN, prop.Digest}] = prop.Payload
	v.mu.Unlock()
}

// isPointer reports whether payload is a pointer, which == compares by
// identity.
func isPointer(payload any) bool {
	t := reflect.TypeOf(payload)
	return t != nil && t.Kind() == reflect.Pointer
}
