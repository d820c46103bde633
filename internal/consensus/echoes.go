package consensus

import (
	"bytes"
	"reflect"
	"slices"
	"sync"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

// headerKey names a proposal header among those of one (round, leader): its
// instance and the digest the leader signed.
type headerKey struct {
	sn     uint64
	digest crypto.Digest
}

// echoRow holds the echoes of one instance that verified, each at its
// echoer's position in the roster of the endpoint that verified it. Like an
// instance's slots, an entry names its digest by index in digests.
type echoRow struct {
	sn      uint64
	at      []echoEntry
	digests []crypto.Digest
}

// echoEntry is an echo that verified: its signature bytes, as the echo
// carried them (a delivered message is never written), its echoer and the
// index in its row's digests of the digest it endorses. An entry with no
// signature is empty.
type echoEntry struct {
	sig    []byte
	echoer simnet.NodeID
	digest int32
}

// seats is a roster's position index: pos[id] is id's position in roster,
// -1 for an ID below len(pos) that roster does not hold. An ID that is
// negative or past the table's end has no position either. Built once, it is
// read without a lock.
type seats struct {
	roster []simnet.NodeID
	pos    []int32
}

// newSeats indexes roster. A member listed twice holds its last position, and
// the table is as long as roster's largest ID, so roster is one the engine
// drew from its population, never one a message supplied.
func newSeats(roster []simnet.NodeID) *seats {
	top := simnet.NodeID(-1)
	for _, id := range roster {
		top = max(top, id)
	}
	s := &seats{roster: roster, pos: make([]int32, int(top)+1)}
	for i := range s.pos {
		s.pos[i] = -1
	}
	for i, id := range roster {
		if id >= 0 {
			s.pos[id] = int32(i)
		}
	}
	return s
}

// of returns id's position in the roster.
func (s *seats) of(id simnet.NodeID) (int, bool) {
	if id < 0 || int(id) >= len(s.pos) {
		return -1, false
	}
	i := s.pos[id]
	return int(i), i >= 0
}

// VerifiedEchoes holds what has passed a check for the instances of one
// (round, leader), so that the endpoints of one committee check each shared
// input once, not once per member, and the roster index those endpoints look
// their senders up in.
//
// Rosters. Every endpoint on the set whose Committee is equal to another's
// reads the one position index built for that roster (seatsFor): in
// Algorithm 3's echo round each of the c members is shown c−1 echoes, and
// one table that they all read stays in cache where c tables would not.
//
// Echoes. An echo's verdict is a pure function of the bytes Verify reads —
// its signing bytes (round, sn, digest, echoer, leader) and its signature —
// and of the echoer's key, so endpoints that share a scheme and a PKI need
// not verify again what one of them has: in Algorithm 3's echo round every
// member is shown every other member's echo, c(c−1) checks of c−1 distinct
// messages. A verified echo is kept per instance at its echoer's position,
// and a hit is exact: the set's round and leader, and the echo's sn, echoer,
// digest and signature bytes, equal those of an echo that verified. A
// position names no one on its own: endpoints whose rosters differ may file
// different echoers at one position, and the echoer comparison keeps each
// from taking the other's entry.
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
	rosters  []*seats
	echoes   []echoRow            // one per instance, searched by sn
	headers  map[headerKey][]byte // the leader's signature bytes, as shown
	payloads map[headerKey]any    // a pointer payload that digested to the key's digest
}

// NewVerifiedEchoes returns an empty set for the instances leader leads
// in round.
func NewVerifiedEchoes(round uint64, leader simnet.NodeID) *VerifiedEchoes {
	return &VerifiedEchoes{
		round: round, leader: leader,
		headers:  make(map[headerKey][]byte),
		payloads: make(map[headerKey]any),
	}
}

// seatsFor returns roster's position index: the one every endpoint on the set
// with an equal roster reads, built by the first to ask. A nil set builds one
// for the caller alone.
func (v *VerifiedEchoes) seatsFor(roster []simnet.NodeID) *seats {
	if v == nil {
		return newSeats(roster)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, s := range v.rosters {
		if slices.Equal(s.roster, roster) {
			return s
		}
	}
	s := newSeats(roster)
	v.rosters = append(v.rosters, s)
	return s
}

// Len returns how many distinct echoes have been recorded. Each cost one
// verification (two endpoints that first see an echo at the same instant
// may each pay for it).
func (v *VerifiedEchoes) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	for _, r := range v.echoes {
		for _, x := range r.at {
			if x.sig != nil {
				n++
			}
		}
	}
	return n
}

// covers reports whether a message of round and leader belongs in the set.
// A nil set covers nothing: it holds nothing and records nothing.
func (v *VerifiedEchoes) covers(round uint64, leader simnet.NodeID) bool {
	return v != nil && round == v.round && leader == v.leader
}

// row returns sn's row, nil if no echo of sn has verified. Call with mu held.
func (v *VerifiedEchoes) row(sn uint64) *echoRow {
	for i := range v.echoes {
		if v.echoes[i].sn == sn {
			return &v.echoes[i]
		}
	}
	return nil
}

// holds reports whether an echo with e's exact bytes has verified at
// position i.
func (v *VerifiedEchoes) holds(e *Echo, i int) bool {
	if !v.covers(e.Round, e.Leader) {
		return false
	}
	hit := false
	v.mu.RLock()
	if r := v.row(e.SN); r != nil && i < len(r.at) {
		x := &r.at[i]
		hit = x.sig != nil && x.echoer == e.Echoer && r.digests[x.digest] == e.Digest && bytes.Equal(x.sig, e.Sig)
	}
	v.mu.RUnlock()
	return hit
}

// add records e, which has just verified, at position i of a roster of size
// members. A position holds one echo: another that verifies there replaces
// it. A row is made at the roster's size when its first echo verifies.
func (v *VerifiedEchoes) add(e *Echo, i, size int) {
	if !v.covers(e.Round, e.Leader) || len(e.Sig) == 0 {
		return
	}
	v.mu.Lock()
	r := v.row(e.SN)
	if r == nil {
		v.echoes = append(v.echoes, echoRow{sn: e.SN})
		r = &v.echoes[len(v.echoes)-1]
	}
	if i >= len(r.at) {
		r.at = append(r.at, make([]echoEntry, max(size, i+1)-len(r.at))...)
	}
	d := slices.Index(r.digests, e.Digest)
	if d < 0 {
		d = len(r.digests)
		r.digests = append(r.digests, e.Digest)
	}
	r.at[i] = echoEntry{sig: e.Sig, echoer: e.Echoer, digest: int32(d)}
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
	return ok && bytes.Equal(sig, prop.Sig)
}

// addHeader records prop's header, which has just verified; as for echoes,
// a second signature encoding replaces the first.
func (v *VerifiedEchoes) addHeader(prop *Propose) {
	if !v.covers(prop.Round, prop.Leader) {
		return
	}
	v.mu.Lock()
	v.headers[headerKey{prop.SN, prop.Digest}] = prop.Sig
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
