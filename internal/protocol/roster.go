package protocol

import (
	"slices"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

// Role is a node's seat in the current round.
type Role int

// Roles, per Fig. 1 of the paper.
const (
	RoleCommon Role = iota
	RolePartial
	RoleLeader
	RoleReferee
	RoleIdle // did not participate this round (failed/skipped PoW)
)

func (r Role) String() string {
	switch r {
	case RoleCommon:
		return "common"
	case RolePartial:
		return "partial"
	case RoleLeader:
		return "leader"
	case RoleReferee:
		return "referee"
	default:
		return "idle"
	}
}

// Roster fixes who plays which role in a round. Leaders and partial sets
// for round r are selected during round r-1 (§IV-F); common members join
// their committees during the configuration phase via sortition.
type Roster struct {
	Round      uint64
	Randomness crypto.Digest
	M          uint64

	Referee  []simnet.NodeID
	Leaders  []simnet.NodeID   // Leaders[k] leads committee k
	Partials [][]simnet.NodeID // Partials[k] is committee k's partial set

	// Commons[k] is filled in by sortition at configuration time.
	Commons [][]simnet.NodeID

	// places is the seat table, indexed by NodeID: each node's role and
	// committee, RoleIdle past the end and for a node the roster does not
	// name. linkClass reads it on every send.
	places []place

	// Cached role-index slices. Accessors used to rebuild these on every
	// call — an O(n) scan per lookup that dominated recipient fan-outs at
	// large rosters. They are built lazily and invalidated whenever
	// membership changes; callers must treat the returned slices as
	// read-only (every in-repo consumer only ranges over them).
	cCommittees [][]simnet.NodeID
	cKeyMembers [][]simnet.NodeID
	cAllKey     []simnet.NodeID
	cAllNodes   []simnet.NodeID
	cCommons    []simnet.NodeID
}

// invalidate drops the cached role indexes after a membership change.
func (r *Roster) invalidate() {
	r.cCommittees = nil
	r.cKeyMembers = nil
	r.cAllKey = nil
	r.cAllNodes = nil
	r.cCommons = nil
}

// warm eagerly rebuilds every cached role index. The lazy rebuild in the
// accessors is not goroutine-safe, so the engine calls warm on its
// single-threaded round-driving goroutine whenever the live roster
// changes — at install on a round boundary and after mid-round leader
// evictions — guaranteeing the parallel message handlers only ever read
// already-built caches.
func (r *Roster) warm() {
	for k := uint64(0); k < r.M; k++ {
		r.Committee(k)
		r.KeyMembers(k)
	}
	r.AllKeyMembers()
	r.AllNodes()
	r.CommonsOfAll()
}

func newRoster(round uint64, randomness crypto.Digest, m uint64) *Roster {
	return &Roster{
		Round:      round,
		Randomness: randomness,
		M:          m,
		Partials:   make([][]simnet.NodeID, m),
		Commons:    make([][]simnet.NodeID, m),
		Leaders:    make([]simnet.NodeID, m),
	}
}

// place is one node's row of the seat table: its role and, for a leader,
// partial or common member, the committee it serves.
type place struct {
	role Role
	com  uint64
}

// placeOf returns id's row; an ID the table does not reach is idle.
func (r *Roster) placeOf(id simnet.NodeID) place {
	if id < 0 || int(id) >= len(r.places) {
		return place{role: RoleIdle}
	}
	return r.places[id]
}

// seat writes id's row, growing the table to reach it.
func (r *Roster) seat(id simnet.NodeID, role Role, k uint64) {
	for int(id) >= len(r.places) {
		r.places = append(r.places, place{role: RoleIdle})
	}
	r.places[id] = place{role: role, com: k}
}

func (r *Roster) setReferee(ids []simnet.NodeID) {
	r.Referee = ids
	for _, id := range ids {
		r.seat(id, RoleReferee, 0)
	}
	r.invalidate()
}

func (r *Roster) setLeader(k uint64, id simnet.NodeID) {
	r.Leaders[k] = id
	r.seat(id, RoleLeader, k)
	r.invalidate()
}

func (r *Roster) addPartial(k uint64, id simnet.NodeID) {
	r.Partials[k] = append(r.Partials[k], id)
	r.seat(id, RolePartial, k)
	r.invalidate()
}

func (r *Roster) addCommon(k uint64, id simnet.NodeID) {
	r.Commons[k] = append(r.Commons[k], id)
	r.seat(id, RoleCommon, k)
	r.invalidate()
}

// RoleOf returns the node's role (RoleIdle if absent).
func (r *Roster) RoleOf(id simnet.NodeID) Role { return r.placeOf(id).role }

// CommitteeOf returns the committee a non-referee node serves.
func (r *Roster) CommitteeOf(id simnet.NodeID) (uint64, bool) {
	p := r.placeOf(id)
	return p.com, p.role != RoleReferee && p.role != RoleIdle
}

// Committee returns every member of committee k (leader first, then
// partial set, then commons), sorted within each group. The slice is a
// cached index rebuilt only after membership changes; treat it as
// read-only.
func (r *Roster) Committee(k uint64) []simnet.NodeID {
	if r.cCommittees == nil {
		r.cCommittees = make([][]simnet.NodeID, r.M)
	}
	if r.cCommittees[k] == nil {
		out := make([]simnet.NodeID, 0, 1+len(r.Partials[k])+len(r.Commons[k]))
		out = append(out, r.Leaders[k])
		out = append(out, r.Partials[k]...)
		out = append(out, r.Commons[k]...)
		r.cCommittees[k] = out
	}
	return r.cCommittees[k]
}

// KeyMembers returns committee k's leader and partial set. The slice is a
// cached index; treat it as read-only.
func (r *Roster) KeyMembers(k uint64) []simnet.NodeID {
	if r.cKeyMembers == nil {
		r.cKeyMembers = make([][]simnet.NodeID, r.M)
	}
	if r.cKeyMembers[k] == nil {
		out := make([]simnet.NodeID, 0, 1+len(r.Partials[k]))
		out = append(out, r.Leaders[k])
		out = append(out, r.Partials[k]...)
		r.cKeyMembers[k] = out
	}
	return r.cKeyMembers[k]
}

// AllKeyMembers returns the leaders and partial-set members of every
// committee — the node set with Γ-bounded links in the network model.
// The slice is a cached index; treat it as read-only.
func (r *Roster) AllKeyMembers() []simnet.NodeID {
	if r.cAllKey == nil {
		var out []simnet.NodeID
		for k := uint64(0); k < r.M; k++ {
			out = append(out, r.KeyMembers(k)...)
		}
		if out == nil {
			out = []simnet.NodeID{}
		}
		r.cAllKey = out
	}
	return r.cAllKey
}

// AllNodes returns every participating node this round. The slice is a
// cached index; treat it as read-only.
func (r *Roster) AllNodes() []simnet.NodeID {
	if r.cAllNodes == nil {
		out := []simnet.NodeID{}
		for id, p := range r.places {
			if p.role != RoleIdle {
				out = append(out, simnet.NodeID(id))
			}
		}
		r.cAllNodes = out
	}
	return r.cAllNodes
}

// CommonsOfAll returns all common members across committees. The slice is
// a cached index; treat it as read-only.
func (r *Roster) CommonsOfAll() []simnet.NodeID {
	if r.cCommons == nil {
		out := []simnet.NodeID{}
		for _, cs := range r.Commons {
			out = append(out, cs...)
		}
		r.cCommons = out
	}
	return r.cCommons
}

// ReplaceLeader installs a new leader for committee k after a recovery
// (§V-D): the new leader leaves the partial set; the evicted node is
// demoted to common member (it stays connected but holds no key seat).
// Both rows of the seat table change here, so the links of both are
// classified by their new roles from the next send on. The mutations bypass
// the invalidate-everything mutators so the caches a replacement cannot
// change survive; rewarmReplace rebuilds the rest.
func (r *Roster) ReplaceLeader(k uint64, evicted, successor simnet.NodeID) {
	r.Leaders[k] = successor
	r.seat(successor, RoleLeader, k)
	r.seat(evicted, RoleCommon, k)
	// Remove the successor from the partial set.
	ps := r.Partials[k][:0]
	for _, id := range r.Partials[k] {
		if id != successor {
			ps = append(ps, id)
		}
	}
	r.Partials[k] = ps
	r.Commons[k] = append(r.Commons[k], evicted)
	slices.Sort(r.Commons[k])
	r.rewarmReplace(k)
}

// rewarmReplace rebuilds only the cached indexes a leader replacement in
// committee k can change: that committee's member lists, the global
// key-member set, and the commons set. The participating node set is
// untouched (the evicted leader stays as a common member), so cAllNodes
// survives — the full warm()'s O(n log n) node re-sort was the dominant
// cost of recovery rounds at large rosters. Rebuilding runs eagerly on
// the caller's goroutine, preserving warm()'s contract that the parallel
// message handlers only ever read already-built caches.
func (r *Roster) rewarmReplace(k uint64) {
	if r.cCommittees != nil {
		r.cCommittees[k] = nil
	}
	if r.cKeyMembers != nil {
		r.cKeyMembers[k] = nil
	}
	r.cAllKey = nil
	r.cCommons = nil
	r.Committee(k)
	r.KeyMembers(k)
	r.AllKeyMembers()
	r.CommonsOfAll()
}

// linkClass classifies a link for the latency model: intra-committee (or
// intra-referee) links are Δ-bounded; links among key members and referee
// members are Γ-bounded; everything else is partially synchronous.
func (r *Roster) linkClass(from, to simnet.NodeID) simnet.LinkClass {
	f, t := r.placeOf(from), r.placeOf(to)
	fr, tr := f.role, t.role
	if fr == RoleIdle || tr == RoleIdle {
		return simnet.LinkPartial
	}
	if fr == RoleReferee && tr == RoleReferee {
		return simnet.LinkIntra
	}
	if fr != RoleReferee && tr != RoleReferee && f.com == t.com {
		return simnet.LinkIntra
	}
	// Cross-committee: synchronous only among key members (and between
	// key members and the referee committee).
	fKey := fr == RoleLeader || fr == RolePartial || fr == RoleReferee
	tKey := tr == RoleLeader || tr == RolePartial || tr == RoleReferee
	if fKey && tKey {
		return simnet.LinkKey
	}
	return simnet.LinkPartial
}
