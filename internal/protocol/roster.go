package protocol

import (
	"slices"

	"cycledger/internal/crypto"
	"cycledger/internal/pow"
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
// their committees by sortition (Algorithm 1).
//
// A roster is built in two steps: its builder writes the four seat lists,
// and index derives everything the accessors return from them. The engine
// indexes a roster on its driving goroutine when it installs it, and
// ReplaceLeader re-indexes after the one mid-round edit (§V-D), so message
// handlers on lanes only read. The returned slices are read-only.
type Roster struct {
	Round      uint64
	Randomness crypto.Digest
	M          uint64

	Referee  []simnet.NodeID
	Leaders  []simnet.NodeID   // Leaders[k] leads committee k
	Partials [][]simnet.NodeID // Partials[k] is committee k's partial set
	Commons  [][]simnet.NodeID // Commons[k] is committee k's sortition members

	// places is the seat table, indexed by NodeID: each node's role and
	// committee, RoleIdle past the end and for a node the roster does not
	// name. linkClass reads it on every send.
	places []place

	committees [][]simnet.NodeID // committees[k]: leader, partial set, commons
	keyMembers [][]simnet.NodeID // keyMembers[k]: the prefix leader, partial set
	allKey     []simnet.NodeID
	allNodes   []simnet.NodeID
	commons    []simnet.NodeID
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

// seat writes the rows of ids, growing the table to reach them.
func (r *Roster) seat(role Role, k uint64, ids ...simnet.NodeID) {
	for _, id := range ids {
		for int(id) >= len(r.places) {
			r.places = append(r.places, place{role: RoleIdle})
		}
		r.places[id] = place{role: role, com: k}
	}
}

// index derives the seat table and every member list from the seat lists.
// It seats the referee committee, then the leaders, the partial sets and
// the commons; a node named in two lists keeps the later seat.
func (r *Roster) index() {
	r.places = r.places[:0]
	r.seat(RoleReferee, 0, r.Referee...)
	for k := range r.M {
		r.seat(RoleLeader, k, r.Leaders[k])
	}
	for k := range r.M {
		r.seat(RolePartial, k, r.Partials[k]...)
	}
	for k := range r.M {
		r.seat(RoleCommon, k, r.Commons[k]...)
	}
	r.committees = make([][]simnet.NodeID, r.M)
	r.keyMembers = make([][]simnet.NodeID, r.M)
	r.allKey, r.commons, r.allNodes = []simnet.NodeID{}, []simnet.NodeID{}, []simnet.NodeID{}
	for k := range r.M {
		c := make([]simnet.NodeID, 0, 1+len(r.Partials[k])+len(r.Commons[k]))
		c = append(append(append(c, r.Leaders[k]), r.Partials[k]...), r.Commons[k]...)
		keys := 1 + len(r.Partials[k])
		r.committees[k], r.keyMembers[k] = c, c[:keys:keys]
		r.allKey = append(r.allKey, r.keyMembers[k]...)
		r.commons = append(r.commons, r.Commons[k]...)
	}
	for id, p := range r.places {
		if p.role != RoleIdle {
			r.allNodes = append(r.allNodes, simnet.NodeID(id))
		}
	}
}

// RoleOf returns the node's role (RoleIdle if absent).
func (r *Roster) RoleOf(id simnet.NodeID) Role { return r.placeOf(id).role }

// CommitteeOf returns the committee a non-referee node serves.
func (r *Roster) CommitteeOf(id simnet.NodeID) (uint64, bool) {
	p := r.placeOf(id)
	return p.com, p.role != RoleReferee && p.role != RoleIdle
}

// Committee returns every member of committee k: leader first, then the
// partial set, then the commons.
func (r *Roster) Committee(k uint64) []simnet.NodeID { return r.committees[k] }

// KeyMembers returns committee k's leader and partial set.
func (r *Roster) KeyMembers(k uint64) []simnet.NodeID { return r.keyMembers[k] }

// AllKeyMembers returns the leaders and partial-set members of every
// committee — the node set with Γ-bounded links in the network model.
func (r *Roster) AllKeyMembers() []simnet.NodeID { return r.allKey }

// AllNodes returns every participating node this round, ascending.
func (r *Roster) AllNodes() []simnet.NodeID { return r.allNodes }

// CommonsOfAll returns all common members across committees.
func (r *Roster) CommonsOfAll() []simnet.NodeID { return r.commons }

// puzzle is the participation puzzle of the roster's round (§IV-F), a
// function of the next round's number and this round's randomness:
// stagePow solves it, and C_R checks each submission against it (onPow).
func (r *Roster) puzzle(hardness uint64) pow.Puzzle {
	return pow.NewPuzzle(r.Round+1, r.Randomness, hardness)
}

// coordinatorFor maps a committee to its referee-committee coordinator for
// C_R-internal Algorithm 3 instances.
func (r *Roster) coordinatorFor(k uint64) simnet.NodeID {
	return r.Referee[int(k)%len(r.Referee)]
}

// successorFor picks the replacement leader: the lowest-ID partial member.
func (r *Roster) successorFor(k uint64) simnet.NodeID {
	if len(r.Partials[k]) == 0 {
		return -1
	}
	return slices.Min(r.Partials[k])
}

// ReplaceLeader installs a new leader for committee k after a recovery
// (§V-D): the new leader leaves the partial set; the evicted node is
// demoted to common member (it stays connected but holds no key seat).
// The re-index reseats both, so the links of both are classified by their
// new roles from the next send on.
func (r *Roster) ReplaceLeader(k uint64, evicted, successor simnet.NodeID) {
	r.Leaders[k] = successor
	r.Partials[k] = slices.DeleteFunc(r.Partials[k], func(id simnet.NodeID) bool { return id == successor })
	r.Commons[k] = append(r.Commons[k], evicted)
	slices.Sort(r.Commons[k])
	r.index()
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
