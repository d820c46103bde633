package committee

import (
	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// Message tags of Algorithm 2.
const (
	TagConfig  = "CFG_CONFIG"  // join request: <PK, address, hash, π> to key members
	TagMemList = "CFG_MEMLIST" // key member's response: current member list S
	TagMember  = "CFG_MEMBER"  // joiner's announcement to learned members
)

// JoinRequest is the payload of CFG_CONFIG and CFG_MEMBER.
type JoinRequest struct {
	Rec MemberRecord
}

// MemListMsg is the payload of CFG_MEMLIST.
type MemListMsg struct {
	Records []MemberRecord
}

// The package's rows in the wire registry: each message's layout method is
// its one wire description — size, encoding and decoding are that walk.
func init() {
	wire.Register(JoinRequest.layout, wire.TagJoinRequest)
	wire.Register(MemListMsg.layout, wire.TagMemList)
	wire.Register(MemberRecord.layout, wire.TagMemberRecord)
}

func (j JoinRequest) layout(c *wire.Coder) JoinRequest {
	wire.Field(c, &j.Rec)
	return j
}

func (m MemListMsg) layout(c *wire.Coder) MemListMsg {
	wire.Slice(c, &m.Records, 2, wire.Field[MemberRecord])
	return m
}

// layout walks the node ID, length-prefixed public key, sortition hash and
// length-prefixed proof.
func (r MemberRecord) layout(c *wire.Coder) MemberRecord {
	wire.ID(c, &r.Node)
	c.Bytes((*[]byte)(&r.PK))
	wire.Hash(c, &r.Hash)
	c.Bytes(&r.Proof)
	return r
}

// ConfigNode is one node's Algorithm 2 endpoint. Key members start with
// the key-member records (published in block B^{r-1}); non-key members
// start empty, learn the list from a key member, then introduce themselves
// to everyone on it.
type ConfigNode struct {
	Round      uint64
	Randomness crypto.Digest
	M          uint64
	Self       MemberRecord
	IsKey      bool
	KeyMembers []MemberRecord // addresses known from the previous block

	S *Directory

	// Verified is where this endpoint looks a sortition record up before
	// paying for its verification. NewConfigNode installs a private set, so
	// a node verifies each record it is shown once; a process that runs
	// many endpoints of one round builds them all on one set with
	// NewConfigNodeWith.
	Verified *VerifiedSet

	// introduced tracks which members this node has announced itself to,
	// so MEM_LIST unions do not trigger duplicate MEMBER messages.
	introduced map[simnet.NodeID]bool
	// to is the destination list of the fan-out being assembled: one
	// Broadcast tells the transport that it carries one payload.
	to []simnet.NodeID
}

// NewConfigNode initialises the endpoint with a verified-proof set of its
// own. Key members seed S with all key members, per Algorithm 2 line 3.
func NewConfigNode(round uint64, randomness crypto.Digest, m uint64, self MemberRecord, isKey bool, keyMembers []MemberRecord) *ConfigNode {
	return NewConfigNodeWith(NewVerifiedSet(round, randomness), m, self, isKey, keyMembers)
}

// NewConfigNodeWith is NewConfigNode for an endpoint that shares the
// verified-proof set of its round with others: the endpoint takes its
// (Round, Randomness) from the set.
func NewConfigNodeWith(verified *VerifiedSet, m uint64, self MemberRecord, isKey bool, keyMembers []MemberRecord) *ConfigNode {
	cn := &ConfigNode{
		Round:      verified.round,
		Randomness: verified.randomness,
		M:          m,
		Self:       self,
		IsKey:      isKey,
		KeyMembers: keyMembers,
		S:          NewDirectory(),
		Verified:   verified,
		introduced: make(map[simnet.NodeID]bool),
	}
	if isKey {
		for _, km := range keyMembers {
			cn.S.Add(km)
		}
	}
	cn.S.Add(self)
	return cn
}

// verify checks a presented record and returns the record to keep. A key
// member's must name the ID and public key published in the previous
// block, and it is the published record that is kept — a presented copy
// never replaces it. Anyone else's must carry a valid sortition proof for
// this round's context.
func (cn *ConfigNode) verify(rec MemberRecord) (MemberRecord, bool) {
	for i := range cn.KeyMembers {
		if km := &cn.KeyMembers[i]; km.Node == rec.Node {
			return *km, km.PK.Equal(rec.PK)
		}
	}
	return rec, cn.Verified.verify(rec)
}

// admit adds a presented record to S if it verifies, and reports whether
// it was accepted. A record byte-identical to the one S holds for its node
// is neither verified nor added again: S's records were published, are
// this node's own, or verified, and a verdict is a function of the bytes.
// In a joiner's union of the ≈ λ lists its key members send, that is
// every record an earlier list carried.
func (cn *ConfigNode) admit(rec MemberRecord) bool {
	if cn.S.holds(&rec) {
		return true
	}
	rec, ok := cn.verify(rec)
	if ok {
		cn.S.Add(rec)
	}
	return ok
}

// Start kicks off participation: a non-key member sends its join request
// to every key member (whose addresses came from B^{r-1}).
func (cn *ConfigNode) Start(ctx *simnet.Context) {
	if cn.IsKey {
		return
	}
	cn.to = cn.to[:0]
	for _, km := range cn.KeyMembers {
		cn.to = append(cn.to, km.Node)
	}
	var req any = JoinRequest{Rec: cn.Self}
	ctx.Broadcast(cn.to, TagConfig, req, wire.Size(req))
}

// Handle consumes a configuration message; returns true when the tag
// belongs to this module.
func (cn *ConfigNode) Handle(ctx *simnet.Context, msg simnet.Message) bool {
	switch msg.Tag {
	case TagConfig:
		req, ok := msg.Payload.(JoinRequest)
		if !ok || !cn.IsKey {
			return true
		}
		rec, ok := cn.verify(req.Rec)
		if !ok {
			return true
		}
		// Respond with the current list, then add the joiner
		// (Algorithm 2: "responds the current list back, and adds").
		// The answer declares S's running size rather than walking the list.
		ctx.Send(rec.Node, TagMemList, MemListMsg{Records: cn.S.Snapshot()}, cn.S.ListSize())
		cn.S.Add(rec)
	case TagMemList:
		resp, ok := msg.Payload.(MemListMsg)
		if !ok || cn.IsKey {
			return true
		}
		// Union the list and introduce ourselves to members we have not
		// contacted yet.
		cn.to = cn.to[:0]
		for _, rec := range resp.Records {
			if !cn.admit(rec) {
				continue
			}
			if rec.Node != cn.Self.Node && !cn.introduced[rec.Node] {
				cn.introduced[rec.Node] = true
				cn.to = append(cn.to, rec.Node)
			}
		}
		if len(cn.to) > 0 {
			var intro any = JoinRequest{Rec: cn.Self}
			ctx.Broadcast(cn.to, TagMember, intro, wire.Size(intro))
		}
	case TagMember:
		req, ok := msg.Payload.(JoinRequest)
		if !ok {
			return true
		}
		cn.admit(req.Rec)
	default:
		return false
	}
	return true
}
