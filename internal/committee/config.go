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

	// introduced tracks which members this node has announced itself to,
	// so MEM_LIST unions do not trigger duplicate MEMBER messages.
	introduced map[simnet.NodeID]bool
}

// NewConfigNode initialises the endpoint. Key members seed S with all key
// members, per Algorithm 2 line 3.
func NewConfigNode(round uint64, randomness crypto.Digest, m uint64, self MemberRecord, isKey bool, keyMembers []MemberRecord) *ConfigNode {
	cn := &ConfigNode{
		Round:      round,
		Randomness: randomness,
		M:          m,
		Self:       self,
		IsKey:      isKey,
		KeyMembers: keyMembers,
		S:          NewDirectory(),
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

// verify checks a join certificate: the record must carry a valid
// sortition proof for this committee context. Key-member records (listed
// in the previous block) are trusted without proof.
func (cn *ConfigNode) verify(rec MemberRecord) bool {
	for _, km := range cn.KeyMembers {
		if km.Node == rec.Node {
			return true
		}
	}
	out := crypto.VRFOutput{Hash: rec.Hash, Proof: rec.Proof}
	return crypto.VRFVerify(rec.PK, crypto.SortitionInput(cn.Round, cn.Randomness), out) == nil
}

// Start kicks off participation: a non-key member sends its join request
// to every key member (whose addresses came from B^{r-1}).
func (cn *ConfigNode) Start(ctx *simnet.Context) {
	if cn.IsKey {
		return
	}
	req := JoinRequest{Rec: cn.Self}
	size := wire.Size(req)
	for _, km := range cn.KeyMembers {
		ctx.Send(km.Node, TagConfig, req, size)
	}
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
		if !cn.verify(req.Rec) {
			return true
		}
		// Respond with the current list, then add the joiner
		// (Algorithm 2: "responds the current list back, and adds").
		resp := MemListMsg{Records: cn.S.Records()}
		ctx.Send(req.Rec.Node, TagMemList, resp, wire.Size(resp))
		cn.S.Add(req.Rec)
	case TagMemList:
		resp, ok := msg.Payload.(MemListMsg)
		if !ok || cn.IsKey {
			return true
		}
		// Union the list and introduce ourselves to members we have not
		// contacted yet.
		intro := JoinRequest{Rec: cn.Self}
		size := wire.Size(intro)
		for _, rec := range resp.Records {
			if !cn.verify(rec) {
				continue
			}
			cn.S.Add(rec)
			if rec.Node != cn.Self.Node && !cn.introduced[rec.Node] {
				cn.introduced[rec.Node] = true
				ctx.Send(rec.Node, TagMember, intro, size)
			}
		}
	case TagMember:
		req, ok := msg.Payload.(JoinRequest)
		if !ok {
			return true
		}
		if cn.verify(req.Rec) {
			cn.S.Add(req.Rec)
		}
	default:
		return false
	}
	return true
}
