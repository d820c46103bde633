package consensus

import (
	"fmt"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// Message tags used on the wire.
const (
	TagPropose = "CONS_PROPOSE"
	TagEcho    = "CONS_ECHO"
	TagConfirm = "CONS_CONFIRM"
)

// The package's rows in the wire registry: each message's layout method is
// its one wire description — the size a Send declares, the encoding and the
// decoder are that walk in the Coder's three modes.
func init() {
	wire.Register(Propose.layout, wire.TagPropose)
	wire.Register(Echo.layout, wire.TagEcho)
	wire.Register(Confirm.layout, wire.TagConfirm)
	wire.Register(Witness.layout, wire.TagWitness)
	wire.Register(Result.layout, wire.TagResult)
	wire.Register(AggResult.layout, wire.TagAggResult)
}

// Majority reports whether votes is strictly more than half of n — the one
// threshold every certificate in the protocol is held to (>C/2 confirms,
// echoes, impeachment approvals, referee announcements).
func Majority(votes, n int) bool { return 2*votes > n }

// Propose is the leader's proposal for instance (Round, SN).
type Propose struct {
	Round   uint64
	SN      uint64
	Digest  crypto.Digest
	Payload any
	Size    int // the payload's encoded size, as the leader declared it
	Leader  simnet.NodeID
	Sig     []byte
}

func (p Propose) layout(c *wire.Coder) Propose {
	c.U64(&p.Round)
	c.U64(&p.SN)
	wire.Hash(c, &p.Digest)
	c.Any(&p.Payload)
	c.Int(&p.Size)
	wire.ID(c, &p.Leader)
	c.Bytes(&p.Sig)
	return p
}

// Echo is a member's endorsement of a digest; it retransmits the leader's
// signed proposal so members that missed the direct PROPOSE can adopt it.
type Echo struct {
	Round   uint64
	SN      uint64
	Digest  crypto.Digest
	Echoer  simnet.NodeID
	Sig     []byte
	Propose Propose
}

func (e Echo) layout(c *wire.Coder) Echo {
	c.U64(&e.Round)
	c.U64(&e.SN)
	wire.Hash(c, &e.Digest)
	wire.ID(c, &e.Echoer)
	c.Bytes(&e.Sig)
	wire.Field(c, &e.Propose)
	return e
}

// Confirm is a member's final endorsement, carrying its echo evidence.
type Confirm struct {
	Round     uint64
	SN        uint64
	Digest    crypto.Digest
	Confirmer simnet.NodeID
	Sig       []byte
	EchoSigs  map[simnet.NodeID][]byte
}

func (m Confirm) layout(c *wire.Coder) Confirm {
	c.U64(&m.Round)
	c.U64(&m.SN)
	wire.Hash(c, &m.Digest)
	wire.ID(c, &m.Confirmer)
	c.Bytes(&m.Sig)
	wire.Map(c, &m.EchoSigs, 4+4, func(c *wire.Coder, id simnet.NodeID, sig []byte) (simnet.NodeID, []byte) {
		wire.ID(c, &id)
		c.Bytes(&sig)
		return id, sig
	})
	return m
}

// Witness proves leader equivocation: two proposals signed by the same
// leader for the same (round, sn) with different digests.
type Witness struct {
	A, B Propose
}

func (w Witness) layout(c *wire.Coder) Witness {
	wire.Field(c, &w.A)
	wire.Field(c, &w.B)
	return w
}

// Valid reports whether the witness is self-consistent (same instance,
// different digests) and both signatures verify under pk. Per Claim 4,
// a witness that fails Valid cannot frame an honest leader.
func (w Witness) Valid(scheme SignatureScheme, pk crypto.PublicKey) bool {
	if w.A.Round != w.B.Round || w.A.SN != w.B.SN || w.A.Digest == w.B.Digest {
		return false
	}
	for _, p := range []Propose{w.A, w.B} {
		if scheme.Verify(pk, p.Sig, sigMsg(TagPropose, p.Round, p.SN, p.Digest, -1)) != nil {
			return false
		}
	}
	return true
}

// Result is the leader-side decision: a certificate of >C/2 confirmations.
type Result struct {
	Round    uint64
	SN       uint64
	Digest   crypto.Digest
	Payload  any
	Confirms []Confirm
}

func (r Result) layout(c *wire.Coder) Result {
	c.U64(&r.Round)
	c.U64(&r.SN)
	wire.Hash(c, &r.Digest)
	c.Any(&r.Payload)
	wire.Slice(c, &r.Confirms, 2, wire.Field[Confirm])
	return r
}

// VerifyCert checks a decision certificate against the committee roster:
// every confirm must be from a distinct committee member with a valid
// signature on the decided digest, and there must be more than C/2 of
// them. Third parties (the referee committee, remote leaders) use this to
// accept results without having participated.
func VerifyCert(scheme SignatureScheme, res Result, committee []simnet.NodeID, pkOf func(simnet.NodeID) crypto.PublicKey) error {
	members := make(map[simnet.NodeID]bool, len(committee))
	for _, id := range committee {
		members[id] = true
	}
	seen := make(map[simnet.NodeID]bool)
	for _, c := range res.Confirms {
		if c.Round != res.Round || c.SN != res.SN || c.Digest != res.Digest {
			return fmt.Errorf("consensus: confirm for wrong instance")
		}
		if !members[c.Confirmer] {
			return fmt.Errorf("consensus: confirmer %d not in committee", c.Confirmer)
		}
		if seen[c.Confirmer] {
			return fmt.Errorf("consensus: duplicate confirmer %d", c.Confirmer)
		}
		seen[c.Confirmer] = true
		if err := scheme.Verify(pkOf(c.Confirmer), c.Sig, sigMsg(TagConfirm, c.Round, c.SN, c.Digest, int32(c.Confirmer))); err != nil {
			return fmt.Errorf("consensus: confirm signature from %d: %w", c.Confirmer, err)
		}
	}
	if !Majority(len(seen), len(committee)) {
		return fmt.Errorf("consensus: %d confirms is not a majority of %d", len(seen), len(committee))
	}
	return nil
}

// instance holds per-(round, sn) state on one node.
type instance struct {
	propose     *Propose
	echoDigests map[simnet.NodeID]crypto.Digest
	echoSigs    map[simnet.NodeID][]byte
	confirmSent bool
	// leader side
	confirms map[simnet.NodeID]Confirm
	decided  bool
	// equivocation evidence
	seen        map[crypto.Digest]Propose
	equivocated bool
}

// Protocol is one node's Algorithm 3 endpoint for a single committee and
// round. The protocol layer creates one per node per round and feeds it
// every CONS_* message.
type Protocol struct {
	Round     uint64
	Self      simnet.NodeID
	Leader    simnet.NodeID
	Committee []simnet.NodeID // all members, including the leader
	Keys      crypto.KeyPair
	PKOf      func(simnet.NodeID) crypto.PublicKey
	Scheme    SignatureScheme

	// OnDecide fires on the leader when a quorum of confirms is reached.
	OnDecide func(ctx *simnet.Context, res Result)
	// OnAccept fires on a member when it confirms a digest (safe point:
	// a majority echoed the same leader-signed proposal).
	OnAccept func(ctx *simnet.Context, sn uint64, digest crypto.Digest, payload any)
	// OnEquivocation fires (once per instance) when this node holds proof
	// the leader signed two different proposals for one instance.
	OnEquivocation func(ctx *simnet.Context, w Witness)
	// ValidatePayload, when set, vets a proposal's payload before this
	// node echoes it (the referee committee uses it to check
	// semi-commitment validity, §IV-B step 2). Returning false makes the
	// node withhold its echo, so an invalid proposal cannot gather a
	// majority in an honest-majority committee.
	ValidatePayload func(sn uint64, payload any) bool

	insts map[uint64]*instance
}

func (p *Protocol) inst(sn uint64) *instance {
	if p.insts == nil {
		p.insts = make(map[uint64]*instance)
	}
	in := p.insts[sn]
	if in == nil {
		in = &instance{
			echoDigests: make(map[simnet.NodeID]crypto.Digest),
			echoSigs:    make(map[simnet.NodeID][]byte),
			confirms:    make(map[simnet.NodeID]Confirm),
			seen:        make(map[crypto.Digest]Propose),
		}
		p.insts[sn] = in
	}
	return in
}

// payloadDigest binds the payload to the instance. Payloads carry their own
// canonical digest via the Digestable interface; otherwise the digest must
// be supplied at Propose time.
type Digestable interface {
	ConsensusDigest() crypto.Digest
}

// BuildPropose constructs a signed proposal; exported so adversarial
// leaders can craft conflicting proposals in tests and attack scenarios.
func BuildPropose(scheme SignatureScheme, kp crypto.KeyPair, leader simnet.NodeID, round, sn uint64, digest crypto.Digest, payload any, size int) Propose {
	sig := scheme.Sign(kp, sigMsg(TagPropose, round, sn, digest, -1))
	return Propose{Round: round, SN: sn, Digest: digest, Payload: payload, Size: size, Leader: leader, Sig: sig}
}

// Propose starts an instance as the leader, broadcasting to every other
// committee member.
func (p *Protocol) Propose(ctx *simnet.Context, sn uint64, digest crypto.Digest, payload any, size int) {
	prop := BuildPropose(p.Scheme, p.Keys, p.Self, p.Round, sn, digest, payload, size)
	in := p.inst(sn)
	in.propose = &prop
	in.seen[digest] = prop
	p.SendRaw(ctx, prop, p.Committee)
	// The leader implicitly echoes and confirms its own proposal.
	p.recordEcho(ctx, sn, Echo{
		Round: p.Round, SN: sn, Digest: digest, Echoer: p.Self,
		Sig:     p.Scheme.Sign(p.Keys, sigMsg(TagEcho, p.Round, sn, digest, int32(p.Self))),
		Propose: prop,
	})
}

// SendRaw delivers a pre-built proposal to a subset of members: Propose's
// broadcast and, on its own, the equivocation primitive of adversarial
// leaders.
func (p *Protocol) SendRaw(ctx *simnet.Context, prop Propose, to []simnet.NodeID) {
	var payload any = prop // boxed once, not per destination
	size := wire.Size(payload)
	for _, id := range to {
		if id != p.Self {
			ctx.Send(id, TagPropose, payload, size)
		}
	}
}

// Handle consumes a consensus message; it returns true when the tag
// belongs to this package.
func (p *Protocol) Handle(ctx *simnet.Context, msg simnet.Message) bool {
	switch msg.Tag {
	case TagPropose:
		prop, ok := msg.Payload.(Propose)
		if !ok {
			return true
		}
		p.onPropose(ctx, prop)
	case TagEcho:
		e, ok := msg.Payload.(Echo)
		if !ok {
			return true
		}
		p.onEcho(ctx, e)
	case TagConfirm:
		c, ok := msg.Payload.(Confirm)
		if !ok {
			return true
		}
		p.onConfirm(ctx, c)
	default:
		return false
	}
	return true
}

func (p *Protocol) checkEquivocation(ctx *simnet.Context, sn uint64, prop Propose) bool {
	in := p.inst(sn)
	if prior, ok := in.seen[prop.Digest]; ok {
		_ = prior
		return in.equivocated
	}
	in.seen[prop.Digest] = prop
	if len(in.seen) > 1 && !in.equivocated {
		// Two distinct digests signed by the leader: build the witness.
		var a, b *Propose
		for _, pr := range in.seen {
			pr := pr
			if a == nil {
				a = &pr
			} else if pr.Digest != a.Digest {
				b = &pr
				break
			}
		}
		if a != nil && b != nil {
			in.equivocated = true
			if p.OnEquivocation != nil {
				p.OnEquivocation(ctx, Witness{A: *a, B: *b})
			}
			return true
		}
	}
	return in.equivocated
}

func (p *Protocol) onPropose(ctx *simnet.Context, prop Propose) {
	if prop.Round != p.Round || prop.Leader != p.Leader {
		return
	}
	if p.Scheme.Verify(p.PKOf(p.Leader), prop.Sig, sigMsg(TagPropose, prop.Round, prop.SN, prop.Digest, -1)) != nil {
		return
	}
	if p.checkEquivocation(ctx, prop.SN, prop) {
		return // stop participating once the leader is caught
	}
	if p.ValidatePayload != nil && !p.ValidatePayload(prop.SN, prop.Payload) {
		return
	}
	in := p.inst(prop.SN)
	if in.propose != nil {
		return // duplicate
	}
	in.propose = &prop
	// ECHO to the whole committee, retransmitting the proposal.
	echoSig := p.Scheme.Sign(p.Keys, sigMsg(TagEcho, prop.Round, prop.SN, prop.Digest, int32(p.Self)))
	echo := Echo{Round: prop.Round, SN: prop.SN, Digest: prop.Digest, Echoer: p.Self, Sig: echoSig, Propose: prop}
	p.castEcho(ctx, echo)
	p.recordEcho(ctx, prop.SN, echo)
	p.maybeConfirm(ctx, prop.SN)
}

// castEcho sends our ECHO to every other committee member.
func (p *Protocol) castEcho(ctx *simnet.Context, echo Echo) {
	var payload any = echo // boxed once, not per destination
	size := wire.Size(payload)
	for _, id := range p.Committee {
		if id != p.Self {
			ctx.Send(id, TagEcho, payload, size)
		}
	}
}

func (p *Protocol) onEcho(ctx *simnet.Context, e Echo) {
	if e.Round != p.Round {
		return
	}
	if p.Scheme.Verify(p.PKOf(e.Echoer), e.Sig, sigMsg(TagEcho, e.Round, e.SN, e.Digest, int32(e.Echoer))) != nil {
		return
	}
	// Adopt/inspect the retransmitted proposal: it is leader-signed, so it
	// both substitutes for a missed PROPOSE and feeds equivocation checks.
	pmsg := sigMsg(TagPropose, e.Propose.Round, e.Propose.SN, e.Propose.Digest, -1)
	if e.Propose.Round == p.Round && e.Propose.SN == e.SN &&
		p.Scheme.Verify(p.PKOf(p.Leader), e.Propose.Sig, pmsg) == nil {
		if p.checkEquivocation(ctx, e.SN, e.Propose) {
			return
		}
		if p.ValidatePayload != nil && !p.ValidatePayload(e.SN, e.Propose.Payload) {
			return
		}
		in := p.inst(e.SN)
		if in.propose == nil && p.Self != p.Leader {
			prop := e.Propose
			in.propose = &prop
			// Echo ourselves now that we hold the proposal.
			echoSig := p.Scheme.Sign(p.Keys, sigMsg(TagEcho, prop.Round, prop.SN, prop.Digest, int32(p.Self)))
			mine := Echo{Round: prop.Round, SN: prop.SN, Digest: prop.Digest, Echoer: p.Self, Sig: echoSig, Propose: prop}
			p.castEcho(ctx, mine)
			p.recordEcho(ctx, prop.SN, mine)
		}
	}
	p.recordEcho(ctx, e.SN, e)
	p.maybeConfirm(ctx, e.SN)
}

func (p *Protocol) recordEcho(ctx *simnet.Context, sn uint64, e Echo) {
	in := p.inst(sn)
	if _, dup := in.echoDigests[e.Echoer]; dup {
		return
	}
	in.echoDigests[e.Echoer] = e.Digest
	in.echoSigs[e.Echoer] = e.Sig
}

func (p *Protocol) maybeConfirm(ctx *simnet.Context, sn uint64) {
	in := p.inst(sn)
	if in.confirmSent || in.propose == nil || in.equivocated {
		return
	}
	d := in.propose.Digest
	votes := 0
	echoSigs := make(map[simnet.NodeID][]byte)
	for id, dig := range in.echoDigests {
		if dig == d {
			votes++
			echoSigs[id] = in.echoSigs[id]
		}
	}
	if !Majority(votes, len(p.Committee)) {
		return
	}
	in.confirmSent = true
	sig := p.Scheme.Sign(p.Keys, sigMsg(TagConfirm, p.Round, sn, d, int32(p.Self)))
	conf := Confirm{Round: p.Round, SN: sn, Digest: d, Confirmer: p.Self, Sig: sig, EchoSigs: echoSigs}
	if p.OnAccept != nil {
		p.OnAccept(ctx, sn, d, in.propose.Payload)
	}
	if p.Self == p.Leader {
		p.onConfirm(ctx, conf)
	} else {
		ctx.Send(p.Leader, TagConfirm, conf, wire.Size(conf))
	}
}

func (p *Protocol) onConfirm(ctx *simnet.Context, c Confirm) {
	if p.Self != p.Leader || c.Round != p.Round {
		return
	}
	if p.Scheme.Verify(p.PKOf(c.Confirmer), c.Sig, sigMsg(TagConfirm, c.Round, c.SN, c.Digest, int32(c.Confirmer))) != nil {
		return
	}
	in := p.inst(c.SN)
	if in.propose == nil || c.Digest != in.propose.Digest || in.decided {
		return
	}
	if _, dup := in.confirms[c.Confirmer]; dup {
		return
	}
	in.confirms[c.Confirmer] = c
	if !Majority(len(in.confirms), len(p.Committee)) {
		return
	}
	in.decided = true
	res := Result{Round: p.Round, SN: c.SN, Digest: c.Digest, Payload: in.propose.Payload}
	for _, conf := range in.confirms {
		res.Confirms = append(res.Confirms, conf)
	}
	sortConfirms(res.Confirms)
	if p.OnDecide != nil {
		p.OnDecide(ctx, res)
	}
}

// HasProposal reports whether this node has seen any proposal for sn —
// the partial set's 2Γ liveness check during inter-committee consensus
// (Lemma 7).
func (p *Protocol) HasProposal(sn uint64) bool {
	in, ok := p.insts[sn]
	return ok && in.propose != nil
}

// Decided reports whether the leader reached a decision for sn.
func (p *Protocol) Decided(sn uint64) bool {
	in, ok := p.insts[sn]
	return ok && in.decided
}

func sortConfirms(cs []Confirm) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Confirmer < cs[j-1].Confirmer; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
