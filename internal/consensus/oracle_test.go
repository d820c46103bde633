package consensus

// The map-based Algorithm 3 endpoint the positional table in consensus.go
// replaced, kept as the reference the differential tests in
// differential_test.go hold the table to. It changes only if the protocol
// does, as it did when ECHO stopped carrying the proposal: the header an echo
// carries, the Fetch a member sends and answers, and the payload-digest check
// are written here over maps, from the protocol's description and not from
// the table's code.
//
// Two behaviours of it are deliberately not the table's, and the schedules
// the differential tests generate stay clear of both: it counts echoes and
// confirms from senders outside Committee (the table has no slot for them —
// TestEchoesFromOutsidersDoNotCount, TestConfirmFromOutsiderIgnored), and a
// second Propose for one sn under another digest silently replaces the
// first (on the table it makes the leader an equivocator like any other).
// A third — checkEquivocation picking Witness{A, B} by map iteration order —
// is why witnesses are compared as the set {A, B}.

import (
	"slices"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// instance holds per-(round, sn) state on one node.
type oracleInstance struct {
	propose     *Propose
	echoDigests map[simnet.NodeID]crypto.Digest
	confirmSent bool
	fetchSent   bool
	served      map[simnet.NodeID]bool // members whose Fetch was answered
	// leader side
	confirms map[simnet.NodeID]Confirm
	decided  bool
	// equivocation evidence: leader-signed headers by digest
	seen        map[crypto.Digest]Propose
	equivocated bool
}

// Protocol is one node's Algorithm 3 endpoint for a single committee and
// round. The protocol layer creates one per node per round and feeds it
// every CONS_* message.
type oracleProtocol struct {
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

	insts map[uint64]*oracleInstance
}

func (p *oracleProtocol) inst(sn uint64) *oracleInstance {
	if p.insts == nil {
		p.insts = make(map[uint64]*oracleInstance)
	}
	in := p.insts[sn]
	if in == nil {
		in = &oracleInstance{
			echoDigests: make(map[simnet.NodeID]crypto.Digest),
			served:      make(map[simnet.NodeID]bool),
			confirms:    make(map[simnet.NodeID]Confirm),
			seen:        make(map[crypto.Digest]Propose),
		}
		p.insts[sn] = in
	}
	return in
}

// Propose starts an instance as the leader, broadcasting to every other
// committee member.
func (p *oracleProtocol) Propose(ctx *simnet.Context, sn uint64, digest crypto.Digest, payload any, _ int) {
	prop := BuildPropose(p.Scheme, p.Keys, p.Self, p.Round, sn, digest, payload)
	in := p.inst(sn)
	in.propose = &prop
	in.seen[digest] = oracleHeader(prop)
	p.SendRaw(ctx, prop, p.Committee)
	// The leader implicitly echoes and confirms its own proposal.
	p.recordEcho(ctx, sn, p.echoOf(prop))
}

// oracleHeader is what the leader's signature covers of a proposal.
func oracleHeader(prop Propose) Propose {
	return Propose{Round: prop.Round, SN: prop.SN, Digest: prop.Digest, Leader: prop.Leader, Sig: prop.Sig}
}

// echoOf is this node's signed echo of prop: the digest and the leader's
// signature on it, never the payload.
func (p *oracleProtocol) echoOf(prop Propose) Echo {
	e := Echo{Round: prop.Round, SN: prop.SN, Digest: prop.Digest, Echoer: p.Self, Leader: prop.Leader, LeaderSig: prop.Sig}
	e.Sig = p.Scheme.Sign(p.Keys, wire.SigningBytes(nil, e))
	return e
}

// SendRaw delivers a pre-built proposal to a subset of members: Propose's
// broadcast and, on its own, the equivocation primitive of adversarial
// leaders.
func (p *oracleProtocol) SendRaw(ctx *simnet.Context, prop Propose, to []simnet.NodeID) {
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
func (p *oracleProtocol) Handle(ctx *simnet.Context, msg simnet.Message) bool {
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
	case TagFetch:
		f, ok := msg.Payload.(Fetch)
		if !ok {
			return true
		}
		p.onFetch(ctx, msg.From, f)
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

func (p *oracleProtocol) checkEquivocation(ctx *simnet.Context, sn uint64, prop Propose) bool {
	in := p.inst(sn)
	if prior, ok := in.seen[prop.Digest]; ok {
		_ = prior
		return in.equivocated
	}
	in.seen[prop.Digest] = oracleHeader(prop)
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

func (p *oracleProtocol) onPropose(ctx *simnet.Context, prop Propose) {
	if prop.Round != p.Round || prop.Leader != p.Leader {
		return
	}
	if p.Scheme.Verify(p.PKOf(p.Leader), prop.Sig, wire.SigningBytes(nil, prop)) != nil {
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
	// The signature binds the digest; a payload, if there is one, has to
	// encode, and its encoding has to hash to it.
	if prop.Payload != nil {
		if enc, err := wire.Encode(prop.Payload); err != nil || crypto.H(enc) != prop.Digest {
			return
		}
	}
	in.propose = &prop
	// ECHO to the whole committee.
	echo := p.echoOf(prop)
	p.castEcho(ctx, echo)
	p.recordEcho(ctx, prop.SN, echo)
	p.maybeConfirm(ctx, prop.SN)
}

// castEcho sends our ECHO to every other committee member.
func (p *oracleProtocol) castEcho(ctx *simnet.Context, echo Echo) {
	var payload any = echo // boxed once, not per destination
	size := wire.Size(payload)
	for _, id := range p.Committee {
		if id != p.Self {
			ctx.Send(id, TagEcho, payload, size)
		}
	}
}

func (p *oracleProtocol) onEcho(ctx *simnet.Context, e Echo) {
	if e.Round != p.Round || e.Leader != p.Leader {
		return
	}
	if p.Scheme.Verify(p.PKOf(e.Echoer), e.Sig, wire.SigningBytes(nil, e)) != nil {
		return
	}
	// The echo names a digest and shows the leader's signature on it: that
	// feeds the equivocation check, and nothing can be adopted from it.
	hdr := Propose{Round: e.Round, SN: e.SN, Digest: e.Digest, Leader: e.Leader, Sig: e.LeaderSig}
	underLeader := p.Scheme.Verify(p.PKOf(p.Leader), e.LeaderSig, wire.SigningBytes(nil, hdr)) == nil
	if underLeader {
		if p.checkEquivocation(ctx, e.SN, hdr) {
			return
		}
	}
	p.recordEcho(ctx, e.SN, e)
	// A member still without the proposal asks for it, once, when most of the
	// committee is echoing a digest the leader signed.
	if in := p.inst(e.SN); underLeader && in.propose == nil && !in.fetchSent && p.Self != p.Leader {
		echoing := 0
		for _, d := range in.echoDigests {
			if d == e.Digest {
				echoing++
			}
		}
		if Majority(echoing, len(p.Committee)) {
			in.fetchSent = true
			ask := Fetch{Round: p.Round, SN: e.SN, Digest: e.Digest, Leader: p.Leader}
			ctx.Send(e.Echoer, TagFetch, ask, wire.Size(ask))
		}
	}
	p.maybeConfirm(ctx, e.SN)
}

// onFetch hands the adopted proposal to a committee member that asks for it
// by digest, one time.
func (p *oracleProtocol) onFetch(ctx *simnet.Context, from simnet.NodeID, f Fetch) {
	if f.Round != p.Round || f.Leader != p.Leader || !slices.Contains(p.Committee, from) {
		return
	}
	in, known := p.insts[f.SN]
	if !known || in.propose == nil || in.propose.Digest != f.Digest || in.served[from] {
		return
	}
	in.served[from] = true
	p.SendRaw(ctx, *in.propose, []simnet.NodeID{from})
}

func (p *oracleProtocol) recordEcho(ctx *simnet.Context, sn uint64, e Echo) {
	in := p.inst(sn)
	if _, dup := in.echoDigests[e.Echoer]; dup {
		return
	}
	in.echoDigests[e.Echoer] = e.Digest
}

func (p *oracleProtocol) maybeConfirm(ctx *simnet.Context, sn uint64) {
	in := p.inst(sn)
	if in.confirmSent || in.propose == nil || in.equivocated {
		return
	}
	d := in.propose.Digest
	votes := 0
	for _, dig := range in.echoDigests {
		if dig == d {
			votes++
		}
	}
	if !Majority(votes, len(p.Committee)) {
		return
	}
	in.confirmSent = true
	conf := Confirm{Round: p.Round, SN: sn, Digest: d, Confirmer: p.Self}
	conf.Sig = p.Scheme.Sign(p.Keys, wire.SigningBytes(nil, conf))
	if p.OnAccept != nil {
		p.OnAccept(ctx, sn, d, in.propose.Payload)
	}
	if p.Self == p.Leader {
		p.onConfirm(ctx, conf)
	} else {
		ctx.Send(p.Leader, TagConfirm, conf, wire.Size(conf))
	}
}

func (p *oracleProtocol) onConfirm(ctx *simnet.Context, c Confirm) {
	if p.Self != p.Leader || c.Round != p.Round {
		return
	}
	if p.Scheme.Verify(p.PKOf(c.Confirmer), c.Sig, wire.SigningBytes(nil, c)) != nil {
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
		res.Quorum.Votes = append(res.Quorum.Votes, Vote{Voter: conf.Confirmer, Sig: conf.Sig})
	}
	oracleSortVotes(res.Quorum.Votes)
	if p.OnDecide != nil {
		p.OnDecide(ctx, res)
	}
}

// HasProposal reports whether this node has seen any proposal for sn —
// the partial set's 2Γ liveness check during inter-committee consensus
// (Lemma 7).
func (p *oracleProtocol) HasProposal(sn uint64) bool {
	in, ok := p.insts[sn]
	return ok && in.propose != nil
}

// Decided reports whether the leader reached a decision for sn.
func (p *oracleProtocol) Decided(sn uint64) bool {
	in, ok := p.insts[sn]
	return ok && in.decided
}

func oracleSortVotes(cs []Vote) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Voter < cs[j-1].Voter; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
