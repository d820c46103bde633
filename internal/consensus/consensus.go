package consensus

import (
	"bytes"
	"cmp"
	"slices"
	"sync"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// Message tags used on the wire.
const (
	TagPropose = "CONS_PROPOSE"
	TagEcho    = "CONS_ECHO"
	TagConfirm = "CONS_CONFIRM"
	TagFetch   = "CONS_FETCH"
)

// The package's rows in the wire registry: each message's layout method is
// its one wire description — the size a Send declares, the encoding and the
// decoder are that walk in the Coder's three modes.
func init() {
	wire.Register(Propose.layout, wire.TagPropose)
	wire.Register(Echo.layout, wire.TagEcho)
	wire.Register(Confirm.layout, wire.TagConfirm)
	wire.Register(Fetch.layout, wire.TagFetch)
	wire.Register(Witness.layout, wire.TagWitness)
	wire.Register(Result.layout, wire.TagResult)
	wire.Register(Quorum.layout, wire.TagQuorum)
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
	Leader  simnet.NodeID
	Sig     []byte
}

// layout leaves the payload out of the leader's signature: the signed Digest
// binds it (onPropose), and an echo or a witness shows the signature without
// it.
func (p Propose) layout(c *wire.Coder) Propose {
	c.U64(&p.Round)
	c.U64(&p.SN)
	wire.Hash(c, &p.Digest)
	if !c.Signing() {
		c.Any(&p.Payload)
	}
	wire.ID(c, &p.Leader)
	c.Sig(&p.Sig)
	return p
}

// PayloadDigest is the digest a leader signs for a payload: the hash of the
// payload's tagged wire encoding, so it binds every field its layout walks.
// A payload that does not encode — one of a type no layout is registered
// for — has no digest: PayloadDigest returns the zero Digest, which no
// encoding hashes to and under which onPropose adopts nothing.
func PayloadDigest(payload any) crypto.Digest {
	s := bufs.Get().(*scratch)
	defer bufs.Put(s)
	enc, err := wire.AppendEncode(s.buf[:0], payload)
	if err != nil {
		return crypto.Digest{}
	}
	s.buf = enc
	return crypto.H(enc)
}

// bufs recycles PayloadDigest's encodings and the signing bytes of Sign,
// Verify and Result.Verify: handlers on several lanes sign and digest at
// once, and a block's encoding is tens of kilobytes. A buffer kept per
// node instead would hold the largest message that node ever signed or
// checked — a transaction list, on every member. (A Protocol keeps its
// own, sigBuf: an endpoint lives one round and signs small messages.)
var bufs = sync.Pool{New: func() any { return newScratch() }}

// scratch is one of bufs' buffers. confirmAt, bound to it once, is the msgAt
// of Result.Verify: the signing bytes, in buf, of confirm under a voter. A
// func handed on through AggregateScheme's interface escapes, so a closure
// built per call would be an allocation per certificate checked.
type scratch struct {
	buf       []byte
	confirm   Confirm
	confirmAt func(voter simnet.NodeID) []byte
}

func newScratch() *scratch {
	s := new(scratch)
	s.confirmAt = func(voter simnet.NodeID) []byte {
		s.confirm.Confirmer = voter
		s.buf = wire.SigningBytes(s.buf[:0], s.confirm)
		return s.buf
	}
	return s
}

// Sign returns kp's signature under scheme on msg: on msg's
// wire.SigningBytes, built in a pooled buffer (a scheme does not retain
// it). It is how a signer with no buffer of its own signs.
func Sign[T any](scheme SignatureScheme, kp crypto.KeyPair, msg T) []byte {
	s := bufs.Get().(*scratch)
	defer bufs.Put(s)
	s.buf = wire.SigningBytes(s.buf[:0], msg)
	return scheme.Sign(kp, s.buf)
}

// Verify checks that sig is id's signature under pki on msg's
// wire.SigningBytes, built as Sign builds them.
func Verify[T any](pki *PKI, id simnet.NodeID, sig []byte, msg T) error {
	s := bufs.Get().(*scratch)
	defer bufs.Put(s)
	s.buf = wire.SigningBytes(s.buf[:0], msg)
	return pki.Verify(id, sig, s.buf)
}

// Echo is a member's endorsement of a digest. It carries the leader's
// signature on that digest — enough to prove equivocation, and to tell a
// member which digest to Fetch — but never the payload: its size does not
// depend on what was proposed.
type Echo struct {
	Round     uint64
	SN        uint64
	Digest    crypto.Digest
	Echoer    simnet.NodeID
	Sig       []byte
	Leader    simnet.NodeID
	LeaderSig []byte
}

func (e Echo) layout(c *wire.Coder) Echo {
	c.U64(&e.Round)
	c.U64(&e.SN)
	wire.Hash(c, &e.Digest)
	wire.ID(c, &e.Echoer)
	c.Sig(&e.Sig)
	wire.ID(c, &e.Leader)
	c.Sig(&e.LeaderSig)
	return e
}

// Fetch asks an echoer for the proposal behind a digest the committee is
// echoing and the sender never received. It is unsigned: the answer is the
// leader-signed PROPOSE itself, and a member is answered once per instance.
type Fetch struct {
	Round  uint64
	SN     uint64
	Digest crypto.Digest
	Leader simnet.NodeID
}

func (f Fetch) layout(c *wire.Coder) Fetch {
	c.U64(&f.Round)
	c.U64(&f.SN)
	wire.Hash(c, &f.Digest)
	wire.ID(c, &f.Leader)
	return f
}

// Confirm is a member's final endorsement, sent to the leader once it holds
// the proposal and a majority of echoes for it.
type Confirm struct {
	Round     uint64
	SN        uint64
	Digest    crypto.Digest
	Confirmer simnet.NodeID
	Sig       []byte
}

func (m Confirm) layout(c *wire.Coder) Confirm {
	c.U64(&m.Round)
	c.U64(&m.SN)
	wire.Hash(c, &m.Digest)
	wire.ID(c, &m.Confirmer)
	c.Sig(&m.Sig)
	return m
}

// Witness proves leader equivocation: two proposal headers signed by the
// same leader for the same (round, sn) with different digests.
type Witness struct {
	A, B Propose
}

func (w Witness) layout(c *wire.Coder) Witness {
	wire.Field(c, &w.A)
	wire.Field(c, &w.B)
	return w
}

// Valid reports whether the witness is self-consistent (same instance,
// different digests) and both signatures verify under leader's key. Per
// Claim 4, a witness that fails Valid cannot frame an honest leader.
func (w Witness) Valid(pki *PKI, leader simnet.NodeID) bool {
	if w.A.Round != w.B.Round || w.A.SN != w.B.SN || w.A.Digest == w.B.Digest {
		return false
	}
	return Verify(pki, leader, w.A.Sig, w.A) == nil && Verify(pki, leader, w.B.Sig, w.B) == nil
}

// Result is a decision and its certificate: the decided instance and
// payload, said once, and the Quorum of Confirm signatures on them — per
// voter as the leader collected them, or folded to aggregate form before
// the decision leaves the committee.
type Result struct {
	Round   uint64
	SN      uint64
	Digest  crypto.Digest
	Payload any
	Quorum  Quorum
}

func (r Result) layout(c *wire.Coder) Result {
	c.U64(&r.Round)
	c.U64(&r.SN)
	wire.Hash(c, &r.Digest)
	c.Any(&r.Payload)
	wire.Field(c, &r.Quorum)
	return r
}

// Verify checks the certificate against the committee roster: more than
// half of the committee, each member once, signed the Confirm of this
// result's own instance and digest (Quorum.Verify). Third parties (the
// referee committee, remote leaders) use this to accept results without
// having participated. A valid certificate is checked without allocating.
func (r Result) Verify(pki *PKI, committee []simnet.NodeID) error {
	s := bufs.Get().(*scratch)
	defer bufs.Put(s)
	s.confirm = Confirm{Round: r.Round, SN: r.SN, Digest: r.Digest}
	return r.Quorum.Verify(pki, committee, s.confirmAt)
}

// instance holds per-(round, sn) state on one node as a table indexed by
// position in Protocol.Committee: a member's vote lives in its slot, so a
// member votes once and a node outside the roster has no vote at all. It
// keeps only what is its own: the round, sn and leader of every header it
// files are the endpoint's and the instance's, so a header is filed as its
// digest and signature.
type instance struct {
	slots []slot // slots[i] belongs to Committee[i]
	// digests are the distinct digests members echoed, in the order they
	// were first filed; a slot names its echo's digest by index here, which
	// keeps a slot to a few bytes and a c-member instance's table small.
	digests []crypto.Digest
	// seen holds the first two distinct digests the leader signed for the
	// instance, in arrival order, each with its signature. It can never
	// usefully hold more: the second proves equivocation. Every entry was
	// verified before it was stored (or signed here, on the leader), which
	// is what lets leaderSigned recognise a retransmission of one by its
	// bytes.
	seen [2]signedDigest
	// propose is the adopted proposal's header (an entry of seen unless
	// adopt had to copy it) and payload its payload; propose is nil until
	// one is adopted.
	propose *signedDigest
	payload any
	// leader side: the confirms that count, in arrival order
	confirms []Vote
	// votes counts the echoes filed for propose's digest: kept as echoes
	// arrive, recounted once when a proposal is adopted after them.
	votes       int
	nseen       uint8
	confirmSent bool
	fetched     bool // a member asks for a missed proposal once
	decided     bool
}

// signedDigest is a proposal header as an instance files it: the digest and
// the leader's signature on it.
type signedDigest struct {
	digest crypto.Digest
	sig    []byte
}

// slot is one member's part in an instance.
type slot struct {
	echoed    bool
	confirmed bool
	served    bool  // its Fetch has been answered
	digest    int32 // the index in digests of the digest the member echoed
}

// equivocated reports whether the leader signed two digests for this
// instance.
func (in *instance) equivocated() bool { return int(in.nseen) == len(in.seen) }

// echoesFor counts the members whose filed echo is for digest.
func (in *instance) echoesFor(digest crypto.Digest) int {
	d := slices.Index(in.digests, digest)
	if d < 0 {
		return 0
	}
	n := 0
	for i := range in.slots {
		if s := &in.slots[i]; s.echoed && s.digest == int32(d) {
			n++
		}
	}
	return n
}

// filed returns the header seen holds for digest, nil if none.
func (in *instance) filed(digest crypto.Digest) *signedDigest {
	for i := range in.seen[:in.nseen] {
		if in.seen[i].digest == digest {
			return &in.seen[i]
		}
	}
	return nil
}

// adopt takes the proposal of digest under sig, with payload, as the
// instance's and counts the echoes that arrived ahead of it. Its header is
// the one seen holds for digest; it is copied only when seen holds other
// signature bytes for digest, or holds two other digests.
func (in *instance) adopt(digest crypto.Digest, sig []byte, payload any) {
	h := in.filed(digest)
	if h == nil || !bytes.Equal(h.sig, sig) {
		h = &signedDigest{digest: digest, sig: sig}
	}
	in.propose, in.payload = h, payload
	in.votes = in.echoesFor(digest)
}

// remember files a leader-signed header under its digest and reports
// whether it is the second distinct digest — the one that completes an
// equivocation witness. A digest already held, or a third one, changes
// nothing.
func (in *instance) remember(digest crypto.Digest, sig []byte) bool {
	if in.filed(digest) != nil || in.equivocated() {
		return false
	}
	in.seen[in.nseen] = signedDigest{digest: digest, sig: sig}
	in.nseen++
	return in.equivocated()
}

// recordEcho files the echo of the member at roster position i, unless it
// already has one.
func (in *instance) recordEcho(i int, digest crypto.Digest) {
	s := &in.slots[i]
	if s.echoed {
		return
	}
	d := slices.Index(in.digests, digest)
	if d < 0 {
		d = len(in.digests)
		in.digests = append(in.digests, digest)
	}
	s.echoed, s.digest = true, int32(d)
	if in.propose != nil && digest == in.propose.digest {
		in.votes++
	}
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
	// Echoes, when set, is where this endpoint looks an echo, a leader-signed
	// header or a pointer payload's digest match up before checking it, and
	// records one that passed: a process that runs every endpoint of one
	// (round, leader) builds them all on one set, so each distinct echo and
	// header is verified once, and each proposed pointer digested once, not
	// by every member it reaches. Sharing endpoints must share Scheme and
	// PKOf. Nil checks everything.
	Echoes *VerifiedEchoes

	insts map[uint64]*instance
	seats *seats          // Committee's position index, Echoes' shared one when set; built on first use
	peers []simnet.NodeID // Committee without Self, in order, built with seats
	// The signing bytes of the message being signed or verified, reused
	// across calls: schemes do not retain them.
	sigBuf []byte
}

// index derives the roster's two views, seats and peers, on first use, so
// that a Protocol built as a struct literal needs no constructor; Committee
// and Echoes must not change after that.
func (p *Protocol) index() {
	if p.seats != nil {
		return
	}
	p.seats = p.Echoes.seatsFor(p.Committee)
	p.peers = make([]simnet.NodeID, 0, len(p.Committee))
	for _, id := range p.Committee {
		if id != p.Self {
			p.peers = append(p.peers, id)
		}
	}
}

// position returns id's index in Committee.
func (p *Protocol) position(id simnet.NodeID) (int, bool) {
	p.index()
	return p.seats.of(id)
}

func (p *Protocol) inst(sn uint64) *instance {
	if in := p.insts[sn]; in != nil {
		return in
	}
	if p.insts == nil {
		p.insts = make(map[uint64]*instance)
	}
	in := &instance{slots: make([]slot, len(p.Committee))}
	p.insts[sn] = in
	return in
}

// BuildPropose constructs a signed proposal; exported so adversarial
// leaders can craft conflicting proposals in tests and attack scenarios.
func BuildPropose(scheme SignatureScheme, kp crypto.KeyPair, leader simnet.NodeID, round, sn uint64, digest crypto.Digest, payload any) Propose {
	prop := Propose{Round: round, SN: sn, Digest: digest, Payload: payload, Leader: leader}
	prop.Sig = Sign(scheme, kp, prop)
	return prop
}

// Propose starts an instance as the leader, broadcasting to every other
// committee member. A leader proposes once per sn; conflicting proposals
// are an adversary's business and go through BuildPropose and SendRaw. The
// fifth parameter is ignored (a proposal is sized by wire.Size); it stays
// because bench/cells.go calls Propose with it.
func (p *Protocol) Propose(ctx *simnet.Context, sn uint64, digest crypto.Digest, payload any, _ int) {
	prop := BuildPropose(p.Scheme, p.Keys, p.Self, p.Round, sn, digest, payload)
	in := p.inst(sn)
	in.remember(digest, prop.Sig)
	in.adopt(digest, prop.Sig, payload)
	p.cast(ctx, TagPropose, prop)
	// The leader implicitly echoes and confirms its own proposal.
	p.echoOwn(in, &prop)
}

// SendRaw delivers a pre-built proposal to a subset of members (never to
// this node): the answer to a Fetch and, on its own, the equivocation
// primitive of adversarial leaders.
func (p *Protocol) SendRaw(ctx *simnet.Context, prop Propose, to []simnet.NodeID) {
	var payload any = prop
	size := wire.Size(payload)
	for len(to) > 0 { // one Broadcast per run of to that Self does not interrupt
		run := to
		if i := slices.Index(to, p.Self); i >= 0 {
			run, to = to[:i], to[i+1:]
		} else {
			to = nil
		}
		ctx.Broadcast(run, TagPropose, payload, size)
	}
}

// cast sends one message to every other member of the committee. It is one
// Broadcast — the payload boxed once by the call, and known to the
// transport to be one value — so a carrier that serialises payloads encodes
// a proposal or an echo once, not once per member.
func (p *Protocol) cast(ctx *simnet.Context, tag string, payload any) {
	p.index()
	ctx.Broadcast(p.peers, tag, payload, wire.Size(payload))
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

// leaderSigned reports whether prop — a proposal or the header an echo
// carries — already matched to this round and to in's sequence number, is
// under the leader's signature. A retransmission — digest and signature bytes
// equal to a header the instance holds, or that Echoes holds — was verified
// when that one was stored and is not verified again; anything else goes to
// the scheme, and only a success is recorded in Echoes. in may be nil.
func (p *Protocol) leaderSigned(in *instance, prop *Propose) bool {
	if in != nil {
		if s := in.filed(prop.Digest); s != nil && bytes.Equal(s.sig, prop.Sig) {
			return true
		}
	}
	if p.Echoes.holdsHeader(prop) {
		return true
	}
	p.sigBuf = wire.SigningBytes(p.sigBuf[:0], *prop)
	if p.Scheme.Verify(p.PKOf(p.Leader), prop.Sig, p.sigBuf) != nil {
		return false
	}
	p.Echoes.addHeader(prop)
	return true
}

// checkEquivocation files a leader-signed proposal and reports whether the
// leader has equivocated on this instance, firing OnEquivocation when prop
// is what proves it: the witness is {first digest seen, second}.
func (p *Protocol) checkEquivocation(ctx *simnet.Context, in *instance, prop *Propose) bool {
	if in.remember(prop.Digest, prop.Sig) && p.OnEquivocation != nil {
		p.OnEquivocation(ctx, Witness{A: p.header(prop.SN, &in.seen[0]), B: p.header(prop.SN, &in.seen[1])})
	}
	return in.equivocated()
}

// header is the proposal header h files for instance sn of this endpoint.
func (p *Protocol) header(sn uint64, h *signedDigest) Propose {
	return Propose{Round: p.Round, SN: sn, Digest: h.digest, Leader: p.Leader, Sig: h.sig}
}

func (p *Protocol) onPropose(ctx *simnet.Context, prop Propose) {
	if prop.Round != p.Round || prop.Leader != p.Leader {
		return
	}
	in := p.insts[prop.SN]
	if !p.leaderSigned(in, &prop) {
		return
	}
	if in == nil {
		in = p.inst(prop.SN)
	}
	if p.checkEquivocation(ctx, in, &prop) {
		return // stop participating once the leader is caught
	}
	if in.propose != nil {
		return // duplicate
	}
	// The leader signed the digest, not the payload: whoever relays a proposal
	// could put another payload under the header, so the two are compared. A
	// nil payload is agreement on the digest alone. A pointer another endpoint
	// on Echoes matched to this header is not encoded again.
	if prop.Payload != nil && !p.Echoes.matched(&prop) {
		if d := PayloadDigest(prop.Payload); d.IsZero() || d != prop.Digest {
			return
		}
		p.Echoes.addMatch(&prop)
	}
	if p.ValidatePayload != nil && !p.ValidatePayload(prop.SN, prop.Payload) {
		return
	}
	in.adopt(prop.Digest, prop.Sig, prop.Payload)
	p.cast(ctx, TagEcho, p.echoOwn(in, &prop))
	p.maybeConfirm(ctx, prop.SN, in)
}

// echoOwn signs this node's echo of prop and files it in its own slot.
func (p *Protocol) echoOwn(in *instance, prop *Propose) Echo {
	e := Echo{Round: prop.Round, SN: prop.SN, Digest: prop.Digest, Echoer: p.Self, Leader: prop.Leader, LeaderSig: prop.Sig}
	p.sigBuf = wire.SigningBytes(p.sigBuf[:0], e)
	e.Sig = p.Scheme.Sign(p.Keys, p.sigBuf)
	if i, member := p.position(p.Self); member {
		in.recordEcho(i, prop.Digest)
	}
	return e
}

func (p *Protocol) onEcho(ctx *simnet.Context, e Echo) {
	if e.Round != p.Round || e.Leader != p.Leader {
		return
	}
	i, member := p.position(e.Echoer)
	if !member {
		return // no slot, no vote: dropped before any signature work
	}
	if !p.Echoes.holds(&e, i) {
		p.sigBuf = wire.SigningBytes(p.sigBuf[:0], e)
		if p.Scheme.Verify(p.PKOf(e.Echoer), e.Sig, p.sigBuf) != nil {
			return
		}
		p.Echoes.add(&e, i, len(p.Committee))
	}
	in := p.inst(e.SN)
	// The header the echo carries is leader-signed, so it feeds the
	// equivocation check like a direct PROPOSE; it cannot be adopted from.
	hdr := Propose{Round: e.Round, SN: e.SN, Digest: e.Digest, Leader: e.Leader, Sig: e.LeaderSig}
	signed := p.leaderSigned(in, &hdr)
	if signed && p.checkEquivocation(ctx, in, &hdr) {
		return
	}
	in.recordEcho(i, e.Digest)
	if signed {
		p.maybeFetch(ctx, in, e)
	}
	p.maybeConfirm(ctx, e.SN, in)
}

// maybeFetch asks e's echoer for the proposal once a majority has echoed
// e.Digest, whose header the leader signed, and this member still holds no
// proposal: its PROPOSE was lost, or is slower than everyone else's echoes.
func (p *Protocol) maybeFetch(ctx *simnet.Context, in *instance, e Echo) {
	if in.propose != nil || in.fetched || p.Self == p.Leader || !Majority(in.echoesFor(e.Digest), len(p.Committee)) {
		return
	}
	in.fetched = true
	var payload any = Fetch{Round: e.Round, SN: e.SN, Digest: e.Digest, Leader: e.Leader}
	ctx.Send(e.Echoer, TagFetch, payload, wire.Size(payload))
}

// onFetch answers a committee member that asks for the proposal this node
// adopted with that PROPOSE, once per member per instance; anything else is
// ignored, so a flood of fetches buys at most one proposal a member.
func (p *Protocol) onFetch(ctx *simnet.Context, from simnet.NodeID, f Fetch) {
	i, member := p.position(from)
	in := p.insts[f.SN]
	if !member || f.Round != p.Round || f.Leader != p.Leader || in == nil || in.propose == nil || in.propose.digest != f.Digest || in.slots[i].served {
		return
	}
	in.slots[i].served = true
	prop := p.header(f.SN, in.propose)
	prop.Payload = in.payload
	p.SendRaw(ctx, prop, []simnet.NodeID{from})
}

func (p *Protocol) maybeConfirm(ctx *simnet.Context, sn uint64, in *instance) {
	if in.confirmSent || in.propose == nil || in.equivocated() {
		return
	}
	if !Majority(in.votes, len(p.Committee)) {
		return
	}
	in.confirmSent = true
	d := in.propose.digest
	conf := Confirm{Round: p.Round, SN: sn, Digest: d, Confirmer: p.Self}
	p.sigBuf = wire.SigningBytes(p.sigBuf[:0], conf)
	conf.Sig = p.Scheme.Sign(p.Keys, p.sigBuf)
	if p.OnAccept != nil {
		p.OnAccept(ctx, sn, d, in.payload)
	}
	if p.Self == p.Leader {
		p.onConfirm(ctx, conf)
	} else {
		var payload any = conf
		ctx.Send(p.Leader, TagConfirm, payload, wire.Size(payload))
	}
}

func (p *Protocol) onConfirm(ctx *simnet.Context, c Confirm) {
	if p.Self != p.Leader || c.Round != p.Round {
		return
	}
	i, member := p.position(c.Confirmer)
	if !member {
		return // as for echoes: a node outside the roster has no vote
	}
	p.sigBuf = wire.SigningBytes(p.sigBuf[:0], c)
	if p.Scheme.Verify(p.PKOf(c.Confirmer), c.Sig, p.sigBuf) != nil {
		return
	}
	in := p.inst(c.SN)
	if in.propose == nil || c.Digest != in.propose.digest || in.decided {
		return
	}
	if in.slots[i].confirmed {
		return
	}
	in.slots[i].confirmed = true
	if in.confirms == nil {
		in.confirms = make([]Vote, 0, len(p.Committee)/2+1) // a majority: no vote past it is kept
	}
	in.confirms = append(in.confirms, Vote{Voter: c.Confirmer, Sig: c.Sig})
	if !Majority(len(in.confirms), len(p.Committee)) {
		return
	}
	in.decided = true
	res := Result{Round: p.Round, SN: c.SN, Digest: c.Digest, Payload: in.payload, Quorum: Quorum{Votes: in.confirms}}
	in.confirms = nil
	slices.SortFunc(res.Quorum.Votes, func(a, b Vote) int { return cmp.Compare(a.Voter, b.Voter) })
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
