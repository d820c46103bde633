package consensus

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// The differential tests drive one Algorithm 3 endpoint and the map-based
// oracle (oracle_test.go) through the same schedule of proposals (direct and
// relayed), echoes, fetches and confirms, and require every effect to match: each send (destination, tag,
// declared size, encoded bytes), OnAccept, OnDecide's Result bytes,
// OnEquivocation (witness as the set {A, B}), HasProposal and Decided. Every
// schedule runs twice: with the endpoint verifying each echo itself, and
// with it sharing a VerifiedEchoes with a second member's endpoint that has
// been shown the whole schedule first (runSchedule).

// endpoint is what the schedule drives: *Protocol and *oracleProtocol.
type endpoint interface {
	Handle(ctx *simnet.Context, msg simnet.Message) bool
	Propose(ctx *simnet.Context, sn uint64, digest crypto.Digest, payload any, size int)
	HasProposal(sn uint64) bool
	Decided(sn uint64) bool
}

// malleable wraps a scheme so that a signature has a second valid encoding,
// sig ‖ 0xA5. Neither shipped scheme has one, and without it "a header shown
// again whose signature bytes differ from the verified one" could only ever
// be an invalid header.
type malleable struct{ SignatureScheme }

func (m malleable) Verify(pk crypto.PublicKey, sig []byte, msg []byte) error {
	if n := len(sig); n > 0 && sig[n-1] == 0xA5 && m.SignatureScheme.Verify(pk, sig[:n-1], msg) == nil {
		return nil
	}
	return m.SignatureScheme.Verify(pk, sig, msg)
}

// world is the part of a schedule's configuration both endpoints share.
type world struct {
	scheme    SignatureScheme
	committee []simnet.NodeID // deliberately not in ID order
	keys      map[simnet.NodeID]crypto.KeyPair
	self      simnet.NodeID
	leader    simnet.NodeID
}

const (
	diffRound   = 5
	staleRound  = 99
	foreignSkew = 7 // a leader signature "for another instance" is for sn+7
	// diffOutsider is in no committee newWorld builds.
	diffOutsider = simnet.NodeID(36)
)

// diffSizes are the committee sizes a schedule's first byte chooses from.
var diffSizes = []int{4, 7, 16}

// diffSNs are the sequence numbers whose HasProposal/Decided are compared.
var diffSNs = []uint64{1, 2, 1 + foreignSkew, 2 + foreignSkew}

// diffDigests are the four digests in play: those of sealed{0} and
// sealed{1}, that of no payload, and that of a boxed{0}. They are set once
// sealed and boxed are registered, which happens in init.
var diffDigests [4]crypto.Digest

// sealed is a payload registered, like the protocol layer's, with the wire
// codec: a proposal carrying sealed{k} is adopted only under its
// PayloadDigest, diffDigests[k]. Its tag is the test binary's own, far from
// the declared ones.
type sealed struct{ K uint64 }

func (s sealed) layout(c *wire.Coder) sealed {
	c.U64(&s.K)
	return s
}

// boxed is sealed's pointer-shaped twin, registered as the protocol layer's
// *IntraPayload is: an endpoint on a shared set skips the digest of a
// pointer the set has matched to the proposal's header, so which pointer a
// proposal carries, not only what it points to, is part of a schedule.
// boxedWalks counts every walk of a boxed's layout.
type boxed struct{ K uint64 }

var boxedWalks atomic.Int64

func (b *boxed) layout(c *wire.Coder) *boxed {
	if c.Reading() {
		b = new(boxed)
	}
	boxedWalks.Add(1)
	c.U64(&b.K)
	return b
}

func init() {
	wire.Register(sealed.layout, 0x7000)
	wire.Register((*boxed).layout, 0x7001)
	diffDigests = [4]crypto.Digest{PayloadDigest(sealed{0}), PayloadDigest(sealed{1}), crypto.HString("d2"), PayloadDigest(&boxed{0})}
}

// diffPayloads are registered wire values (a proposal must encode). Confirm
// is what ValidatePayload rejects; the last three are pointers: one whose
// digest is diffDigests[3], a second pointer to an equal value, and a
// pointer to another value, which a relay can put under the first one's
// header.
var diffPayloads = [7]any{nil, sealed{0}, sealed{1}, Confirm{SN: 2}, &boxed{0}, &boxed{0}, &boxed{1}}

func diffValidate(_ uint64, payload any) bool {
	_, rejected := payload.(Confirm)
	return !rejected
}

// payloadOf maps a schedule byte to one of diffPayloads.
func payloadOf(v byte) any { return diffPayloads[int(v)%len(diffPayloads)] }

func newWorld(c int, ed25519, leaderSide bool, selfPos int) *world {
	w := &world{keys: make(map[simnet.NodeID]crypto.KeyPair)}
	if ed25519 {
		w.scheme = malleable{Ed25519Scheme{}}
	} else {
		w.scheme = malleable{HashScheme{}}
	}
	rng := rand.New(rand.NewSource(int64(c)))
	for i := 0; i < c; i++ {
		id := simnet.NodeID((i*11 + 5) % 37) // distinct for c ≤ 37, unsorted
		w.committee = append(w.committee, id)
		w.keys[id] = crypto.GenerateKeyPair(rng)
	}
	w.leader = w.committee[2%c]
	w.self = w.committee[selfPos%c]
	if leaderSide {
		w.self = w.leader
	}
	return w
}

// rig is one endpoint on a network of its own, with every effect logged.
type rig struct {
	net  *simnet.Network
	ep   endpoint
	log  []string
	sent map[string]int // the endpoint's sends by tag, over the whole schedule
	// adopted counts the OnAccepts of a sealed or boxed payload: the
	// endpoint took and confirmed a real payload under the digest it
	// encodes to.
	adopted int
}

func enc(t testing.TB, v any) []byte {
	t.Helper()
	b, err := wire.AppendEncode(nil, v)
	if err != nil {
		t.Fatalf("encoding %T: %v", v, err)
	}
	return b
}

func newRig(t testing.TB, w *world, oracle bool, echoes *VerifiedEchoes) *rig {
	r := &rig{net: simnet.New(simnet.DefaultLatency(), 1), sent: make(map[string]int)}
	onDecide := func(_ *simnet.Context, res Result) {
		r.log = append(r.log, fmt.Sprintf("decide %x", enc(t, res)))
	}
	onAccept := func(_ *simnet.Context, sn uint64, d crypto.Digest, payload any) {
		r.log = append(r.log, fmt.Sprintf("accept sn=%d %x %x", sn, d[:4], enc(t, payload)))
		switch payload.(type) {
		case sealed, *boxed:
			r.adopted++
		}
	}
	onEquivocation := func(_ *simnet.Context, wit Witness) {
		ab := [][]byte{enc(t, wit.A), enc(t, wit.B)}
		slices.SortFunc(ab, bytes.Compare)
		r.log = append(r.log, fmt.Sprintf("equivocation %x %x", ab[0], ab[1]))
	}
	pkOf := func(id simnet.NodeID) crypto.PublicKey { return w.keys[id].PK }
	if oracle {
		r.ep = &oracleProtocol{
			Round: diffRound, Self: w.self, Leader: w.leader, Committee: w.committee,
			Keys: w.keys[w.self], PKOf: pkOf, Scheme: w.scheme,
			OnDecide: onDecide, OnAccept: onAccept, OnEquivocation: onEquivocation, ValidatePayload: diffValidate,
		}
	} else {
		r.ep = &Protocol{
			Round: diffRound, Self: w.self, Leader: w.leader, Committee: w.committee,
			Keys: w.keys[w.self], PKOf: pkOf, Scheme: w.scheme, Echoes: echoes,
			OnDecide: onDecide, OnAccept: onAccept, OnEquivocation: onEquivocation, ValidatePayload: diffValidate,
		}
	}
	r.net.Register(w.self, func(ctx *simnet.Context, msg simnet.Message) { r.ep.Handle(ctx, msg) })
	// An endpoint never sends to itself, which tells its sends from the
	// schedule's injected deliveries (whose sender may be its own ID).
	r.net.SetSendAudit(func(m simnet.Message) {
		if m.From == w.self && m.To != w.self {
			r.sent[m.Tag]++
			r.log = append(r.log, fmt.Sprintf("send to=%d %s size=%d %x", m.To, m.Tag, m.Size, enc(t, m.Payload)))
		}
	})
	return r
}

// step is one schedule entry, six bytes wide. The zero value of every field
// is the honest choice, so an all-zero tail is an honest message.
type step struct{ op, who, dig, sig, where, pay byte }

const stepBytes = 6

const (
	opEcho = iota
	opPropose
	opConfirm
	opLocalPropose
	opEchoAgain // echoes are most of a real instance's traffic
	opFetch
	numOps
)

func (s step) String() string {
	return fmt.Sprintf("{op=%d who=%d dig=%#x sig=%#x where=%#x pay=%d}", s.op%numOps, s.who, s.dig, s.sig, s.where, int(s.pay)%len(diffPayloads))
}

// sign signs msg under kp, then spoils or re-encodes the signature:
// variant 1 is invalid, 2 the malleable scheme's second valid encoding.
func (w *world) sign(kp crypto.KeyPair, variant byte, msg []byte) []byte {
	sig := w.scheme.Sign(kp, msg)
	switch variant % 4 {
	case 1:
		sig = append([]byte(nil), sig...)
		sig[0] ^= 0x80
	case 2:
		sig = append(append([]byte(nil), sig...), 0xA5)
	}
	return sig
}

// rarely returns odd when v's two low bits are both set — one schedule byte
// in four — and usual otherwise.
func rarely(v byte, odd, usual uint64) uint64 {
	if v&3 == 3 {
		return odd
	}
	return usual
}

// digestOf maps two schedule bits to one of the four digests in play.
func digestOf(v byte) crypto.Digest { return diffDigests[v&3] }

// proposal forges a leader proposal from the step's fields at the given bit
// offsets (a PROPOSE and the signature an echo carries read different bits).
func (w *world) proposal(s step, sn uint64, digBits, sigBits, snBits, roundBits uint) Propose {
	round := rarely(s.where>>roundBits, staleRound, diffRound)
	sn = rarely(s.where>>snBits, sn+foreignSkew, sn)
	d := digestOf(s.dig >> digBits)
	leader := w.leader
	if s.where&0x80 != 0 {
		leader = w.committee[0] // a wrong Leader field; the signature is still the leader's
	}
	prop := Propose{Round: round, SN: sn, Digest: d, Payload: payloadOf(s.pay), Leader: leader}
	prop.Sig = w.sign(w.keys[w.leader], s.sig>>sigBits, wire.SigningBytes(nil, prop))
	return prop
}

// schedule runs steps on its rigs — the table and the oracle, or a peer
// alone — and fails at the first divergence.
type schedule struct {
	t        testing.TB
	w        *world
	self     simnet.NodeID // the member the rigs' endpoints are
	rigs     []*rig
	proposed map[uint64]bool
	shown    map[uint64]bool // sns for which the endpoint was shown a validly signed proposal
}

func newSchedule(t testing.TB, w *world, self simnet.NodeID, rigs ...*rig) *schedule {
	return &schedule{t: t, w: w, self: self, rigs: rigs, proposed: make(map[uint64]bool), shown: make(map[uint64]bool)}
}

// sharingPeer builds the endpoint of the first member other than w.self on
// the given set, and a schedule that delivers to it alone.
func sharingPeer(t testing.TB, w *world, set *VerifiedEchoes) *schedule {
	self := w.committee[0]
	if self == w.self {
		self = w.committee[1]
	}
	p := &Protocol{
		Round: diffRound, Self: self, Leader: w.leader, Committee: w.committee, Keys: w.keys[self],
		PKOf: func(id simnet.NodeID) crypto.PublicKey { return w.keys[id].PK }, Scheme: w.scheme,
		ValidatePayload: diffValidate, Echoes: set,
	}
	r := &rig{net: simnet.New(simnet.DefaultLatency(), 2), ep: p}
	r.net.Register(self, func(ctx *simnet.Context, msg simnet.Message) { p.Handle(ctx, msg) })
	return newSchedule(t, w, self, r)
}

func (sc *schedule) each(f func(r *rig)) {
	for _, r := range sc.rigs {
		f(r)
		r.net.RunUntilIdle()
	}
}

func (sc *schedule) run(s step) {
	w := sc.w
	sn := uint64(1 + s.where&1)
	from := w.committee[int(s.who)%len(w.committee)]
	round := rarely(s.where>>1, staleRound, diffRound)
	d := digestOf(s.dig)
	deliver := func(tag string, payload any) {
		sc.each(func(r *rig) { r.net.Send(from, sc.self, tag, payload, 0) })
	}
	switch s.op % numOps {
	case opEcho, opEchoAgain:
		// The leader's signature an echo shows may be over another header
		// than the echo's own, which leaves the echo's unsigned.
		hdr := w.proposal(s, sn, 2, 2, 3, 5)
		if hdr.Round == round && hdr.SN == sn && hdr.Digest == d {
			sc.note(hdr, s.sig>>2)
		}
		echo := Echo{Round: round, SN: sn, Digest: d, Echoer: from, Leader: hdr.Leader, LeaderSig: hdr.Sig}
		echo.Sig = w.sign(w.keys[from], s.sig, wire.SigningBytes(nil, echo))
		deliver(TagEcho, echo)
	case opPropose:
		// A PROPOSE has no enclosing echo to disagree with: its round and sn
		// are the message's own. Three in four come from the leader; the rest
		// are relayed by a member, as the answer to a Fetch is.
		prop := w.proposal(s, sn, 0, 0, 3, 1)
		sc.note(prop, s.sig)
		if s.who&3 != 3 {
			from = w.leader
		}
		deliver(TagPropose, prop)
	case opFetch:
		// Unsigned, so sig picks the sender: one in four is not a member.
		if s.sig&3 == 3 {
			from = diffOutsider
		}
		leader := w.leader
		if s.where&0x80 != 0 {
			leader = w.committee[0]
		}
		deliver(TagFetch, Fetch{Round: round, SN: sn, Digest: d, Leader: leader})
	case opConfirm:
		conf := Confirm{Round: round, SN: sn, Digest: d, Confirmer: from}
		conf.Sig = w.sign(w.keys[from], s.sig, wire.SigningBytes(nil, conf))
		deliver(TagConfirm, conf)
	case opLocalPropose:
		// Only a leader proposes, once per sn, and not after it has been
		// shown a proposal for that sn under its own signature (see
		// oracle_test.go's header for why that case is left out).
		if sc.self != w.leader || sc.proposed[sn] || sc.shown[sn] {
			return
		}
		sc.proposed[sn] = true
		sc.each(func(r *rig) {
			r.net.After(sc.self, 1, func(ctx *simnet.Context) {
				r.ep.Propose(ctx, sn, digestOf(s.dig), payloadOf(s.pay), 0)
			})
		})
	}
}

// note records that the endpoint was shown a validly signed proposal of
// this round.
func (sc *schedule) note(prop Propose, sigVariant byte) {
	if sigVariant%4 != 1 && prop.Round == diffRound {
		sc.shown[prop.SN] = true
	}
}

func (sc *schedule) compare(i int, s step) {
	sc.t.Helper()
	a, b := sc.rigs[0], sc.rigs[1]
	if !slices.Equal(a.log, b.log) {
		sc.t.Fatalf("step %d %v: effects diverge\n table: %s\noracle: %s", i, s, strings.Join(a.log, "\n        "), strings.Join(b.log, "\n        "))
	}
	a.log, b.log = a.log[:0], b.log[:0]
	for _, sn := range diffSNs {
		if a.ep.HasProposal(sn) != b.ep.HasProposal(sn) || a.ep.Decided(sn) != b.ep.Decided(sn) {
			sc.t.Fatalf("step %d %v: sn %d: table HasProposal=%v Decided=%v, oracle %v %v", i, s, sn,
				a.ep.HasProposal(sn), a.ep.Decided(sn), b.ep.HasProposal(sn), b.ep.Decided(sn))
		}
	}
}

// runSchedule decodes data — three configuration bytes, then six per step —
// and replays it on the table and the oracle. When shared is set, another
// member's endpoint is shown the whole schedule first, on a VerifiedEchoes
// the table then shares: every echo that verified there reaches the table
// already verified, and every spoiled copy of one is shown to a table that
// may not have filed the genuine one yet. It returns how many effects the
// schedule produced and the table's rig, whose sends and adoptions tell a
// live schedule from noise.
func runSchedule(t testing.TB, data []byte, shared bool) (effects int, table *rig) {
	if len(data) < 3 {
		return 0, &rig{}
	}
	w := newWorld(diffSizes[int(data[0])%len(diffSizes)], data[1]&1 == 1, data[1]&2 == 2, int(data[2]))
	var steps []step
	for data = data[3:]; len(data) >= stepBytes && len(steps) < 512; data = data[stepBytes:] {
		steps = append(steps, step{data[0], data[1], data[2], data[3], data[4], data[5]})
	}
	var set *VerifiedEchoes
	if shared {
		set = NewVerifiedEchoes(diffRound, w.leader)
		peer := sharingPeer(t, w, set)
		for _, s := range steps {
			peer.run(s)
		}
	}
	sc := newSchedule(t, w, w.self, newRig(t, w, false, set), newRig(t, w, true, nil))
	for i, s := range steps {
		sc.run(s)
		effects += len(sc.rigs[0].log)
		sc.compare(i, s)
	}
	return effects, sc.rigs[0]
}

// honestSchedule is a whole honest instance seen from one endpoint: the
// proposal of sealed{0}, or with pointer of the first boxed{0} (delivered,
// or proposed locally on the leader), every member's echo, two members'
// fetches (one of them asking twice), every member's confirm, all for the
// proposal's digest. With pointer, at a member, another member relays
// boxed{1} under the first boxed{0}'s header ahead of the leader's proposal.
func honestSchedule(sizeIdx, ed25519 int, leaderSide bool, selfPos byte, pointer bool) []byte {
	cfg := byte(ed25519)
	var dig byte // every step's digests: diffDigests[0], or [3] (0b11 in both fields an echo reads)
	first := step{op: opPropose, pay: 1}
	if pointer {
		dig, first.pay = 0x0f, 4
	}
	if leaderSide {
		cfg |= 2
		first.op = opLocalPropose
	}
	data := []byte{byte(sizeIdx), cfg, selfPos}
	add := func(s step) { data = append(data, s.op, s.who, dig, s.sig, s.where, s.pay) }
	relayed := step{op: opPropose, who: 3, pay: 6}
	if pointer && !leaderSide {
		add(relayed)
	}
	add(first)
	c := diffSizes[sizeIdx]
	for i := 0; i < c; i++ {
		add(step{op: opEcho, who: byte(i)})
	}
	for _, who := range []byte{0, 3, 0} {
		add(step{op: opFetch, who: who})
	}
	for i := 0; i < c; i++ {
		add(step{op: opConfirm, who: byte(i)})
	}
	return data
}

// disturb derives an adversarial schedule from an honest one: steps are
// duplicated and moved (echoes ahead of the proposal — which makes a member
// fetch — late confirms) and a share of their fields set at random (second
// digests, bad and re-encoded signatures, stale rounds, foreign sns, payloads
// that are rejected or hash to another digest, relayed proposals, outsiders'
// fetches).
func disturb(rng *rand.Rand, honest []byte) []byte {
	cfg, body := honest[:3], honest[3:]
	var steps [][]byte
	for ; len(body) >= stepBytes; body = body[stepBytes:] {
		steps = append(steps, body[:stepBytes])
		for rng.Intn(4) == 0 {
			steps = append(steps, body[:stepBytes])
		}
	}
	for k := rng.Intn(len(steps)); k > 0; k-- {
		i, j := rng.Intn(len(steps)), rng.Intn(len(steps))
		steps[i], steps[j] = steps[j], steps[i]
	}
	out := append([]byte(nil), cfg...)
	for _, s := range steps {
		s = append([]byte(nil), s...)
		for f := 1; f < stepBytes; f++ {
			if rng.Intn(8) == 0 {
				s[f] = byte(rng.Intn(256))
			}
		}
		out = append(out, s...)
	}
	return out
}

func TestAlgorithm3MatchesOracle(t *testing.T) {
	for sizeIdx, c := range diffSizes {
		for ed := 0; ed < 2; ed++ {
			for _, leaderSide := range []bool{false, true} {
				name := fmt.Sprintf("c=%d/ed25519=%d/leader=%v", c, ed, leaderSide)
				t.Run(name, func(t *testing.T) {
					t.Run("private", func(t *testing.T) { matchOracle(t, sizeIdx, ed, leaderSide, false) })
					t.Run("shared", func(t *testing.T) { matchOracle(t, sizeIdx, ed, leaderSide, true) })
				})
			}
		}
	}
}

// matchOracle replays the honest schedules of one configuration — with a
// value payload and with a pointer one — and their disturbed variants on
// the table and the oracle.
func matchOracle(t *testing.T, sizeIdx, ed int, leaderSide, shared bool) {
	for variant, pointer := range []bool{false, true} {
		matchOracleFrom(t, sizeIdx, ed, leaderSide, shared, honestSchedule(sizeIdx, ed, leaderSide, 1, pointer), int64(variant))
	}
}

func matchOracleFrom(t *testing.T, sizeIdx, ed int, leaderSide, shared bool, honest []byte, variant int64) {
	c := diffSizes[sizeIdx]
	// An honest instance is live: the member confirms, the leader decides —
	// the oracle agreeing on silence would prove nothing.
	n, table := runSchedule(t, honest, shared)
	if n < 2 || table.adopted != 1 {
		t.Fatalf("honest schedule produced %d effects, adopted its payload %d times", n, table.adopted)
	}
	// Two members fetch, one of them twice: two answers.
	if sent := table.sent[TagPropose]; sent != map[bool]int{false: 2, true: c - 1 + 2}[leaderSide] {
		t.Fatalf("honest schedule sent %d proposals", sent)
	}
	rng := rand.New(rand.NewSource(int64(100*c+10*ed) + variant))
	variants := 150
	if ed == 1 {
		variants = 25 // real signatures: ~100 µs a step
	}
	live, fetches, adopted := 0, 0, 0
	for v := 0; v < variants; v++ {
		n, table := runSchedule(t, disturb(rng, honest), shared)
		if n > 0 {
			live++
		}
		fetches += table.sent[TagFetch]
		adopted += min(table.adopted, 1)
	}
	if live < variants/2 {
		t.Fatalf("only %d of %d disturbed schedules produced any effect", live, variants)
	}
	if adopted == 0 {
		t.Fatal("no disturbed schedule adopted a payload")
	}
	// Echoes moved ahead of the proposal make a member fetch.
	if !leaderSide && fetches == 0 {
		t.Fatal("no disturbed schedule made the member fetch")
	}
}

func FuzzAlgorithm3(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for sizeIdx := range diffSizes {
		for ed := 0; ed < 2; ed++ {
			for _, leaderSide := range []bool{false, true} {
				for _, pointer := range []bool{false, true} {
					honest := honestSchedule(sizeIdx, ed, leaderSide, 1, pointer)
					f.Add(honest)
					f.Add(disturb(rng, honest))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runSchedule(t, data, false)
		runSchedule(t, data, true)
	})
}
