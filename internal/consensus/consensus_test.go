package consensus

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// harness wires a committee of Protocol endpoints over a simnet.
type harness struct {
	net     *simnet.Network
	nodes   map[simnet.NodeID]*Protocol
	keys    map[simnet.NodeID]crypto.KeyPair
	members []simnet.NodeID
	leader  simnet.NodeID

	decided  map[simnet.NodeID]*Result
	accepted map[simnet.NodeID]crypto.Digest
	witness  map[simnet.NodeID]*Witness
}

func newHarness(t *testing.T, size int, scheme SignatureScheme, seed int64) *harness {
	t.Helper()
	h := &harness{
		net:      simnet.New(simnet.DefaultLatency(), seed),
		nodes:    make(map[simnet.NodeID]*Protocol),
		keys:     make(map[simnet.NodeID]crypto.KeyPair),
		decided:  make(map[simnet.NodeID]*Result),
		accepted: make(map[simnet.NodeID]crypto.Digest),
		witness:  make(map[simnet.NodeID]*Witness),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < size; i++ {
		id := simnet.NodeID(i)
		h.members = append(h.members, id)
		h.keys[id] = crypto.GenerateKeyPair(rng)
	}
	h.leader = h.members[0]
	for _, id := range h.members {
		id := id
		p := &Protocol{
			Round:     1,
			Self:      id,
			Leader:    h.leader,
			Committee: h.members,
			Keys:      h.keys[id],
			PKOf:      func(n simnet.NodeID) crypto.PublicKey { return h.keys[n].PK },
			Scheme:    scheme,
			OnDecide: func(ctx *simnet.Context, res Result) {
				r := res
				h.decided[id] = &r
			},
			OnAccept: func(ctx *simnet.Context, sn uint64, d crypto.Digest, payload any) {
				h.accepted[id] = d
			},
			OnEquivocation: func(ctx *simnet.Context, w Witness) {
				ww := w
				h.witness[id] = &ww
			},
		}
		h.nodes[id] = p
		h.net.Register(id, func(ctx *simnet.Context, msg simnet.Message) {
			p.Handle(ctx, msg)
		})
	}
	return h
}

// pki is the committee's key directory under scheme.
func (h *harness) pki(scheme SignatureScheme) *PKI {
	return pkiOver(scheme, h.members, func(n simnet.NodeID) crypto.PublicKey { return h.keys[n].PK })
}

// down takes the given members offline for the whole run: they receive
// nothing, their timers do not fire, and what they send is lost.
func (h *harness) down(ids ...simnet.NodeID) {
	s := simnet.NewSchedule()
	for _, id := range ids {
		s.Crash(id, 0, 0)
	}
	h.net.SetFaults(s)
}

// propose has the leader propose the digest of name with a nil payload:
// agreement on the digest alone, the form Algorithm 3 takes in this
// package's tests (a payload would have to be a registered wire type).
func (h *harness) propose(name string) crypto.Digest {
	d := crypto.HString(name)
	// Kick off via a timer on the leader so the proposal flows through a Context.
	h.net.After(h.leader, 1, func(ctx *simnet.Context) {
		h.nodes[h.leader].Propose(ctx, 1, d, nil, 0)
	})
	h.net.RunUntilIdle()
	return d
}

func TestConsensusAllHonest(t *testing.T) {
	for _, scheme := range []SignatureScheme{Ed25519Scheme{}, HashScheme{}} {
		h := newHarness(t, 7, scheme, 1)
		d := h.propose("block-contents")
		res := h.decided[h.leader]
		if res == nil {
			t.Fatal("leader did not decide")
		}
		if res.Digest != d {
			t.Fatal("decided wrong digest")
		}
		if 2*len(res.Quorum.Votes) <= len(h.members) {
			t.Fatalf("certificate has %d confirms", len(res.Quorum.Votes))
		}
		// Every member accepted.
		for _, id := range h.members {
			if h.accepted[id] != d {
				t.Fatalf("member %d did not accept", id)
			}
		}
	}
}

func TestConsensusCertVerifies(t *testing.T) {
	h := newHarness(t, 5, Ed25519Scheme{}, 2)
	h.propose("payload")
	res := h.decided[h.leader]
	if res == nil {
		t.Fatal("no decision")
	}
	if err := res.Verify(h.pki(Ed25519Scheme{}), h.members); err != nil {
		t.Fatalf("honest certificate rejected: %v", err)
	}
}

// TestCertificateCostsFortyBytesAVoter: an encoded per-voter certificate is
// its header and payload, said once, plus one (voter, signature) entry per
// confirm — 4 + 4 + 32 bytes under HashScheme. A per-voter copy of the
// instance, the digest or any echo evidence would show up here as a wider
// entry at every committee size.
func TestCertificateCostsFortyBytesAVoter(t *testing.T) {
	for _, c := range []int{4, 16, 48} {
		h := newHarness(t, c, HashScheme{}, int64(c))
		h.propose("payload")
		res := h.decided[h.leader]
		if res == nil || len(res.Quorum.Votes) != c/2+1 || res.Quorum.Bitmap != nil {
			t.Fatalf("c=%d: no per-voter certificate of a bare majority: %+v", c, res)
		}
		bare := *res
		bare.Quorum.Votes = nil
		enc, err := wire.Encode(*res)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(enc), wire.Size(bare)+40*len(res.Quorum.Votes); got != want || wire.Size(*res) != want {
			t.Errorf("c=%d: a certificate of %d votes encodes to %d B (sized %d), want %d", c, len(res.Quorum.Votes), got, wire.Size(*res), want)
		}
	}
}

func TestCertRejectsForgery(t *testing.T) {
	h := newHarness(t, 5, Ed25519Scheme{}, 3)
	h.propose("payload")
	res := *h.decided[h.leader]
	pki := h.pki(Ed25519Scheme{})

	// Tampered digest.
	bad := res
	bad.Digest = crypto.HString("other")
	if err := bad.Verify(pki, h.members); err == nil {
		t.Fatal("tampered digest certificate accepted")
	}

	// Dropped confirms below quorum.
	bad2 := res
	bad2.Quorum.Votes = bad2.Quorum.Votes[:2]
	if err := bad2.Verify(pki, h.members); err == nil {
		t.Fatal("sub-quorum certificate accepted")
	}

	// Duplicate confirmer inflating the count.
	bad3 := res
	votes := res.Quorum.Votes
	bad3.Quorum.Votes = append(slices.Clone(votes[:2]), votes[1], votes[1])
	if err := bad3.Verify(pki, h.members); err == nil {
		t.Fatal("duplicate-confirmer certificate accepted")
	}

	// Confirmer outside the committee.
	bad4 := res
	outsider := votes[0]
	outsider.Voter = 99
	bad4.Quorum.Votes = append([]Vote{outsider}, votes[1:]...)
	if err := bad4.Verify(pki, h.members); err == nil {
		t.Fatal("outsider certificate accepted")
	}
}

func TestEquivocatingLeaderDetected(t *testing.T) {
	h := newHarness(t, 6, Ed25519Scheme{}, 4)
	dA := crypto.HString("version-A")
	dB := crypto.HString("version-B")
	h.net.After(h.leader, 1, func(ctx *simnet.Context) {
		p := h.nodes[h.leader]
		propA := BuildPropose(p.Scheme, p.Keys, h.leader, 1, 1, dA, nil)
		propB := BuildPropose(p.Scheme, p.Keys, h.leader, 1, 1, dB, nil)
		p.SendRaw(ctx, propA, h.members[1:4])
		p.SendRaw(ctx, propB, h.members[4:])
	})
	h.net.RunUntilIdle()

	// At least one honest member must hold a valid witness.
	found := false
	for id, w := range h.witness {
		if w == nil {
			continue
		}
		found = true
		if !w.Valid(h.pki(Ed25519Scheme{}), h.leader) {
			t.Fatalf("member %d built an invalid witness", id)
		}
	}
	if !found {
		t.Fatal("equivocation went undetected")
	}
	// No decision must have been reached on either digest by the leader
	// (it never proposed via Propose), and safety holds: members who
	// accepted accepted at most one digest each (they accept before
	// detecting, but never two).
	for id := range h.nodes {
		if h.decided[id] != nil {
			t.Fatalf("node %d decided despite equivocation", id)
		}
	}
}

func TestNoQuorumWithoutMajorityEchoes(t *testing.T) {
	// 6-member committee with 4 members offline: 2 echoes are not a
	// majority, so nobody confirms and the leader never decides.
	h := newHarness(t, 6, Ed25519Scheme{}, 5)
	h.down(h.members[2:]...)
	h.propose("starved")
	if h.decided[h.leader] != nil {
		t.Fatal("leader decided without majority")
	}
	for _, id := range h.members {
		if _, ok := h.accepted[id]; ok {
			t.Fatalf("node %d accepted without majority", id)
		}
	}
}

func TestQuorumWithMinorityOffline(t *testing.T) {
	// 7 members, 2 offline: 5 online > 7/2 — consensus must complete.
	h := newHarness(t, 7, Ed25519Scheme{}, 6)
	h.down(h.members[5], h.members[6])
	d := h.propose("resilient")
	res := h.decided[h.leader]
	if res == nil || res.Digest != d {
		t.Fatal("consensus failed with minority offline")
	}
}

// auditSends counts, from here on, the messages sent under each tag and
// appends each one to *log when log is non-nil.
func (h *harness) auditSends(log *[]simnet.Message) map[string]int {
	sent := make(map[string]int)
	h.net.SetSendAudit(func(m simnet.Message) {
		sent[m.Tag]++
		if log != nil {
			*log = append(*log, m)
		}
	})
	return sent
}

func TestMemberFetchesMissedProposal(t *testing.T) {
	// The leader's PROPOSE never reaches members[4], and the confirms of
	// members[1] and members[2] never reach the leader: a decision needs the
	// skipped member's echo (leader, 3, 4 are the leader's majority) and its
	// confirm. An echo carries no payload, so the member has to fetch.
	h := newHarness(t, 5, Ed25519Scheme{}, 7)
	skipped := h.members[4]
	cuts := simnet.NewSchedule()
	cuts.Cut([]simnet.NodeID{h.leader}, []simnet.NodeID{skipped}, 0, 0)
	cuts.Cut(h.members[1:3], []simnet.NodeID{h.leader}, 0, 0)
	h.net.SetFaults(cuts)
	var log []simnet.Message
	sent := h.auditSends(&log)
	d := h.propose("partial-send")

	if sent[TagFetch] != 1 {
		t.Fatalf("%d fetches sent, want exactly one", sent[TagFetch])
	}
	echoes := 0
	for _, m := range log {
		switch {
		case m.Tag == TagFetch && m.From != skipped:
			t.Fatalf("member %d fetched a proposal it was sent", m.From)
		case m.Tag == TagPropose && m.From != h.leader && m.To != skipped:
			t.Fatalf("member %d sent member %d a proposal it did not ask for", m.From, m.To)
		case m.Tag == TagEcho && m.From == skipped:
			echoes++
		}
	}
	if sent[TagPropose] != len(h.members)-1+1 {
		t.Fatalf("%d proposals sent, want the leader's broadcast and one reply", sent[TagPropose])
	}
	if echoes != len(h.members)-1 {
		t.Fatalf("the skipped member sent %d echoes, want %d", echoes, len(h.members)-1)
	}
	if h.accepted[skipped] != d {
		t.Fatal("the skipped member did not adopt the fetched proposal")
	}
	res := h.decided[h.leader]
	if res == nil || res.Digest != d {
		t.Fatal("no decision")
	}
	if !slices.ContainsFunc(res.Quorum.Votes, func(v Vote) bool { return v.Voter == skipped }) {
		t.Fatal("the skipped member's confirm is not in the certificate")
	}
}

func TestNoFetchBeforeMajorityOrWithoutLeaderSignature(t *testing.T) {
	// A member holding no proposal is shown echoes one at a time. It must
	// not fetch on the first (anyone could make it fetch anything), nor on a
	// majority whose header the leader never signed.
	for _, signedByLeader := range []bool{true, false} {
		h := newHarness(t, 5, Ed25519Scheme{}, 7)
		sent := h.auditSends(nil)
		member, d := h.members[4], crypto.HString("missed")
		signer := h.keys[h.leader]
		if !signedByLeader {
			signer = h.keys[h.members[1]]
		}
		leaderSig := Ed25519Scheme{}.Sign(signer, wire.SigningBytes(nil, Propose{Round: 1, SN: 1, Digest: d, Leader: h.leader}))
		for n, echoer := range h.members[1:4] {
			echo := Echo{Round: 1, SN: 1, Digest: d, Echoer: echoer, Leader: h.leader, LeaderSig: leaderSig}
			echo.Sig = Ed25519Scheme{}.Sign(h.keys[echoer], wire.SigningBytes(nil, echo))
			h.net.Send(echoer, member, TagEcho, echo, 0)
			h.net.RunUntilIdle()
			want := 0
			if signedByLeader && Majority(n+1, len(h.members)) {
				want = 1
			}
			if sent[TagFetch] != want {
				t.Fatalf("leader-signed=%v: %d fetches after %d echoes, want %d", signedByLeader, sent[TagFetch], n+1, want)
			}
		}
	}
}

func TestFetchAdmission(t *testing.T) {
	// After an honest instance every member holds the proposal. One of them
	// answers a fetch only from a committee member, for this round, for an
	// instance it knows and the digest it adopted — and one member only once.
	h := newHarness(t, 5, Ed25519Scheme{}, 12)
	d := h.propose("payload")
	holder, asker := h.members[1], h.members[2]
	if h.nodes[holder].insts[1].slots[2].served {
		t.Fatal("the honest run already served the asker; pick another seed")
	}
	sent := h.auditSends(nil)
	const outsider = simnet.NodeID(9)
	h.addOutsider(outsider)
	good := Fetch{Round: 1, SN: 1, Digest: d, Leader: h.leader}
	ask := func(from simnet.NodeID, mutate func(*Fetch)) int {
		f := good
		if mutate != nil {
			mutate(&f)
		}
		before := sent[TagPropose]
		h.net.Send(from, holder, TagFetch, f, 0)
		h.net.RunUntilIdle()
		return sent[TagPropose] - before
	}
	for name, replies := range map[string]int{
		"non-member sender": ask(outsider, nil),
		"wrong round":       ask(asker, func(f *Fetch) { f.Round = 2 }),
		"unknown sn":        ask(asker, func(f *Fetch) { f.SN = 7 }),
		"another digest":    ask(asker, func(f *Fetch) { f.Digest = crypto.HString("other") }),
		"another leader":    ask(asker, func(f *Fetch) { f.Leader = asker }),
	} {
		if replies != 0 {
			t.Errorf("%s: %d replies, want none", name, replies)
		}
	}
	if _, known := h.nodes[holder].insts[7]; known {
		t.Error("a fetch for an unknown sn created an instance")
	}
	if n := ask(asker, nil); n != 1 {
		t.Fatalf("a member's fetch drew %d replies, want one", n)
	}
	if n := ask(asker, nil); n != 0 {
		t.Fatalf("the same member's second fetch drew %d replies, want none", n)
	}
	if n := ask(h.members[3], nil); n != 1 {
		t.Fatalf("another member's fetch drew %d replies, want one", n)
	}
}

func TestEquivocationProvedFromHeaders(t *testing.T) {
	// A member holding A from a direct PROPOSE is shown B only as the header
	// inside another member's echo. The witness is two headers: it verifies,
	// and it carries neither payload into the accusation.
	h := newHarness(t, 5, Ed25519Scheme{}, 4)
	member, echoer := h.members[1], h.members[2]
	dB := crypto.HString("version-B")
	lp := h.nodes[h.leader]
	propA := BuildPropose(lp.Scheme, lp.Keys, h.leader, 1, 1, crypto.HString("version-A"), "version-A")
	propB := BuildPropose(lp.Scheme, lp.Keys, h.leader, 1, 1, dB, "version-B")
	h.net.Send(h.leader, member, TagPropose, propA, 0)
	h.net.RunUntilIdle()
	echo := Echo{Round: 1, SN: 1, Digest: dB, Echoer: echoer, Leader: h.leader, LeaderSig: propB.Sig}
	echo.Sig = Ed25519Scheme{}.Sign(h.keys[echoer], wire.SigningBytes(nil, echo))
	h.net.Send(echoer, member, TagEcho, echo, 0)
	h.net.RunUntilIdle()
	w := h.witness[member]
	if w == nil {
		t.Fatal("equivocation shown by an echo header went undetected")
	}
	if !w.Valid(h.pki(Ed25519Scheme{}), h.leader) {
		t.Fatal("witness built from headers does not verify")
	}
	if w.A.Digest != propA.Digest || w.B.Digest != dB {
		t.Fatalf("witness is (%x, %x)", w.A.Digest[:4], w.B.Digest[:4])
	}
	if w.A.Payload != nil || w.B.Payload != nil {
		t.Fatalf("witness carries payloads: %+v", w)
	}
	if _, err := wire.AppendEncode(nil, *w); err != nil {
		t.Fatalf("witness does not encode: %v", err)
	}
}

func TestWitnessValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	kp := crypto.GenerateKeyPair(rng)
	scheme := Ed25519Scheme{}
	pki := NewPKI(scheme, []crypto.PublicKey{nil, kp.PK}) // kp is node 1's
	a := BuildPropose(scheme, kp, 1, 1, 1, crypto.HString("a"), nil)
	b := BuildPropose(scheme, kp, 1, 1, 1, crypto.HString("b"), nil)
	if !(Witness{A: a, B: b}).Valid(pki, 1) {
		t.Fatal("genuine witness rejected")
	}
	// Same digest: not equivocation.
	if (Witness{A: a, B: a}).Valid(pki, 1) {
		t.Fatal("same-digest witness accepted")
	}
	// Different instance: not equivocation.
	c := BuildPropose(scheme, kp, 1, 1, 2, crypto.HString("c"), nil)
	if (Witness{A: a, B: c}).Valid(pki, 1) {
		t.Fatal("cross-instance witness accepted")
	}
	// Forged signature: a fabricated message cannot frame the leader
	// (Claim 4).
	other := crypto.GenerateKeyPair(rng)
	forged := a
	forged.Digest = crypto.HString("forged")
	forged.Sig = scheme.Sign(other, wire.SigningBytes(nil, forged))
	if (Witness{A: forged, B: b}).Valid(pki, 1) {
		t.Fatal("forged witness accepted — honest leader framed")
	}
}

func TestValidatePayloadWithholdsEchoes(t *testing.T) {
	// When members reject the payload, no echoes flow and neither
	// acceptance nor a decision can form — the referee committee's
	// semi-commitment check relies on this.
	h := newHarness(t, 5, Ed25519Scheme{}, 11)
	for _, p := range h.nodes {
		p.ValidatePayload = func(sn uint64, payload any) bool { return payload != sealed{0} }
	}
	d := PayloadDigest(sealed{0})
	h.net.After(h.leader, 1, func(ctx *simnet.Context) {
		h.nodes[h.leader].Propose(ctx, 1, d, sealed{0}, 0)
	})
	h.net.RunUntilIdle()
	for id := range h.nodes {
		if _, ok := h.accepted[id]; ok {
			t.Fatalf("node %d accepted a rejected payload", id)
		}
	}
	if h.decided[h.leader] != nil {
		t.Fatal("leader decided on a rejected payload")
	}

	// A clean payload on a fresh instance still goes through.
	d2 := PayloadDigest(sealed{1})
	h.net.After(h.leader, 1, func(ctx *simnet.Context) {
		h.nodes[h.leader].Propose(ctx, 2, d2, sealed{1}, 0)
	})
	h.net.RunUntilIdle()
	if h.accepted[h.members[1]] != d2 {
		t.Fatal("clean payload rejected")
	}
}

func TestJunkSignedConfirmsIgnored(t *testing.T) {
	// CONFIRMs naming members but carrying junk signatures must not count
	// toward the leader's quorum.
	h := newHarness(t, 5, Ed25519Scheme{}, 12)
	// Only leader + one member online: no quorum possible honestly.
	h.down(h.members[2:]...)
	h.propose("starved")
	if h.decided[h.leader] != nil {
		t.Fatal("decided without quorum")
	}
	// Handed to the leader directly: a down node's own sends are lost.
	h.net.After(h.leader, 1, func(ctx *simnet.Context) {
		for _, from := range h.members[3:] {
			forged := Confirm{Round: 1, SN: 1, Digest: crypto.HString("starved"), Confirmer: from, Sig: []byte("junk")}
			h.nodes[h.leader].Handle(ctx, simnet.Message{From: from, To: h.leader, Tag: TagConfirm, Payload: forged})
		}
	})
	h.net.RunUntilIdle()
	if h.decided[h.leader] != nil {
		t.Fatal("forged confirms produced a decision")
	}
}

// addOutsider gives the PKI a key for a node that is in no committee: what
// it signs verifies, and must still count for nothing.
func (h *harness) addOutsider(id simnet.NodeID) {
	h.keys[id] = crypto.GenerateKeyPair(rand.New(rand.NewSource(int64(id))))
}

func TestConfirmFromOutsiderIgnored(t *testing.T) {
	// A validly signed CONFIRM from a registered non-member reaches the
	// leader while the honest confirms are still in flight. Folded into the
	// Result it would make Verify reject the honest leader's certificate.
	h := newHarness(t, 5, Ed25519Scheme{}, 12)
	const outsider = simnet.NodeID(9)
	h.addOutsider(outsider)
	d := crypto.HString("payload")
	conf := Confirm{Round: 1, SN: 1, Digest: d, Confirmer: outsider}
	conf.Sig = Ed25519Scheme{}.Sign(h.keys[outsider], wire.SigningBytes(nil, conf))
	// Tick 2: the leader proposed at tick 1 and no honest confirm can be
	// back before two more hops.
	h.net.After(h.leader, 2, func(ctx *simnet.Context) {
		h.nodes[h.leader].Handle(ctx, simnet.Message{From: outsider, To: h.leader, Tag: TagConfirm, Payload: conf})
	})
	h.propose("payload")
	res := h.decided[h.leader]
	if res == nil {
		t.Fatal("no decision")
	}
	for _, v := range res.Quorum.Votes {
		if v.Voter == outsider {
			t.Fatal("outsider's confirm folded into the certificate")
		}
	}
	if err := res.Verify(h.pki(Ed25519Scheme{}), h.members); err != nil {
		t.Fatalf("honest leader's certificate rejected: %v", err)
	}
}

func TestEchoesFromOutsidersDoNotCount(t *testing.T) {
	// Three of five members are down, so the two that remain cannot reach
	// the echo quorum — and two validly signed ECHOes from registered
	// non-members must not carry them over it.
	h := newHarness(t, 5, Ed25519Scheme{}, 12)
	h.down(h.members[2:]...)
	d := h.propose("starved")
	lp := h.nodes[h.leader]
	prop := BuildPropose(lp.Scheme, lp.Keys, h.leader, 1, 1, d, "starved")
	for _, outsider := range []simnet.NodeID{8, 9} {
		h.addOutsider(outsider)
		echo := Echo{Round: 1, SN: 1, Digest: d, Echoer: outsider, Leader: h.leader, LeaderSig: prop.Sig}
		echo.Sig = Ed25519Scheme{}.Sign(h.keys[outsider], wire.SigningBytes(nil, echo))
		for _, to := range h.members[:2] {
			h.net.Send(outsider, to, TagEcho, echo, 10)
		}
	}
	h.net.RunUntilIdle()
	for _, id := range h.members[:2] {
		if _, ok := h.accepted[id]; ok {
			t.Fatalf("node %d confirmed on outsiders' echoes", id)
		}
	}
	if h.decided[h.leader] != nil {
		t.Fatal("leader decided on outsiders' echoes")
	}
}

func TestEquivocationWitnessDeterministic(t *testing.T) {
	// TestEquivocatingLeaderDetected's scenario, fifty times over: the run is
	// byte-deterministic, so every member must build the same witness every
	// time — A the first digest it saw, B the second — not whichever a map
	// iteration happened to yield first.
	dA, dB := crypto.HString("version-A"), crypto.HString("version-B")
	var first map[simnet.NodeID]Witness
	for run := 0; run < 50; run++ {
		h := newHarness(t, 6, Ed25519Scheme{}, 4)
		h.net.After(h.leader, 1, func(ctx *simnet.Context) {
			p := h.nodes[h.leader]
			propA := BuildPropose(p.Scheme, p.Keys, h.leader, 1, 1, dA, nil)
			propB := BuildPropose(p.Scheme, p.Keys, h.leader, 1, 1, dB, nil)
			p.SendRaw(ctx, propA, h.members[1:4])
			p.SendRaw(ctx, propB, h.members[4:])
		})
		h.net.RunUntilIdle()
		got := make(map[simnet.NodeID]Witness)
		for id, w := range h.witness {
			got[id] = *w
			if !w.Valid(h.pki(Ed25519Scheme{}), h.leader) {
				t.Fatalf("run %d: member %d built an invalid witness", run, id)
			}
		}
		if len(got) == 0 {
			t.Fatal("equivocation went undetected")
		}
		if first == nil {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("run %d: %d witnesses, run 0 had %d", run, len(got), len(first))
		}
		for id, w := range got {
			if w0 := first[id]; w.A.Digest != w0.A.Digest || w.B.Digest != w0.B.Digest {
				t.Fatalf("run %d: member %d's witness is (%x, %x), run 0's was (%x, %x)", run, id,
					w.A.Digest[:4], w.B.Digest[:4], w0.A.Digest[:4], w0.B.Digest[:4])
			}
		}
	}
	// And A is the first seen: one endpoint, shown the two in either order.
	for _, order := range [][2]crypto.Digest{{dA, dB}, {dB, dA}} {
		h := newHarness(t, 6, Ed25519Scheme{}, 4)
		p, member := h.nodes[h.leader], h.members[1]
		h.net.After(member, 1, func(ctx *simnet.Context) {
			for _, d := range order {
				prop := BuildPropose(p.Scheme, p.Keys, h.leader, 1, 1, d, nil)
				h.nodes[member].Handle(ctx, simnet.Message{From: h.leader, To: member, Tag: TagPropose, Payload: prop})
			}
		})
		h.net.RunUntilIdle()
		w := h.witness[member]
		if w == nil || w.A.Digest != order[0] || w.B.Digest != order[1] {
			t.Fatalf("witness %+v does not list the proposals in the order they were seen", w)
		}
	}
}

// countingScheme counts Verify calls on proposals under one key.
type countingScheme struct {
	SignatureScheme
	pk       crypto.PublicKey
	proposes map[string]int // (message ‖ signature) → verifications
}

func (s *countingScheme) Verify(pk crypto.PublicKey, sig []byte, msg []byte) error {
	if pk.Equal(s.pk) && bytes.HasPrefix(msg, binary.BigEndian.AppendUint16(nil, wire.TagPropose)) {
		s.proposes[string(msg)+string(sig)]++
	}
	return s.SignatureScheme.Verify(pk, sig, msg)
}

// countProposalVerifies wraps every endpoint's scheme in a countingScheme
// watching the leader's key.
func (h *harness) countProposalVerifies() map[simnet.NodeID]*countingScheme {
	counts := make(map[simnet.NodeID]*countingScheme)
	for id, p := range h.nodes {
		counts[id] = &countingScheme{SignatureScheme: p.Scheme, pk: h.keys[h.leader].PK, proposes: make(map[string]int)}
		p.Scheme = counts[id]
	}
	return counts
}

func TestLeaderSignatureVerifiedOncePerEndpoint(t *testing.T) {
	// Every echo carries the leader's signature on the digest. An endpoint
	// verifies it once per distinct (digest, signature) it is shown for an
	// instance — not once per echo, which at c = 48 is 47 times.
	check := func(counts map[simnet.NodeID]*countingScheme, distinct func(id simnet.NodeID, n int) bool) {
		t.Helper()
		for id, cs := range counts {
			if !distinct(id, len(cs.proposes)) {
				t.Fatalf("node %d verified %d distinct proposals", id, len(cs.proposes))
			}
			for _, n := range cs.proposes {
				if n != 1 {
					t.Fatalf("node %d verified one proposal %d times", id, n)
				}
			}
		}
	}

	h := newHarness(t, 48, HashScheme{}, 21)
	counts := h.countProposalVerifies()
	d := h.propose("once")
	if res := h.decided[h.leader]; res == nil || res.Digest != d {
		t.Fatal("no decision")
	}
	check(counts, func(id simnet.NodeID, n int) bool {
		if id == h.leader {
			return n == 0 // it signed the proposal itself
		}
		return n == 1
	})

	// An equivocating leader: two (digest, signature) pairs, at most two
	// verifications at an endpoint, one each.
	h = newHarness(t, 48, HashScheme{}, 22)
	counts = h.countProposalVerifies()
	h.net.After(h.leader, 1, func(ctx *simnet.Context) {
		p := h.nodes[h.leader]
		p.SendRaw(ctx, BuildPropose(p.Scheme, p.Keys, h.leader, 1, 1, crypto.HString("A"), nil), h.members[1:24])
		p.SendRaw(ctx, BuildPropose(p.Scheme, p.Keys, h.leader, 1, 1, crypto.HString("B"), nil), h.members[24:])
	})
	h.net.RunUntilIdle()
	if len(h.witness) == 0 {
		t.Fatal("equivocation went undetected")
	}
	check(counts, func(_ simnet.NodeID, n int) bool { return n <= 2 })
}

func TestInstanceAllocCeiling(t *testing.T) {
	// One decided c = 16 HashScheme instance on a bare simnet with a nil
	// payload — the shape of bench's consensus.instance_allocs cell — across
	// all sixteen endpoints. The map-based instance read 1,735 allocations
	// here; the table with a copied proposal and string-held echoes 139
	// allocations and 15,411 bytes; an instance that files its headers as
	// (digest, signature) and adopts the filed one 119 and 11,635 bytes.
	// Both ceilings keep the headroom the count had over 139 (450, ×3.24)
	// for the simnet's and the codec's pools, not for a map per instance.
	const ceiling, byteCeiling = 385, 37_700
	h := newHarness(t, 16, HashScheme{}, 31)
	for _, p := range h.nodes {
		p.OnAccept, p.OnEquivocation = nil, nil
	}
	sn := uint64(0)
	instance := func() {
		sn++
		d := crypto.H([]byte("alloc"), []byte{byte(sn)})
		h.net.After(h.leader, 1, func(ctx *simnet.Context) { h.nodes[h.leader].Propose(ctx, sn, d, nil, 0) })
		h.net.RunUntilIdle()
	}
	instance() // warm the simnet's pools and every endpoint's index and scratch
	allocs := testing.AllocsPerRun(20, instance)
	if res := h.decided[h.leader]; res == nil || res.SN != sn {
		t.Fatalf("instance %d did not decide", sn)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		instance()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations and %d bytes per decided c=16 instance", allocs, bytes)
	if allocs > ceiling {
		t.Errorf("%.0f allocations per instance, ceiling %d", allocs, ceiling)
	}
	if bytes > byteCeiling {
		t.Errorf("%d bytes allocated per instance, ceiling %d", bytes, byteCeiling)
	}
}

func TestStaleRoundMessagesIgnored(t *testing.T) {
	h := newHarness(t, 5, Ed25519Scheme{}, 13)
	// A proposal signed for round 99 must be dropped by round-1 members.
	prop := BuildPropose(Ed25519Scheme{}, h.keys[h.leader], h.leader, 99, 1, crypto.HString("old"), "old")
	h.net.Send(h.leader, h.members[1], TagPropose, prop, 10)
	h.net.RunUntilIdle()
	if _, ok := h.accepted[h.members[1]]; ok {
		t.Fatal("stale-round proposal accepted")
	}
}

func TestHashSchemeRoundTrip(t *testing.T) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(9)))
	s := HashScheme{}
	sig := s.Sign(kp, []byte("m"))
	if err := s.Verify(kp.PK, sig, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(kp.PK, sig, []byte("n")); err == nil {
		t.Fatal("hash scheme verified wrong message")
	}
	if len(sig) != crypto.HashSize {
		t.Fatal("hash scheme size")
	}
}

func TestLargeCommitteeConsensus(t *testing.T) {
	if testing.Short() {
		t.Skip("large committee")
	}
	h := newHarness(t, 60, HashScheme{}, 10)
	d := h.propose("scale")
	if res := h.decided[h.leader]; res == nil || res.Digest != d {
		t.Fatal("large committee failed to decide")
	}
	accepted := 0
	for range h.accepted {
		accepted++
	}
	if accepted != 60 {
		t.Fatalf("%d/60 members accepted", accepted)
	}
}
