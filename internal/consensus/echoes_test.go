package consensus

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// echoCounter counts the Verify calls its scheme is handed on echoes.
type echoCounter struct {
	SignatureScheme
	n atomic.Int64
}

func (s *echoCounter) Verify(pk crypto.PublicKey, sig []byte, msg []byte) error {
	if bytes.HasPrefix(msg, binary.BigEndian.AppendUint16(nil, wire.TagEcho)) {
		s.n.Add(1)
	}
	return s.SignatureScheme.Verify(pk, sig, msg)
}

// shareEchoes puts every endpoint of h on one counting scheme and, when
// shared, on one VerifiedEchoes for the harness's (round, leader).
func (h *harness) shareEchoes(shared bool) (*echoCounter, *VerifiedEchoes) {
	counter := &echoCounter{SignatureScheme: HashScheme{}}
	var set *VerifiedEchoes
	if shared {
		set = NewVerifiedEchoes(1, h.leader)
	}
	for _, p := range h.nodes {
		p.Scheme, p.Echoes = counter, set
	}
	return counter, set
}

func TestSharedEchoesVerifiedOncePerInstance(t *testing.T) {
	// An honest instance at c = 16: each of the c−1 members that adopts the
	// proposal echoes it to its c−1 peers. Endpoints on their own verify
	// every echo they are shown, (c−1)² checks; endpoints sharing one set
	// verify each distinct echo once, c−1 checks — and decide the same.
	const c = 16
	var decided [2][]byte
	for i, shared := range []bool{false, true} {
		h := newHarness(t, c, HashScheme{}, 23)
		counter, set := h.shareEchoes(shared)
		d := h.propose("shared")
		res := h.decided[h.leader]
		if res == nil || res.Digest != d {
			t.Fatalf("shared=%v: no decision", shared)
		}
		for _, id := range h.members {
			if h.accepted[id] != d {
				t.Fatalf("shared=%v: member %d did not accept", shared, id)
			}
		}
		want := (c - 1) * (c - 1)
		if shared {
			want = c - 1
			if set.Len() != c-1 {
				t.Fatalf("the set holds %d echoes, want %d", set.Len(), c-1)
			}
		}
		if got := int(counter.n.Load()); got != want {
			t.Fatalf("shared=%v: %d echo verifications, want %d", shared, got, want)
		}
		decided[i] = enc(t, *res)
	}
	if !bytes.Equal(decided[0], decided[1]) {
		t.Fatal("sharing echo verdicts changed the decision")
	}
}

func TestSharedProposalCheckedOncePerCommittee(t *testing.T) {
	// An honest instance at c = 16 proposing a pointer payload. Endpoints on
	// their own each verify the leader's header and digest the payload: c−1
	// of each. Endpoints sharing one set do each once across the committee —
	// and decide the same bytes.
	const c = 16
	var decided [2][]byte
	for i, shared := range []bool{false, true} {
		h := newHarness(t, c, HashScheme{}, 26)
		h.shareEchoes(shared)
		counts := h.countProposalVerifies()
		payload := &boxed{K: 7}
		d := PayloadDigest(payload)
		var encodes int64
		h.net.After(h.leader, 1, func(ctx *simnet.Context) {
			h.nodes[h.leader].Propose(ctx, 1, d, payload, 0)
			encodes = -boxedWalks.Load() // the leader sized its proposal: not an encode
		})
		h.net.RunUntilIdle()
		encodes += boxedWalks.Load()
		res := h.decided[h.leader]
		if res == nil || res.Digest != d {
			t.Fatalf("shared=%v: no decision", shared)
		}
		verifies := 0
		for _, cs := range counts {
			for _, n := range cs.proposes {
				verifies += n
			}
		}
		want := int64(c - 1)
		if shared {
			want = 1
		}
		if verifies != int(want) || encodes != want {
			t.Fatalf("shared=%v: %d header verifications and %d payload encodes, want %d of each", shared, verifies, encodes, want)
		}
		decided[i] = enc(t, *res)
	}
	if !bytes.Equal(decided[0], decided[1]) {
		t.Fatal("sharing proposal checks changed the decision")
	}
}

func TestVerifiedEchoesAreExact(t *testing.T) {
	// Once a genuine echo is recorded, an echo that differs from it in any
	// signed or signature byte is verified afresh — and refused — at an
	// endpoint that never saw the genuine one; the genuine one is a hit.
	h := newHarness(t, 5, HashScheme{}, 24)
	counter, set := h.shareEchoes(true)
	seen, fresh, echoer := h.members[1], h.members[2], h.members[3]
	d := crypto.HString("genuine")
	prop := BuildPropose(HashScheme{}, h.keys[h.leader], h.leader, 1, 1, d, nil)
	genuine := Echo{Round: 1, SN: 1, Digest: d, Echoer: echoer, Leader: h.leader, LeaderSig: prop.Sig}
	genuine.Sig = Sign(HashScheme{}, h.keys[echoer], genuine)
	show := func(to simnet.NodeID, e Echo) (verified int64) {
		before := counter.n.Load()
		h.net.Send(echoer, to, TagEcho, e, 0)
		h.net.RunUntilIdle()
		return counter.n.Load() - before
	}
	if n := show(seen, genuine); n != 1 || set.Len() != 1 {
		t.Fatalf("the genuine echo took %d verifications and left %d in the set", n, set.Len())
	}

	otherSig := genuine
	otherSig.Sig = append([]byte(nil), genuine.Sig...)
	otherSig.Sig[31] ^= 1
	otherEchoer := genuine
	otherEchoer.Echoer = h.members[4]
	forged := genuine
	forged.Digest = crypto.HString("other")
	forged.Sig = Sign(HashScheme{}, crypto.KeyPair{PK: h.keys[echoer].PK}, genuine) // HKeyed(pk, genuine's bytes): the recorded signature
	for name, e := range map[string]Echo{
		"same sn, echoer and digest, other signature bytes": otherSig,
		"the recorded signature under another echoer":       otherEchoer,
		"the recorded signature on another digest":          forged,
	} {
		if n := show(fresh, e); n != 1 {
			t.Errorf("%s: %d verifications, want 1", name, n)
		}
		if h.nodes[fresh].insts[1] != nil {
			t.Fatalf("%s: accepted", name)
		}
		if set.Len() != 1 {
			t.Fatalf("%s: the set holds %d echoes", name, set.Len())
		}
	}
	if n := show(fresh, genuine); n != 0 {
		t.Fatalf("the recorded echo took %d verifications at a second endpoint", n)
	}
	if in := h.nodes[fresh].insts[1]; in == nil || !in.slots[3].echoed {
		t.Fatal("the recorded echo was not filed")
	}
}

// TestVerifiedEchoesConcurrent shows an honest instance's proposal, of a
// pointer payload, and its echoes to two endpoints, each on its own network
// and goroutine, through one set at once; run it under -race.
func TestVerifiedEchoesConcurrent(t *testing.T) {
	const c = 16
	rng := rand.New(rand.NewSource(25))
	members := make([]simnet.NodeID, c)
	keys := make(map[simnet.NodeID]crypto.KeyPair, c)
	for i := range members {
		members[i] = simnet.NodeID(i)
		keys[members[i]] = crypto.GenerateKeyPair(rng)
	}
	pkOf := func(id simnet.NodeID) crypto.PublicKey { return keys[id].PK }
	leader, payload := members[0], &boxed{K: 9}
	d := PayloadDigest(payload)
	prop := BuildPropose(HashScheme{}, keys[leader], leader, 1, 1, d, payload)
	var echoes []Echo
	for _, id := range members[1:] {
		e := Echo{Round: 1, SN: 1, Digest: d, Echoer: id, Leader: leader, LeaderSig: prop.Sig}
		e.Sig = Sign(HashScheme{}, keys[id], e)
		echoes = append(echoes, e)
	}
	set := NewVerifiedEchoes(1, leader)
	var wg sync.WaitGroup
	for g, self := range []simnet.NodeID{members[1], members[2]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &Protocol{Round: 1, Self: self, Leader: leader, Committee: members, Keys: keys[self], PKOf: pkOf, Scheme: HashScheme{}, Echoes: set}
			net := simnet.New(simnet.DefaultLatency(), int64(g))
			net.Register(self, func(ctx *simnet.Context, msg simnet.Message) { p.Handle(ctx, msg) })
			for pass := 0; pass < 3; pass++ {
				net.Send(leader, self, TagPropose, prop, 0)
				for i := range echoes {
					e := echoes[(i+5*g)%len(echoes)]
					net.Send(e.Echoer, self, TagEcho, e, 0)
				}
				net.RunUntilIdle()
			}
			if in := p.insts[1]; in == nil || in.echoesFor(d) != c-1 || !p.HasProposal(1) {
				t.Errorf("endpoint %d did not adopt the proposal and file every echo", self)
			}
		}()
	}
	wg.Wait()
	if set.Len() != c-1 {
		t.Fatalf("the set holds %d echoes, want %d", set.Len(), c-1)
	}
}

func TestEchoMemoIsExactAtItsPosition(t *testing.T) {
	// An echo held at (sn, position) is a hit only for its own echoer, digest
	// and signature bytes; every other echo shown at that position, and the
	// same echo at another position, sn, round or leader, misses.
	set := NewVerifiedEchoes(1, 0)
	held := Echo{Round: 1, SN: 4, Digest: crypto.HString("held"), Echoer: 3, Sig: []byte("the echoer's signature"), Leader: 0}
	set.add(&held, 2, 5)
	if !set.holds(&held, 2) {
		t.Fatal("the held echo misses at its own position")
	}
	variant := func(edit func(*Echo)) Echo {
		e := held
		e.Sig = slices.Clone(held.Sig)
		edit(&e)
		return e
	}
	for name, e := range map[string]Echo{
		"another echoer":        variant(func(e *Echo) { e.Echoer = 4 }),
		"another digest":        variant(func(e *Echo) { e.Digest = crypto.HString("other") }),
		"other signature bytes": variant(func(e *Echo) { e.Sig[0] ^= 1 }),
		"a signature prefix":    variant(func(e *Echo) { e.Sig = e.Sig[:len(e.Sig)-1] }),
		"a longer signature":    variant(func(e *Echo) { e.Sig = append(e.Sig, 0) }),
		"another sn":            variant(func(e *Echo) { e.SN = 5 }),
		"another round":         variant(func(e *Echo) { e.Round = 2 }),
		"another leader":        variant(func(e *Echo) { e.Leader = 1 }),
	} {
		if set.holds(&e, 2) {
			t.Errorf("%s: a hit at the held echo's position", name)
		}
	}
	for _, i := range []int{0, 1, 3, 4, 5, 100} {
		if set.holds(&held, i) {
			t.Errorf("the held echo hits at position %d, held at 2", i)
		}
	}
	if zero := (Echo{Round: 1, SN: 4, Leader: 0}); set.holds(&zero, 0) {
		t.Error("an empty position of the row hits for node 0's unsigned echo of the zero digest")
	}
	// A position holds one echo: another that verifies there replaces it.
	other := variant(func(e *Echo) { e.Echoer, e.Sig = 7, []byte("another signature") })
	set.add(&other, 2, 5)
	if set.holds(&held, 2) || !set.holds(&other, 2) || set.Len() != 1 {
		t.Fatalf("after a replacement: held %v, other %v, %d entries", set.holds(&held, 2), set.holds(&other, 2), set.Len())
	}
}

func TestSeatsPlaceRosterMembersOnly(t *testing.T) {
	roster := []simnet.NodeID{5, 2, 9, 2}
	s := newSeats(roster)
	for id, want := range map[simnet.NodeID]int{5: 0, 9: 2, 2: 3} { // a member listed twice holds its last position
		if i, ok := s.of(id); !ok || i != want {
			t.Errorf("of(%d) = %d, %v; want %d", id, i, ok, want)
		}
	}
	if len(s.pos) != 10 {
		t.Fatalf("the table is %d long, want the largest ID + 1", len(s.pos))
	}
	for _, id := range []simnet.NodeID{-1, -1 << 31, 10, 1 << 30, 0, 3, 8} { // negative, past the end, inside but not in the roster
		if i, ok := s.of(id); ok {
			t.Errorf("of(%d) = %d: a NodeID outside the roster has a position", id, i)
		}
	}
	if _, ok := newSeats(nil).of(0); ok {
		t.Error("an empty roster places someone")
	}

	// One set hands one table to every equal roster, and its own to any other.
	set := NewVerifiedEchoes(1, 5)
	a, b := set.seatsFor(roster), set.seatsFor(slices.Clone(roster))
	c := set.seatsFor([]simnet.NodeID{5, 9, 2})
	if a != b || a == c {
		t.Fatalf("equal rosters share a table: %v; unequal rosters share one: %v", a == b, a == c)
	}
	var none *VerifiedEchoes
	if none.seatsFor(roster) == none.seatsFor(roster) {
		t.Fatal("without a set, endpoints share a table")
	}
}

func TestEchoMemoRostersThatDifferShareNoHits(t *testing.T) {
	// Two endpoints of one (round, leader) on one set, whose rosters place
	// members 1 and 2 the other way round. A's filing of 1's echo sits at the
	// position where B seats 2. An echo that claims 2 as echoer but carries
	// 1's digest and signature bytes — a hit, were the position the key — is
	// verified afresh at B and refused; 1's own echo is verified afresh at B
	// (B seats 1 elsewhere) and filed.
	const leader = simnet.NodeID(0)
	rosterA := []simnet.NodeID{0, 1, 2, 3, 4}
	rosterB := []simnet.NodeID{0, 2, 1, 3, 4}
	rng := rand.New(rand.NewSource(27))
	keys := make(map[simnet.NodeID]crypto.KeyPair)
	for _, id := range rosterA {
		keys[id] = crypto.GenerateKeyPair(rng)
	}
	counter := &echoCounter{SignatureScheme: HashScheme{}}
	set := NewVerifiedEchoes(1, leader)
	endpoint := func(self simnet.NodeID, roster []simnet.NodeID) *Protocol {
		return &Protocol{Round: 1, Self: self, Leader: leader, Committee: roster, Keys: keys[self],
			PKOf: func(id simnet.NodeID) crypto.PublicKey { return keys[id].PK }, Scheme: counter, Echoes: set}
	}
	a, b := endpoint(3, rosterA), endpoint(4, rosterB)
	d := crypto.HString("proposal")
	prop := BuildPropose(HashScheme{}, keys[leader], leader, 1, 1, d, nil)
	genuine := Echo{Round: 1, SN: 1, Digest: d, Echoer: 1, Leader: leader, LeaderSig: prop.Sig}
	genuine.Sig = Sign(HashScheme{}, keys[1], genuine)
	show := func(p *Protocol, e Echo) (verified int64) {
		before := counter.n.Load()
		p.Handle(&simnet.Context{}, simnet.Message{From: e.Echoer, To: p.Self, Tag: TagEcho, Payload: e})
		return counter.n.Load() - before
	}
	if n := show(a, genuine); n != 1 || set.Len() != 1 {
		t.Fatalf("A: the genuine echo took %d verifications and left %d in the set", n, set.Len())
	}
	if a.seats == b.seats {
		t.Fatal("endpoints with different rosters read one position index")
	}
	relabelled := genuine
	relabelled.Echoer = 2
	if n := show(b, relabelled); n != 1 {
		t.Fatalf("B: the relabelled echo took %d verifications, want 1", n)
	}
	if b.insts[1] != nil {
		t.Fatal("B filed an echo whose signature is another echoer's")
	}
	if n := show(b, genuine); n != 1 {
		t.Fatalf("B: the genuine echo took %d verifications, want 1 (B seats its echoer elsewhere)", n)
	}
	if in := b.insts[1]; in == nil || !in.slots[2].echoed || in.slots[1].echoed {
		t.Fatal("B did not file the genuine echo at its echoer's position, and only there")
	}
}

func TestEchoMemoHitAllocatesNothing(t *testing.T) {
	// After an honest c = 16 instance on a shared set, an echo every endpoint
	// has filed is delivered again to one of them: the position lookup, the
	// memo hit and the filing allocate nothing.
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	h := newHarness(t, 16, HashScheme{}, 28)
	counter, _ := h.shareEchoes(true)
	d := h.propose("allocs")
	if res := h.decided[h.leader]; res == nil || res.Digest != d {
		t.Fatal("no decision")
	}
	echoer, to := h.members[3], h.nodes[h.members[5]]
	prop := BuildPropose(HashScheme{}, h.keys[h.leader], h.leader, 1, 1, d, nil)
	e := Echo{Round: 1, SN: 1, Digest: d, Echoer: echoer, Leader: h.leader, LeaderSig: prop.Sig}
	e.Sig = Sign(HashScheme{}, h.keys[echoer], e)
	msg := simnet.Message{From: echoer, To: to.Self, Tag: TagEcho, Payload: e}
	ctx := &simnet.Context{}
	before := counter.n.Load()
	if allocs := testing.AllocsPerRun(100, func() { to.Handle(ctx, msg) }); allocs != 0 {
		t.Fatalf("a delivered echo that hits the memo allocates %.1f times", allocs)
	}
	if n := counter.n.Load() - before; n != 0 {
		t.Fatalf("the filed echo was verified %d times: not a memo hit", n)
	}
}
