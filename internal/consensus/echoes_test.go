package consensus

import (
	"bytes"
	"encoding/binary"
	"math/rand"
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
