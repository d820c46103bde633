package consensus_test

// Tests that need the protocol layer's real payloads, which the consensus
// package itself cannot import: they drive endpoints through the exported
// API only, as the protocol layer does.

import (
	"math/rand"
	"testing"

	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/protocol"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

const payloadRound, payloadSN = 1, 1

func intraPayload(txs int) protocol.IntraPayload {
	var p protocol.IntraPayload
	for i := 0; i < txs; i++ {
		p.Txs = append(p.Txs, &ledger.Tx{
			Inputs:  []ledger.OutPoint{{Tx: crypto.HString("in"), Index: uint32(i)}},
			Outputs: []ledger.Output{{Owner: "alice", Amount: 1}},
			Nonce:   uint64(i),
		})
	}
	return p
}

// committeeOf registers c endpoints on a fresh network, the first one the
// leader. wrap, when non-nil, may consume a delivery before the endpoint
// sees it.
func committeeOf(c int, wrap func(ctx *simnet.Context, self simnet.NodeID, msg simnet.Message) bool) (*simnet.Network, []*consensus.Protocol, []crypto.KeyPair) {
	net := simnet.New(simnet.DefaultLatency(), 1)
	rng := rand.New(rand.NewSource(1))
	members := make([]simnet.NodeID, c)
	keys := make([]crypto.KeyPair, c)
	for i := range members {
		members[i], keys[i] = simnet.NodeID(i), crypto.GenerateKeyPair(rng)
	}
	nodes := make([]*consensus.Protocol, c)
	for i, id := range members {
		p := &consensus.Protocol{
			Round: payloadRound, Self: id, Leader: members[0], Committee: members, Keys: keys[i],
			PKOf:   func(n simnet.NodeID) crypto.PublicKey { return keys[n].PK },
			Scheme: consensus.Ed25519Scheme{},
		}
		nodes[i] = p
		net.Register(id, func(ctx *simnet.Context, msg simnet.Message) {
			if wrap == nil || !wrap(ctx, id, msg) {
				p.Handle(ctx, msg)
			}
		})
	}
	return net, nodes, keys
}

func TestAdoptionChecksPayloadDigest(t *testing.T) {
	// The leader's PROPOSE never reaches member 4, which fetches. Every other
	// member is a dishonest relay: it answers with the leader's header over
	// another transaction list. The leader signed the digest, not the
	// payload, so only comparing the two tells the copies apart.
	const victim = simnet.NodeID(4)
	honest, swapped := intraPayload(3), intraPayload(2)
	var captured *consensus.Propose
	swaps := 0
	net, nodes, _ := committeeOf(5, func(ctx *simnet.Context, self simnet.NodeID, msg simnet.Message) bool {
		if prop, ok := msg.Payload.(consensus.Propose); ok && captured == nil {
			captured = &prop
		}
		if msg.Tag != consensus.TagFetch || captured == nil {
			return false
		}
		forged := *captured
		forged.Payload = swapped
		ctx.Send(msg.From, consensus.TagPropose, forged, wire.Size(forged))
		swaps++
		return true
	})
	cut := simnet.NewSchedule()
	cut.Cut([]simnet.NodeID{0}, []simnet.NodeID{victim}, 0, 0)
	net.SetFaults(cut)
	var accepted any
	nodes[victim].OnAccept = func(_ *simnet.Context, _ uint64, _ crypto.Digest, payload any) { accepted = payload }
	net.After(0, 1, func(ctx *simnet.Context) {
		nodes[0].Propose(ctx, payloadSN, honest.Digest(), honest, wire.Size(honest))
	})
	net.RunUntilIdle()
	if swaps != 1 {
		t.Fatalf("%d fetches answered with a swapped payload, want one", swaps)
	}
	if nodes[victim].HasProposal(payloadSN) || accepted != nil {
		t.Fatal("a payload that does not hash to the signed digest was adopted")
	}

	// The honest copy, from anyone, is still taken.
	net.SetFaults(nil)
	net.Send(1, victim, consensus.TagPropose, *captured, wire.Size(*captured))
	net.RunUntilIdle()
	got, ok := accepted.(protocol.IntraPayload)
	if !ok || got.Digest() != honest.Digest() {
		t.Fatalf("the honest copy was not adopted after the forged one: accepted %v", accepted)
	}
}

func TestEchoSizeIndependentOfPayload(t *testing.T) {
	sizes := make(map[int]int)
	for _, txs := range []int{0, 500} {
		net, nodes, keys := committeeOf(4, nil)
		net.SetSendAudit(func(m simnet.Message) {
			if m.Tag == consensus.TagEcho {
				if _, ok := m.Payload.(consensus.Echo); !ok {
					t.Fatalf("%s carries a %T", m.Tag, m.Payload)
				}
				sizes[txs] = wire.Size(m.Payload)
				if m.Size != sizes[txs] {
					t.Fatalf("echo declared %d bytes, encodes to %d", m.Size, sizes[txs])
				}
			}
		})
		payload := intraPayload(txs)
		prop := consensus.BuildPropose(nodes[0].Scheme, keys[0], 0, payloadRound, payloadSN, payload.Digest(), payload)
		net.Send(0, 1, consensus.TagPropose, prop, wire.Size(prop))
		net.RunUntilIdle()
		if !nodes[1].HasProposal(payloadSN) {
			t.Fatalf("the %d-tx proposal was not adopted", txs)
		}
	}
	if sizes[0] == 0 || sizes[0] != sizes[500] || sizes[0] >= 256 {
		t.Fatalf("an echo of an empty proposal is %d B, of a 500-tx one %d B; want equal and under 256", sizes[0], sizes[500])
	}
}
