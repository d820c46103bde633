package consensus_test

import (
	"testing"

	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/protocol"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

func TestAdoptionChecksPayloadDigestOnSharedSet(t *testing.T) {
	// TestAdoptionChecksPayloadDigest's committee, its endpoints on one set.
	// The members the leader reached verified its header and digested the
	// honest pointer into the set before the victim fetches. A relay's other
	// pointer under that header is a header hit but not a payload hit: the
	// victim digests it, and refuses it.
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
	set := consensus.NewVerifiedEchoes(payloadRound, 0)
	for _, p := range nodes {
		p.Echoes = set
	}
	cut := simnet.NewSchedule()
	cut.Cut([]simnet.NodeID{0}, []simnet.NodeID{victim}, 0, 0)
	net.SetFaults(cut)
	var accepted any
	nodes[victim].OnAccept = func(_ *simnet.Context, _ uint64, _ crypto.Digest, payload any) { accepted = payload }
	net.After(0, 1, func(ctx *simnet.Context) {
		nodes[0].Propose(ctx, payloadSN, consensus.PayloadDigest(honest), honest, 0)
	})
	net.RunUntilIdle()
	if swaps != 1 {
		t.Fatalf("%d fetches answered with a swapped payload, want one", swaps)
	}
	if nodes[victim].HasProposal(payloadSN) || accepted != nil {
		t.Fatal("a pointer that does not hash to the signed digest was adopted on a shared set")
	}

	// The honest pointer, relayed by anyone, is still taken.
	net.SetFaults(nil)
	net.Send(1, victim, consensus.TagPropose, *captured, wire.Size(*captured))
	net.RunUntilIdle()
	if got, ok := accepted.(*protocol.IntraPayload); !ok || got != honest {
		t.Fatalf("the honest pointer was not adopted after the forged one: accepted %v", accepted)
	}
}
