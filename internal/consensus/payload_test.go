package consensus_test

// Tests that need the protocol layer's real payloads, which the consensus
// package itself cannot import: they drive endpoints through the exported
// API only, as the protocol layer does.

import (
	"math/rand"
	"testing"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/protocol"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

const payloadRound, payloadSN = 1, 1

func intraPayload(txs int) *protocol.IntraPayload {
	var list []*ledger.Tx
	for i := 0; i < txs; i++ {
		list = append(list, &ledger.Tx{
			Inputs:  []ledger.OutPoint{{Tx: crypto.HString("in"), Index: uint32(i)}},
			Outputs: []ledger.Output{{Owner: "alice", Amount: 1}},
			Nonce:   uint64(i),
		})
	}
	return &protocol.IntraPayload{Txs: protocol.TxsOf(list...)}
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
		nodes[0].Propose(ctx, payloadSN, consensus.PayloadDigest(honest), honest, wire.Size(honest))
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
	got, ok := accepted.(*protocol.IntraPayload)
	if !ok || consensus.PayloadDigest(got) != consensus.PayloadDigest(honest) {
		t.Fatalf("the honest copy was not adopted after the forged one: accepted %v", accepted)
	}

	// A payload no layout describes has no digest, so none can match: it is
	// refused straight from the leader, under the digest it claims for itself
	// and under the zero digest PayloadDigest reports for it.
	net, nodes, keys := committeeOf(3, nil)
	for i, d := range []crypto.Digest{selfDigesting{}.Digest(), consensus.PayloadDigest(selfDigesting{})} {
		sn := uint64(payloadSN + i)
		prop := consensus.BuildPropose(nodes[0].Scheme, keys[0], 0, payloadRound, sn, d, selfDigesting{})
		net.Send(0, 1, consensus.TagPropose, prop, 0)
		net.RunUntilIdle()
		if nodes[1].HasProposal(sn) {
			t.Fatalf("a payload of an unregistered type was adopted under %x", d[:4])
		}
	}
}

// selfDigesting is a payload type the wire codec does not know, carrying a
// digest of its own choosing.
type selfDigesting struct{}

func (selfDigesting) Digest() crypto.Digest { return crypto.HString("self-digesting") }

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
		prop := consensus.BuildPropose(nodes[0].Scheme, keys[0], 0, payloadRound, payloadSN, consensus.PayloadDigest(payload), payload)
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

// bindsEveryField checks that each edit — one field of a fresh base()
// changed — changes the payload's digest. box turns a value into the
// payload form the protocol proposes (nil: the value itself).
func bindsEveryField[T any](t *testing.T, base func() T, box func(T) any, edits map[string]func(*T)) {
	t.Helper()
	if box == nil {
		box = func(v T) any { return v }
	}
	want := consensus.PayloadDigest(box(base()))
	if want.IsZero() {
		t.Fatalf("%T has no digest", base())
	}
	for field, edit := range edits {
		v := base()
		edit(&v)
		if consensus.PayloadDigest(box(v)) == want {
			t.Errorf("%T: changing %s leaves the digest unchanged", v, field)
		}
	}
}

// TestPayloadDigestBindsEveryField: a leader's signature on a payload's
// digest fixes every field of the payload, for each of the seven Algorithm 3
// payloads the protocol proposes — down to a block's next-round partial
// sets, reputations and rewards, the body of an eviction's witness, and a
// score moved by 1e-12.
func TestPayloadDigestBindsEveryField(t *testing.T) {
	tx := func(nonce uint64) *ledger.Tx {
		return &ledger.Tx{
			Inputs:  []ledger.OutPoint{{Tx: crypto.HString("in"), Index: 1}},
			Outputs: []ledger.Output{{Owner: "alice", Amount: 5}},
			Nonce:   nonce,
		}
	}
	t.Run("IntraPayload", func(t *testing.T) {
		bindsEveryField(t, func() protocol.IntraPayload {
			return protocol.IntraPayload{
				Txs:    protocol.TxsOf(tx(1)),
				Voters: []simnet.NodeID{1, 2},
				Votes:  []reputation.VoteVector{{reputation.Yes}, {reputation.No}},
			}
		}, func(p protocol.IntraPayload) any { return &p }, map[string]func(*protocol.IntraPayload){
			"Txs":    func(p *protocol.IntraPayload) { p.Txs = protocol.TxsOf(tx(2)) },
			"Voters": func(p *protocol.IntraPayload) { p.Voters[1] = 3 },
			"Votes":  func(p *protocol.IntraPayload) { p.Votes[1][0] = reputation.Unknown },
		})
	})
	t.Run("InterPayload", func(t *testing.T) {
		bindsEveryField(t, func() protocol.InterPayload {
			return protocol.InterPayload{From: 2, Txs: protocol.TxsOf(tx(1))}
		}, func(p protocol.InterPayload) any { return &p }, map[string]func(*protocol.InterPayload){
			"From": func(p *protocol.InterPayload) { p.From = 3 },
			"Txs":  func(p *protocol.InterPayload) { p.Txs = protocol.TxsOf(tx(2)) },
		})
	})
	t.Run("ScorePayload", func(t *testing.T) {
		bindsEveryField(t, func() protocol.ScorePayload {
			return protocol.ScorePayload{Members: []simnet.NodeID{1, 2}, Scores: []float64{0.5, 0.25}}
		}, nil, map[string]func(*protocol.ScorePayload){
			"Members":         func(p *protocol.ScorePayload) { p.Members[1] = 3 },
			"Scores by 1e-12": func(p *protocol.ScorePayload) { p.Scores[0] += 1e-12 },
		})
	})
	t.Run("EvictPayload", func(t *testing.T) {
		bindsEveryField(t, func() protocol.EvictPayload {
			return protocol.EvictPayload{
				Committee: 1, Evicted: 5, Successor: 6,
				Witness: protocol.RecoveryWitness{Kind: "semicommit", Committee: 1, SemiCom: &protocol.SemiComMsg{Round: 2, Committee: 1, Sig: []byte("sig")}},
			}
		}, nil, map[string]func(*protocol.EvictPayload){
			"Committee":                 func(p *protocol.EvictPayload) { p.Committee = 2 },
			"Evicted":                   func(p *protocol.EvictPayload) { p.Evicted = 7 },
			"Successor":                 func(p *protocol.EvictPayload) { p.Successor = 7 },
			"Witness.Committee":         func(p *protocol.EvictPayload) { p.Witness.Committee = 2 },
			"Witness.Phase":             func(p *protocol.EvictPayload) { p.Witness.Phase = "intra" },
			"Witness.SemiCom.SemiCom":   func(p *protocol.EvictPayload) { p.Witness.SemiCom.SemiCom = crypto.HString("S") },
			"Witness.SemiCom.Sig":       func(p *protocol.EvictPayload) { p.Witness.SemiCom.Sig = []byte("gis") },
			"Witness.Equiv (added)":     func(p *protocol.EvictPayload) { p.Witness.Equiv = &consensus.Witness{} },
			"Witness.SemiCom (removed)": func(p *protocol.EvictPayload) { p.Witness.SemiCom = nil },
		})
	})
	t.Run("SemiComPayload", func(t *testing.T) {
		bindsEveryField(t, func() protocol.SemiComPayload {
			return protocol.SemiComPayload{Committee: 1, Msg: protocol.SemiComMsg{
				Round: 2, Committee: 1, SemiCom: crypto.HString("S"),
				Records: []committee.MemberRecord{{Node: 4, Hash: crypto.HString("h"), Proof: []byte("proof")}},
				Sig:     []byte("sig"),
			}}
		}, nil, map[string]func(*protocol.SemiComPayload){
			"Committee":     func(p *protocol.SemiComPayload) { p.Committee = 2 },
			"Msg.Round":     func(p *protocol.SemiComPayload) { p.Msg.Round = 3 },
			"Msg.SemiCom":   func(p *protocol.SemiComPayload) { p.Msg.SemiCom = crypto.HString("T") },
			"Msg.Records":   func(p *protocol.SemiComPayload) { p.Msg.Records[0].Proof = []byte("forged") },
			"Msg.Signature": func(p *protocol.SemiComPayload) { p.Msg.Sig = []byte("gis") },
		})
	})
	t.Run("Block", func(t *testing.T) {
		bindsEveryField(t, func() protocol.Block {
			return protocol.Block{
				Round: 3, Txs: protocol.TxsOf(tx(1)), Fees: 7, Randomness: crypto.HString("R"),
				NextReferee: []simnet.NodeID{1, 2}, NextLeaders: []simnet.NodeID{3, 4},
				NextPartials: [][]simnet.NodeID{{5}, {6}},
				Reputations:  protocol.NamesOf(protocol.Score{Name: "n1", Value: 0.5}),
				Rewards:      protocol.NamesOf(protocol.Reward{Name: "n1", Amount: 2}),
			}
		}, func(b protocol.Block) any { return &b }, map[string]func(*protocol.Block){
			"Round":        func(b *protocol.Block) { b.Round = 4 },
			"Txs":          func(b *protocol.Block) { b.Txs = protocol.TxsOf(tx(2)) },
			"Fees":         func(b *protocol.Block) { b.Fees = 8 },
			"Randomness":   func(b *protocol.Block) { b.Randomness = crypto.HString("Q") },
			"NextReferee":  func(b *protocol.Block) { b.NextReferee[1] = 9 },
			"NextLeaders":  func(b *protocol.Block) { b.NextLeaders[1] = 9 },
			"NextPartials": func(b *protocol.Block) { b.NextPartials[1][0] = 9 },
			"Reputations":  func(b *protocol.Block) { b.Reputations = protocol.NamesOf(protocol.Score{Name: "n1", Value: 0.75}) },
			"Rewards":      func(b *protocol.Block) { b.Rewards = protocol.NamesOf(protocol.Reward{Name: "n1", Amount: 3}) },
		})
	})
	t.Run("UTXOPayload", func(t *testing.T) {
		bindsEveryField(t, func() protocol.UTXOPayload {
			return protocol.UTXOPayload{Committee: 1, UTXO: crypto.HString("U")}
		}, nil, map[string]func(*protocol.UTXOPayload){
			"Committee": func(p *protocol.UTXOPayload) { p.Committee = 2 },
			"UTXO":      func(p *protocol.UTXOPayload) { p.UTXO = crypto.HString("V") },
		})
	})
}
