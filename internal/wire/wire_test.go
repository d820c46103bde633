package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/pow"
	"cycledger/internal/protocol"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

func digestOf(s string) crypto.Digest { return crypto.H([]byte(s)) }

// sampleTx leaves its ID unhashed, as a decoded transaction's is, so that
// DeepEqual compares like with like.
func sampleTx(nonce uint64) *ledger.Tx {
	return &ledger.Tx{
		Inputs: []ledger.OutPoint{
			{Tx: digestOf("in-a"), Index: 0},
			{Tx: digestOf("in-b"), Index: 3},
		},
		Outputs: []ledger.Output{
			{Owner: "alice", Amount: 40},
			{Owner: "bob", Amount: 2},
		},
		Nonce: nonce,
	}
}

func samplePropose(sn uint64) consensus.Propose {
	payload := &protocol.IntraPayload{
		Txs:    protocol.TxsOf(sampleTx(sn)),
		Voters: []simnet.NodeID{1, 2, 5},
		Votes: []reputation.VoteVector{
			{reputation.No, reputation.Unknown, reputation.Yes},
			{reputation.Yes, reputation.Yes, reputation.No},
			{reputation.Unknown, reputation.No, reputation.Yes},
		},
	}
	return consensus.Propose{
		Round:   3,
		SN:      sn,
		Digest:  digestOf("propose"),
		Payload: payload,
		Leader:  7,
		Sig:     []byte("sig-propose"),
	}
}

func sampleConfirm() consensus.Confirm {
	return consensus.Confirm{
		Round:     3,
		SN:        9,
		Digest:    digestOf("confirm"),
		Confirmer: 4,
		Sig:       []byte("sig-confirm"),
	}
}

func sampleQuorum() consensus.Quorum {
	return consensus.Quorum{Votes: []consensus.Vote{{Voter: 4, Sig: []byte("sig-confirm")}}}
}

func sampleAggQuorum() consensus.Quorum {
	return consensus.Quorum{Bitmap: consensus.Bitmap{0b0000_0101}, Proof: []byte("proof-agg")}
}

func sampleResult() consensus.Result {
	return consensus.Result{
		Round:   3,
		SN:      9,
		Digest:  digestOf("result"),
		Payload: &protocol.InterPayload{From: 2, Txs: protocol.TxsOf(sampleTx(11))},
		Quorum:  sampleQuorum(),
	}
}

func sampleAggResult() consensus.Result {
	return consensus.Result{
		Round:   3,
		SN:      9,
		Digest:  digestOf("agg-result"),
		Payload: &protocol.InterPayload{From: 2, Txs: protocol.TxsOf(sampleTx(11))},
		Quorum:  sampleAggQuorum(),
	}
}

func sampleRecord(id simnet.NodeID) committee.MemberRecord {
	return committee.MemberRecord{
		Node:  id,
		PK:    crypto.PublicKey([]byte{byte(id), 1, 2, 3}),
		Hash:  digestOf("record"),
		Proof: []byte("proof"),
	}
}

func sampleSemiCom() protocol.SemiComMsg {
	return protocol.SemiComMsg{
		Round:     3,
		Committee: 1,
		SemiCom:   digestOf("semicom"),
		Records:   []committee.MemberRecord{sampleRecord(3), sampleRecord(8)},
		Sig:       []byte("sig-semicom"),
	}
}

// sampleWitness holds two headers, as an endpoint builds it: what the leader
// signed of each proposal, without the payload.
func sampleWitness() consensus.Witness {
	header := func(digest string) consensus.Propose {
		return consensus.Propose{Round: 3, SN: 9, Digest: digestOf(digest), Leader: 7, Sig: []byte("sig-" + digest)}
	}
	return consensus.Witness{A: header("propose-a"), B: header("propose-b")}
}

func sampleRecoveryWitness() protocol.RecoveryWitness {
	w := sampleWitness()
	sc := sampleSemiCom()
	return protocol.RecoveryWitness{
		Kind:      "equivocation",
		Committee: 1,
		Phase:     "intra",
		Equiv:     &w,
		SemiCom:   &sc,
	}
}

// carrierFixtures returns the five certificate-carrying messages holding
// the given certificate — called once per evidence form, so each carrier
// round-trips with both.
func carrierFixtures(cert consensus.Result) []any {
	return []any{
		&protocol.IntraResultMsg{Committee: 1, Result: cert, Members: []simnet.NodeID{1, 2, 3}},
		&protocol.ScoreResultMsg{Committee: 1, Result: cert, Members: []simnet.NodeID{1, 2}},
		&protocol.InterFwdMsg{Round: 3, From: 0, To: 2, Txs: protocol.TxsOf(sampleTx(5)),
			Cert: cert, Members: []simnet.NodeID{4, 5}},
		&protocol.InterResultMsg{Round: 3, From: 2, To: 0, Result: cert},
		protocol.UTXOFinalMsg{Round: 3, Committee: 1, Digest: digestOf("utxo"), Result: cert},
	}
}

func sampleEvictReq() protocol.EvictReqMsg {
	return protocol.EvictReqMsg{Round: 3, Committee: 1, Accuser: 9, Witness: sampleRecoveryWitness(),
		Approvals: consensus.Quorum{Votes: []consensus.Vote{{Voter: 4, Sig: []byte("s")}}}}
}

func sampleAggEvictReq() protocol.EvictReqMsg {
	return protocol.EvictReqMsg{Round: 3, Committee: 1, Accuser: 9, Witness: sampleRecoveryWitness(),
		Approvals: consensus.Quorum{Bitmap: consensus.Bitmap{0b0001_1011}, Proof: []byte("proof-evict")}}
}

// fixtures returns one representative value per registered wire type —
// each with every field populated, so round-trips exercise the full
// encoding — and every carrier of a Quorum once per evidence form. The
// untyped nil covers TagNil.
func fixtures() []any {
	out := append(carrierFixtures(sampleResult()), carrierFixtures(sampleAggResult())...)
	return append(out,
		nil,
		sampleTx(1),
		listFixture(),
		protocol.VoteMsg{Round: 3, Committee: 1, Attempt: 2, Voter: 6,
			Votes: reputation.VoteVector{reputation.Yes, reputation.No}, Sig: []byte("sig")},
		&protocol.IntraPayload{Txs: protocol.TxsOf(sampleTx(4)), Voters: []simnet.NodeID{1, 2},
			Votes: []reputation.VoteVector{{reputation.Yes}, {reputation.Unknown}}},
		sampleSemiCom(),
		protocol.SemiComOKMsg{Round: 3, SemiComs: map[uint64]crypto.Digest{0: digestOf("c0"), 2: digestOf("c2")}},
		protocol.InterQueryMsg{Round: 3, From: 0, To: 2, Txs: protocol.TxsOf(sampleTx(6))},
		protocol.InterPrefMsg{Round: 3, From: 2, To: 0, Valid: []bool{true, false, true}},
		&protocol.InterPayload{From: 2, Txs: protocol.TxsOf(sampleTx(7))},
		protocol.ScorePayload{Members: []simnet.NodeID{1, 2}, Scores: []float64{0.25, -1.5}},
		sampleRecoveryWitness(),
		protocol.RecoveryWitness{Kind: "silence", Committee: 2, Phase: "semicommit"},
		protocol.AccuseMsg{Round: 3, Committee: 1, Accuser: 9, Witness: sampleRecoveryWitness()},
		protocol.ApproveMsg{Round: 3, Committee: 1, Accuser: 9, Voter: 4, Sig: []byte("sig")},
		sampleEvictReq(),
		protocol.EvictPayload{Committee: 1, Evicted: 7, Successor: 8, Witness: sampleRecoveryWitness()},
		protocol.NewLeaderMsg{Round: 3, Committee: 1, Evicted: 7, Successor: 8, Referee: 0},
		protocol.PowMsg{Round: 3, Node: 12, Solution: pow.Solution{PK: crypto.PublicKey([]byte{9, 9}), Nonce: 77}},
		protocol.SemiComPayload{Committee: 1, Msg: sampleSemiCom()},
		sampleBlock(),
		protocol.BlockMsg{Block: sampleBlock()},
		protocol.BlockMsg{},
		protocol.UTXOPayload{Committee: 1, UTXO: digestOf("utxo")},
		samplePropose(9),
		consensus.Echo{Round: 3, SN: 9, Digest: digestOf("echo"), Echoer: 5, Sig: []byte("sig"), Leader: 7, LeaderSig: []byte("sig-propose")},
		sampleConfirm(),
		sampleWitness(),
		sampleResult(),
		committee.JoinRequest{Rec: sampleRecord(3)},
		committee.MemListMsg{Records: []committee.MemberRecord{sampleRecord(3), sampleRecord(8)}},
		sampleRecord(5),
		pow.Solution{PK: crypto.PublicKey([]byte{1, 2, 3}), Nonce: 42},
		sampleAggResult(),
		sampleAggEvictReq(),
		consensus.Fetch{Round: 3, SN: 9, Digest: digestOf("echo"), Leader: 7},
		sampleQuorum(),
		sampleAggQuorum(),
	)
}

func sampleBlock() *protocol.Block {
	return &protocol.Block{
		Round:        3,
		Txs:          protocol.TxsOf(sampleTx(20), sampleTx(21)),
		Fees:         13,
		Randomness:   digestOf("rand"),
		NextReferee:  []simnet.NodeID{0, 1, 2},
		NextLeaders:  []simnet.NodeID{3, 4},
		NextPartials: [][]simnet.NodeID{{5, 6}, {7}},
		Reputations:  protocol.NamesOf(protocol.Score{Name: "node-0001", Value: 0.5}, protocol.Score{Name: "node-0002", Value: -0.25}),
		Rewards:      protocol.NamesOf(protocol.Reward{Name: "node-0001", Amount: 10}, protocol.Reward{Name: "node-0002", Amount: 3}),
	}
}

// TestRoundTrip checks, for every registered type, the codec's core
// contract: len(Encode(v)) == SizeHint(v), Decode consumes the whole
// buffer, the decoded value equals the original once its held transaction
// lists are read (eager), and no strict prefix of a valid encoding decodes
// (injective framing). A case is named
// by its index and goldenType, so a payload that became pointer-shaped
// keeps the name it had.
func TestRoundTrip(t *testing.T) {
	for i, v := range fixtures() {
		v := v
		t.Run(fmt.Sprintf("%d/%s", i, goldenType(v)), func(t *testing.T) {
			hint, err := wire.SizeHint(v)
			if err != nil {
				t.Fatalf("SizeHint: %v", err)
			}
			enc, err := wire.Encode(v)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if len(enc) != hint {
				t.Fatalf("encoded length %d != SizeHint %d", len(enc), hint)
			}
			dec, n, err := wire.Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(enc) {
				t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
			}
			if !reflect.DeepEqual(eager(dec), v) {
				t.Fatalf("round-trip mismatch:\n got %#v\nwant %#v", dec, v)
			}
			for k := 0; k < len(enc); k++ {
				if _, _, err := wire.Decode(enc[:k]); err == nil {
					t.Fatalf("prefix of length %d decoded without error", k)
				}
			}
		})
	}
}

// TestCarrierSizesPinned pins the encoded size of every message that carries
// a Quorum, per evidence form, on these fixtures. Delivered-bytes accounting,
// and with it every traffic figure, depends on these not moving. The literals
// follow from the ones pinned before evidence became one type by per-entry
// arithmetic: a Quorum frame is 2 (tag) + 1 (form) bytes; the per-voter
// fixture's one entry is 4 + 4 + 11 where the nested Confirm frame with its
// three echo signatures was 115 (−93 in all); the aggregate fixture's bitmap
// and proof are unchanged (+3); and the eviction request's witness holds two
// proposal headers that each lost the 4-byte Size (−8), its one approval
// 4 + 4 + 1 where the nested ApproveMsg frame was 31.
func TestCarrierSizesPinned(t *testing.T) {
	want := map[string][2]int{ // per-voter, aggregate
		"protocol.IntraResultMsg": {238, 233},
		"protocol.ScoreResultMsg": {234, 229},
		"protocol.InterFwdMsg":    {376, 371},
		"protocol.InterResultMsg": {238, 233},
		"protocol.UTXOFinalMsg":   {262, 257},
	}
	for form, cert := range []consensus.Result{sampleResult(), sampleAggResult()} {
		for _, v := range carrierFixtures(cert) {
			name := goldenType(v)
			got, err := wire.SizeHint(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != want[name][form] {
				t.Errorf("%s, evidence form %d: size %d, pinned %d", name, form, got, want[name][form])
			}
		}
	}
	if got := wire.Size(sampleEvictReq()); got != 402 {
		t.Errorf("per-voter EvictReqMsg: size %d, pinned 402", got)
	}
	if got := wire.Size(sampleAggEvictReq()); got != 409 {
		t.Errorf("aggregate EvictReqMsg: size %d, pinned 409", got)
	}
}

// declaredTags parses wire.go for the exported Tag* constants, so the test
// holds the registry to the tag list a reader of the package sees, not to a
// second list kept here.
func declaredTags(t *testing.T) map[string]uint16 {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]uint16{}
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || !strings.HasPrefix(spec.Names[0].Name, "Tag") || len(spec.Values) != 1 {
			return true
		}
		lit, ok := spec.Values[0].(*ast.BasicLit)
		if !ok {
			t.Fatalf("%s is not a literal", spec.Names[0].Name)
		}
		v, err := strconv.ParseUint(lit.Value, 10, 16)
		if err != nil {
			t.Fatalf("%s: %v", spec.Names[0].Name, err)
		}
		tags[spec.Names[0].Name] = uint16(v)
		return true
	})
	return tags
}

// TestTagCoverage checks the registry is a bijection and the fixture set
// exercises all of it: every exported Tag* constant except TagNil (which
// frames the untyped nil and has no type) belongs to exactly one registered
// layout, every layout has one tag, the retired numbers 36–42 are neither
// declared nor decodable, the decoder knows exactly the declared tags, and every tag has
// a fixture — so a type added without a row, a tag or a fixture fails
// loudly here. It also holds the count mode to its contract on every
// fixture: SizeHint equals the encoded length and allocates nothing.
func TestTagCoverage(t *testing.T) {
	declared := declaredTags(t)
	if len(declared) < 30 {
		t.Fatalf("parsed only %d Tag constants from wire.go", len(declared))
	}
	owner := map[uint16]string{}
	for typ, tag := range wire.Registry() {
		if prev, taken := owner[tag]; taken {
			t.Errorf("tag %d belongs to both %s and %s", tag, prev, typ)
		}
		owner[tag] = typ
	}
	want := map[uint16]bool{wire.TagNil: false}
	for name, tag := range declared {
		if tag >= 36 && tag <= 42 {
			t.Errorf("%s reuses retired tag %d", name, tag)
		}
		if _, has := owner[tag]; !has && tag != wire.TagNil {
			t.Errorf("%s (%d) has no registered layout", name, tag)
		}
		want[tag] = false
	}
	for tag, typ := range owner {
		if _, ok := want[tag]; !ok {
			t.Errorf("%s is registered under undeclared tag %d", typ, tag)
		}
	}
	for tag := 0; tag <= 0xffff; tag++ {
		_, _, err := wire.Decode([]byte{byte(tag >> 8), byte(tag)})
		if _, known := want[uint16(tag)]; known == errors.Is(err, wire.ErrUnknownType) {
			t.Errorf("tag %d: declared %v, but a bare frame decodes with %v", tag, known, err)
		}
	}
	for _, v := range fixtures() {
		enc, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("Encode %T: %v", v, err)
		}
		tag := binary.BigEndian.Uint16(enc)
		if _, known := want[tag]; !known {
			t.Fatalf("%T encodes to unregistered tag %d", v, tag)
		}
		want[tag] = true
		if n, err := wire.SizeHint(v); err != nil || n != len(enc) {
			t.Errorf("%T: SizeHint %d (%v), encoded length %d", v, n, err, len(enc))
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { wire.SizeHint(v) }); allocs != 0 {
			t.Errorf("%T: SizeHint allocates %.0f times", v, allocs)
		}
	}
	for tag, seen := range want {
		if !seen {
			t.Errorf("no fixture covers tag %d", tag)
		}
	}
}

// TestDecodeRejectsOversize checks the MaxMessageSize guard.
func TestDecodeRejectsOversize(t *testing.T) {
	if _, _, err := wire.Decode(make([]byte, wire.MaxMessageSize+1)); err != wire.ErrTooLarge {
		t.Fatalf("oversize buffer: got err %v, want ErrTooLarge", err)
	}
}

// TestDecodeRejectsJunk checks hostile inputs error instead of panicking
// or over-allocating: unknown tags, hostile counts, bad vote bytes, a
// nested type-tag mismatch, a certificate carrier whose nested frame is
// well-formed but not a certificate, a Quorum of neither form, a block
// whose score or reward names do not strictly ascend, and a corrupt
// transaction inside a block's list or a leader's list broadcast. A held
// list is checked at Decode, so each corrupt transaction fails there, not at
// the list's first reader; the intact frame it was cut from decodes.
func TestDecodeRejectsJunk(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"one byte":    {0},
		"unknown tag": {0xff, 0xff},
		// TagTxList with a 4-billion transaction count.
		"hostile count": {0, byte(wire.TagTxList), 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff},
		// TagVote from voter 6 whose vote vector contains byte 3 (valid votes
		// are 0..2), then an empty signature.
		"bad vote": {0, byte(wire.TagVote), 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 6, 0, 0, 0, 1, 3, 0, 0, 0, 0},
		// TagBlockMsg with presence byte 1 followed by a Solution, not a Block.
		"wrong nested type": {0, byte(wire.TagBlockMsg), 1, 0, byte(wire.TagSolution), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		// TagQuorum with form byte 2, then what would be an empty vote list.
		"quorum form": {0, byte(wire.TagQuorum), 2, 0, 0, 0, 0},
	}
	// A carrier message whose nested value is a valid frame, but of a type
	// that is not a certificate: IntraResultMsg{Committee 1} followed by a
	// complete UTXOPayload frame and an empty member list.
	notCert, err := wire.Encode(protocol.UTXOPayload{Committee: 1, UTXO: digestOf("utxo")})
	if err != nil {
		t.Fatal(err)
	}
	carrier := []byte{0, byte(wire.TagIntraResult), 0, 0, 0, 0, 0, 0, 0, 1}
	carrier = append(append(carrier, notCert...), 0, 0, 0, 0)
	cases["carrier with non-certificate nested frame"] = carrier
	for name, mutate := range map[string]func(b *protocol.Block){
		"scores swapped":   func(b *protocol.Block) { s := b.Reputations.List(); s[0], s[1] = s[1], s[0] },
		"scores repeated":  func(b *protocol.Block) { s := b.Reputations.List(); s[1].Name = s[0].Name },
		"rewards swapped":  func(b *protocol.Block) { r := b.Rewards.List(); r[0], r[1] = r[1], r[0] },
		"rewards repeated": func(b *protocol.Block) { r := b.Rewards.List(); r[1].Name = r[0].Name },
	} {
		b := sampleBlock()
		mutate(b)
		if cases[name], err = wire.Encode(b); err != nil {
			t.Fatal(err)
		}
	}
	for carrier, v := range map[string]any{"block": sampleBlock(), "list": listFixture()} {
		enc, err := wire.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if dec, _, err := wire.Decode(enc); err != nil || !reflect.DeepEqual(eager(dec), v) {
			t.Fatalf("intact %s: decodes as %v, err %v", carrier, dec, err)
		}
		var first *ledger.Tx
		txLists(v, func(l *protocol.TxList) { first = l.Txs()[0] })
		one, _ := wire.Encode(first)
		tx := bytes.Index(enc, one[:2+8]) // the first transaction's tag and nonce
		if tx < 0 {
			t.Fatalf("intact %s: no transaction at the head of its list", carrier)
		}
		inputs := tx + 2 + 8
		owner := inputs + 4 + len(first.Inputs)*(crypto.HashSize+4) + 4
		for what, corrupt := range map[string]func(b []byte){
			"wrong nested tag":           func(b []byte) { b[tx+1] = byte(wire.TagVote) },
			"input count past the end":   func(b []byte) { binary.BigEndian.PutUint32(b[inputs:], uint32(len(b))) },
			"output string past the end": func(b []byte) { binary.BigEndian.PutUint32(b[owner:], uint32(len(b))) },
		} {
			bad := bytes.Clone(enc)
			corrupt(bad)
			cases[carrier+": "+what] = bad
		}
	}
	for name, data := range cases {
		if _, _, err := wire.Decode(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// listFixture is the fixtures' leader list broadcast.
func listFixture() protocol.TxListMsg {
	return protocol.TxListMsg{Round: 3, Committee: 1, Attempt: 2, Txs: protocol.TxsOf(sampleTx(1), sampleTx(2)), Sig: []byte("sig")}
}

// TestEngineSendSizesMatchCodec runs real engine scenarios with the
// simnet send-audit hook installed and asserts every message declares
// exactly the codec's size for its payload — the declared-size oracle the
// live transport relies on. TagPVSSShare is exempt: the beacon traffic is
// modeled (nil payload, analytic share size), never serialised.
func TestEngineSendSizesMatchCodec(t *testing.T) {
	scenarios := map[string]func(*protocol.Params){
		"default": func(p *protocol.Params) {},
		"byzantine": func(p *protocol.Params) {
			p.MaliciousFrac = 0.2
			p.CorruptLeaders = true
			p.ByzantineBehavior = protocol.Behavior{EquivocateIntra: true, ConcealCross: true}
		},
		"aggregate": func(p *protocol.Params) {
			p.AggregateCerts = true
		},
		"aggregate byzantine": func(p *protocol.Params) {
			p.AggregateCerts = true
			p.MaliciousFrac = 0.2
			p.CorruptLeaders = true
			p.ByzantineBehavior = protocol.Behavior{EquivocateIntra: true, ConcealCross: true}
		},
	}
	for name, tweak := range scenarios {
		t.Run(name, func(t *testing.T) {
			p := protocol.DefaultParams()
			p.Rounds = 2
			tweak(&p)
			e, err := protocol.NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			audited := 0
			e.Net.SetSendAudit(func(m simnet.Message) {
				if m.Tag == protocol.TagPVSSShare {
					return
				}
				audited++
				hint, err := wire.SizeHint(m.Payload)
				if err != nil {
					t.Fatalf("%s payload %T: %v", m.Tag, m.Payload, err)
				}
				if m.Size != hint {
					t.Fatalf("%s payload %T: declared size %d, codec size %d", m.Tag, m.Payload, m.Size, hint)
				}
			})
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if audited == 0 {
				t.Fatal("audit hook never fired")
			}
		})
	}
}

// TestEncodeRejectsUnregistered checks the codec refuses types it does
// not know instead of guessing a size.
func TestEncodeRejectsUnregistered(t *testing.T) {
	type stranger struct{ X int }
	if _, err := wire.SizeHint(stranger{}); err == nil {
		t.Fatal("SizeHint accepted an unregistered type")
	}
	if _, err := wire.Encode(stranger{}); err == nil {
		t.Fatal("Encode accepted an unregistered type")
	}
}

// TestAppendEncodeAppends checks AppendEncode respects an existing prefix.
func TestAppendEncodeAppends(t *testing.T) {
	prefix := []byte("hdr")
	enc, err := wire.AppendEncode(append([]byte(nil), prefix...), sampleTx(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("AppendEncode clobbered the prefix")
	}
	solo, _ := wire.Encode(sampleTx(1))
	if !bytes.Equal(enc[len(prefix):], solo) {
		t.Fatal("AppendEncode after a prefix differs from Encode")
	}
}

// TestSigningBytes: what a signature covers is the message's tagged
// encoding, appended after buf, without the signature fields of the message
// itself. An echo leaves out its own signature and the leader's it relays; a
// message that marks no field of its own is covered as it travels, frames
// nested in it whole, their signatures included.
func TestSigningBytes(t *testing.T) {
	e := consensus.Echo{Round: 3, SN: 9, Digest: digestOf("echo"), Echoer: 4, Sig: []byte("sig-echo"),
		Leader: 7, LeaderSig: []byte("sig-leader")}
	enc, _ := wire.Encode(e)
	const head, sig = 2 + 8 + 8 + 32 + 4, 4 + len("sig-echo") // tag … Echoer, then the length-prefixed Sig
	want := append([]byte("hdr"), enc[:head]...)
	want = append(want, enc[head+sig:head+sig+4]...) // Leader
	if got := wire.SigningBytes([]byte("hdr"), e); !bytes.Equal(got, want) {
		t.Fatalf("echo signing bytes\n got %x\nwant %x", got, want)
	}
	for name, pair := range map[string][2]any{
		"witness":          {sampleWitness(), wire.SigningBytes(nil, sampleWitness())},
		"recovery witness": {sampleRecoveryWitness(), wire.SigningBytes(nil, sampleRecoveryWitness())},
		"eviction request": {sampleEvictReq(), wire.SigningBytes(nil, sampleEvictReq())},
	} {
		if enc, _ := wire.Encode(pair[0]); !bytes.Equal(pair[1].([]byte), enc) {
			t.Errorf("%s: signing bytes differ from the encoding of a message with no signature field of its own", name)
		}
	}
}

// TestSizeAndEncodeOnlyRead sizes and encodes one set of values from
// several goroutines at once. A message in flight is shared by every node it
// was sent to, so counting and appending must never store through a field —
// not even the value already there; under -race a write-back fails here.
func TestSizeAndEncodeOnlyRead(t *testing.T) {
	fx := fixtures()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range fx {
				if _, err := wire.SizeHint(v); err != nil {
					t.Errorf("SizeHint %T: %v", v, err)
				}
				if _, err := wire.Encode(v); err != nil {
					t.Errorf("Encode %T: %v", v, err)
				}
			}
		}()
	}
	wg.Wait()
}
