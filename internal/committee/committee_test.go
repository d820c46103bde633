package committee

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

func TestSortitionVerifies(t *testing.T) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(1)))
	r := crypto.HString("rand")
	res := Sortition(kp, 3, r, 16)
	if res.CommitteeID >= 16 {
		t.Fatalf("committee id %d out of range", res.CommitteeID)
	}
	if err := VerifySortition(kp.PK, 3, r, 16, res.CommitteeID, res.Out); err != nil {
		t.Fatalf("honest sortition rejected: %v", err)
	}
}

func TestSortitionWrongClaimRejected(t *testing.T) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(2)))
	r := crypto.HString("rand")
	res := Sortition(kp, 3, r, 16)
	wrong := (res.CommitteeID + 1) % 16
	if err := VerifySortition(kp.PK, 3, r, 16, wrong, res.Out); err == nil {
		t.Fatal("wrong committee claim accepted")
	}
}

func TestSortitionBoundToContext(t *testing.T) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(3)))
	r := crypto.HString("rand")
	res := Sortition(kp, 3, r, 16)
	if err := VerifySortition(kp.PK, 4, r, 16, res.CommitteeID, res.Out); err == nil {
		t.Fatal("proof replayed across rounds")
	}
	if err := VerifySortition(kp.PK, 3, crypto.HString("other"), 16, res.CommitteeID, res.Out); err == nil {
		t.Fatal("proof replayed across randomness")
	}
}

func TestSortitionRoughlyUniform(t *testing.T) {
	const m, nodes = 4, 2000
	rng := rand.New(rand.NewSource(4))
	r := crypto.HString("rand")
	counts := make([]int, m)
	for i := 0; i < nodes; i++ {
		kp := crypto.GenerateKeyPair(rng)
		counts[Sortition(kp, 1, r, m).CommitteeID]++
	}
	want := float64(nodes) / m
	for i, c := range counts {
		if float64(c) < want*0.8 || float64(c) > want*1.2 {
			t.Fatalf("committee %d has %d nodes, want about %.0f", i, c, want)
		}
	}
}

func record(rng *rand.Rand, node simnet.NodeID, round uint64, r crypto.Digest, m uint64) (MemberRecord, crypto.KeyPair, uint64) {
	kp := crypto.GenerateKeyPair(rng)
	res := Sortition(kp, round, r, m)
	return MemberRecord{Node: node, PK: kp.PK, Hash: res.Out.Hash, Proof: res.Out.Proof}, kp, res.CommitteeID
}

func TestDirectoryCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := crypto.HString("rand")
	a, _, _ := record(rng, 1, 1, r, 4)
	b, _, _ := record(rng, 2, 1, r, 4)
	c, _, _ := record(rng, 3, 1, r, 4)

	d1 := NewDirectory()
	d1.Add(a)
	d1.Add(b)
	d1.Add(c)
	d2 := NewDirectory()
	d2.Add(c)
	d2.Add(a)
	d2.Add(b)
	if d1.SemiCommitment() != d2.SemiCommitment() {
		t.Fatal("semi-commitment depends on insertion order")
	}
	if d1.Len() != 3 || !d1.Contains(2) || d1.Contains(9) {
		t.Fatal("directory bookkeeping broken")
	}
	nodes := d1.Nodes()
	if nodes[0] != 1 || nodes[1] != 2 || nodes[2] != 3 {
		t.Fatalf("nodes = %v", nodes)
	}
}

func TestSemiCommitmentBinding(t *testing.T) {
	// Any change to the member list changes H(S) — the computational
	// binding of Lemma 1, exercised by mutation.
	rng := rand.New(rand.NewSource(6))
	r := crypto.HString("rand")
	d := NewDirectory()
	var recs []MemberRecord
	for i := simnet.NodeID(1); i <= 5; i++ {
		rec, _, _ := record(rng, i, 1, r, 4)
		recs = append(recs, rec)
		d.Add(rec)
	}
	base := d.SemiCommitment()

	// Removing a member.
	d2 := NewDirectory()
	for _, rec := range recs[:4] {
		d2.Add(rec)
	}
	if d2.SemiCommitment() == base {
		t.Fatal("dropping a member kept the commitment")
	}
	// Substituting a key.
	d3 := d.Clone()
	alt, _, _ := record(rng, 3, 1, r, 4)
	d3.Add(alt)
	if d3.SemiCommitment() == base {
		t.Fatal("substituting a key kept the commitment")
	}
	// Clone preserves the commitment.
	if d.Clone().SemiCommitment() != base {
		t.Fatal("clone changed the commitment")
	}
}

func TestDirectoryMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := crypto.HString("rand")
	a, _, _ := record(rng, 1, 1, r, 4)
	b, _, _ := record(rng, 2, 1, r, 4)
	d1 := NewDirectory()
	d1.Add(a)
	d2 := NewDirectory()
	d2.Add(b)
	d1.Merge(d2)
	if d1.Len() != 2 {
		t.Fatalf("merged len = %d", d1.Len())
	}
}

// runConfig runs Algorithm 2 for one committee over a simnet; nodes 0 and 1
// are key members (leader + one partial-set member).
func runConfig(t *testing.T, nMembers int, seed int64) (map[simnet.NodeID]*ConfigNode, *simnet.Network) {
	t.Helper()
	return runConfigShared(t, nMembers, 2, seed, nil)
}

// runConfigShared is runConfig with nKeys key members and, when shared is
// non-nil, every endpoint pointed at that one verified-proof set (which
// must be for round 1 and randomness H("round-rand")).
func runConfigShared(t *testing.T, nMembers, nKeys int, seed int64, shared *VerifiedSet) (map[simnet.NodeID]*ConfigNode, *simnet.Network) {
	t.Helper()
	const m = 1 // single committee context; VRF proofs still verified
	rng := rand.New(rand.NewSource(seed))
	r := crypto.HString("round-rand")
	net := simnet.New(simnet.DefaultLatency(), seed)

	var keyRecs []MemberRecord
	recs := make([]MemberRecord, nMembers)
	for i := 0; i < nMembers; i++ {
		rec, _, _ := record(rng, simnet.NodeID(i), 1, r, m)
		recs[i] = rec
		if i < nKeys {
			keyRecs = append(keyRecs, rec)
		}
	}
	nodes := make(map[simnet.NodeID]*ConfigNode)
	for i := 0; i < nMembers; i++ {
		cn := NewConfigNode(1, r, m, recs[i], i < nKeys, keyRecs)
		if shared != nil {
			cn.Verified = shared
		}
		nodes[recs[i].Node] = cn
		id := recs[i].Node
		net.Register(id, func(ctx *simnet.Context, msg simnet.Message) {
			nodes[id].Handle(ctx, msg)
		})
	}
	for _, cn := range nodes {
		cn := cn
		net.After(cn.Self.Node, 1, func(ctx *simnet.Context) { cn.Start(ctx) })
	}
	net.RunUntilIdle()
	return nodes, net
}

func TestConfigAllMembersDiscovered(t *testing.T) {
	const n = 12
	nodes, _ := runConfig(t, n, 8)
	// Key members must know everyone (they receive every CONFIG).
	for id := simnet.NodeID(0); id < 2; id++ {
		if got := nodes[id].S.Len(); got != n {
			t.Fatalf("key member %d knows %d/%d members", id, got, n)
		}
	}
	// Non-key members must know at least a majority (they learn the list
	// at join time plus all MEMBER announcements that follow).
	for id := simnet.NodeID(2); id < n; id++ {
		if got := nodes[id].S.Len(); got < n/2 {
			t.Fatalf("member %d knows only %d/%d members", id, got, n)
		}
	}
}

func TestConfigRejectsForgedProof(t *testing.T) {
	const m = 1
	rng := rand.New(rand.NewSource(9))
	r := crypto.HString("round-rand")
	keyRec, _, _ := record(rng, 0, 1, r, m)
	cn := NewConfigNode(1, r, m, keyRec, true, []MemberRecord{keyRec})

	// An invalid record: proof for a different round.
	kp := crypto.GenerateKeyPair(rng)
	res := Sortition(kp, 99, r, m)
	forged := MemberRecord{Node: 7, PK: kp.PK, Hash: res.Out.Hash, Proof: res.Out.Proof}

	net := simnet.New(simnet.DefaultLatency(), 9)
	net.Register(0, func(ctx *simnet.Context, msg simnet.Message) { cn.Handle(ctx, msg) })
	net.Send(7, 0, TagConfig, JoinRequest{Rec: forged}, 10)
	net.RunUntilIdle()
	if cn.S.Contains(7) {
		t.Fatal("forged join certificate accepted")
	}
}

func TestConfigComplexityScalesWithC(t *testing.T) {
	// Algorithm 2 exchanges O(c) messages per common member and O(c²)
	// overall; doubling c should roughly quadruple total messages.
	_, netSmall := runConfig(t, 10, 10)
	_, netLarge := runConfig(t, 20, 10)
	small := float64(netSmall.Metrics().Total().Messages)
	large := float64(netLarge.Metrics().Total().Messages)
	ratio := large / small
	if ratio < 2.5 || ratio > 6.5 {
		t.Fatalf("message ratio %.1f for doubled committee, want ≈ 4", ratio)
	}
}

func TestConfigVerifiesEachProofOnce(t *testing.T) {
	// c = 16, λ = 3: four key members, twelve members holding a proof.
	const c, keys = 16, 4
	private, _ := runConfigShared(t, c, keys, 11, nil)
	shared := NewVerifiedSet(1, crypto.HString("round-rand"))
	nodes, _ := runConfigShared(t, c, keys, 11, shared)

	// Every proof was shown to many endpoints and verified by one.
	if got := shared.Len(); got != c-keys {
		t.Fatalf("shared set performed %d verifications, want %d", got, c-keys)
	}
	// An endpoint on its own verifies each proof it is shown once, so it
	// pays for at most one verification per peer, and a key member —
	// which every joiner contacts — for exactly that.
	total := 0
	for id, cn := range private {
		n := cn.Verified.Len()
		total += n
		if want := c - keys; int(id) < keys && n != want {
			t.Fatalf("key member %d verified %d proofs, want %d", id, n, want)
		}
		if n > c-keys {
			t.Fatalf("member %d verified %d proofs of %d", id, n, c-keys)
		}
	}
	if total <= shared.Len() {
		t.Fatalf("private sets verified %d proofs in total: nothing was shared", total)
	}
	// Sharing changes who pays, not what anyone learns.
	for id, cn := range nodes {
		if got, want := cn.S.Snapshot(), private[id].S.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("member %d: directory differs between shared and private sets", id)
		}
	}
}

func TestVerifiedSetIsExact(t *testing.T) {
	const m = 1
	rng := rand.New(rand.NewSource(12))
	r := crypto.HString("round-rand")
	keyRec, _, _ := record(rng, 0, 1, r, m)
	cn := NewConfigNode(1, r, m, keyRec, true, []MemberRecord{keyRec})
	net := simnet.New(simnet.DefaultLatency(), 12)
	net.Register(0, func(ctx *simnet.Context, msg simnet.Message) { cn.Handle(ctx, msg) })
	present := func(rec MemberRecord) {
		t.Helper()
		net.Send(rec.Node, 0, TagMember, JoinRequest{Rec: rec}, 10)
		net.RunUntilIdle()
	}

	valid, kp, _ := record(rng, 7, 1, r, m)
	present(valid)
	present(valid) // a hit, not a second entry
	if !cn.S.Contains(7) || cn.Verified.Len() != 1 {
		t.Fatalf("valid record: in directory %v, set holds %d", cn.S.Contains(7), cn.Verified.Len())
	}
	commitment := cn.S.SemiCommitment()

	mutate := func(f func(*MemberRecord)) MemberRecord {
		rec := valid
		rec.PK = append(crypto.PublicKey(nil), valid.PK...)
		rec.Proof = append([]byte(nil), valid.Proof...)
		f(&rec)
		return rec
	}
	otherRound := Sortition(kp, 2, r, m).Out
	otherRand := Sortition(kp, 1, crypto.HString("other"), m).Out
	forged := map[string]MemberRecord{
		"proof bit flipped": mutate(func(rec *MemberRecord) { rec.Proof[17] ^= 0x04 }),
		"another hash":      mutate(func(rec *MemberRecord) { rec.Hash[0] ^= 1 }),
		"another round":     mutate(func(rec *MemberRecord) { rec.Hash, rec.Proof = otherRound.Hash, otherRound.Proof }),
		"another randomness": mutate(func(rec *MemberRecord) {
			rec.Hash, rec.Proof = otherRand.Hash, otherRand.Proof
		}),
		"another key": mutate(func(rec *MemberRecord) { rec.PK[3] ^= 0x80 }),
		"short key":   mutate(func(rec *MemberRecord) { rec.PK = rec.PK[:31] }),
		"no key":      mutate(func(rec *MemberRecord) { rec.PK = nil }),
		"short proof": mutate(func(rec *MemberRecord) { rec.Proof = rec.Proof[:63] }),
		"long proof":  mutate(func(rec *MemberRecord) { rec.Proof = append(rec.Proof, 0) }),
		"no proof":    mutate(func(rec *MemberRecord) { rec.Proof = nil }),
	}
	for name, rec := range forged {
		// Once under the accepted member's ID, once under a fresh one, and
		// twice each: a rejection must not be remembered as anything.
		for _, id := range []simnet.NodeID{7, 8, 7, 8} {
			rec.Node = id
			present(rec)
		}
		if cn.S.Contains(8) {
			t.Fatalf("%s: forged record accepted", name)
		}
		if got := cn.S.Snapshot()[1]; !reflect.DeepEqual(got, valid) {
			t.Fatalf("%s: forged record replaced the verified one", name)
		}
		if cn.Verified.Len() != 1 {
			t.Fatalf("%s: set holds %d records, want 1", name, cn.Verified.Len())
		}
	}
	if cn.S.SemiCommitment() != commitment {
		t.Fatal("forged records moved the semi-commitment")
	}
}

// TestVerifiedSetConcurrent has several goroutines — simnet lanes in the
// engine — verify the same valid and forged records
// through one set at once; run it under -race.
func TestVerifiedSetConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	r := crypto.HString("round-rand")
	set := NewVerifiedSet(1, r)
	const valid = 6
	recs := make([]MemberRecord, 2*valid)
	for i := range recs {
		recs[i], _, _ = record(rng, simnet.NodeID(i), 1, r, 1)
		if i >= valid {
			recs[i].Hash[0] ^= 1
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := range recs {
					rec := recs[(i+g)%len(recs)]
					if got, want := set.verify(rec), int(rec.Node) < valid; got != want {
						t.Errorf("record %d: verify = %v, want %v", rec.Node, got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if set.Len() != valid {
		t.Fatalf("set holds %d records, want the %d valid ones", set.Len(), valid)
	}
}

func TestConfigRejectsKeyMemberImpersonation(t *testing.T) {
	const m = 1
	rng := rand.New(rand.NewSource(13))
	r := crypto.HString("round-rand")
	// Key members as the engine publishes them: ID and key, no proof.
	keyRecs := make([]MemberRecord, 3)
	for i := range keyRecs {
		keyRecs[i] = MemberRecord{Node: simnet.NodeID(i), PK: crypto.GenerateKeyPair(rng).PK}
	}
	self, _, _ := record(rng, 5, 1, r, m)
	key := NewConfigNode(1, r, m, keyRecs[1], true, keyRecs)
	common := NewConfigNode(1, r, m, self, false, keyRecs)

	net := simnet.New(simnet.DefaultLatency(), 13)
	net.Register(1, func(ctx *simnet.Context, msg simnet.Message) { key.Handle(ctx, msg) })
	net.Register(5, func(ctx *simnet.Context, msg simnet.Message) { common.Handle(ctx, msg) })
	for _, id := range []simnet.NodeID{0, 2, 9} {
		net.Register(id, func(*simnet.Context, simnet.Message) {})
	}
	// The honest exchange: the common member joins and learns the list.
	net.After(5, 1, common.Start)
	net.RunUntilIdle()
	if key.S.Len() != 4 || common.S.Len() != 4 {
		t.Fatalf("honest join: key member knows %d, common member %d, want 4 and 4", key.S.Len(), common.S.Len())
	}
	keyRecords, keyCommit := key.S.Snapshot(), key.S.SemiCommitment()
	commonRecords, commonCommit := common.S.Snapshot(), common.S.SemiCommitment()

	// The forgery: the leader's ID over the attacker's own key, with a
	// sortition proof that is valid for that key.
	forged, _, _ := record(rng, 0, 1, r, m)
	net.Send(9, 1, TagConfig, JoinRequest{Rec: forged}, 10)
	net.Send(9, 1, TagMember, JoinRequest{Rec: forged}, 10)
	net.Send(9, 5, TagMember, JoinRequest{Rec: forged}, 10)
	net.Send(9, 5, TagMemList, MemListMsg{Records: []MemberRecord{forged, keyRecs[1], keyRecs[2]}}, 10)
	net.RunUntilIdle()

	if !reflect.DeepEqual(key.S.Snapshot(), keyRecords) || key.S.SemiCommitment() != keyCommit {
		t.Fatal("key member: a forged record replaced the leader's published one")
	}
	if !reflect.DeepEqual(common.S.Snapshot(), commonRecords) || common.S.SemiCommitment() != commonCommit {
		t.Fatal("common member: a forged record replaced the leader's published one")
	}

	// A member that has not yet learned the list must not learn the
	// forgery either, and still learns the honest records beside it.
	fresh := NewConfigNode(1, r, m, self, false, keyRecs)
	net.Register(5, func(ctx *simnet.Context, msg simnet.Message) { fresh.Handle(ctx, msg) })
	net.Send(9, 5, TagMemList, MemListMsg{Records: []MemberRecord{forged, keyRecs[1]}}, 10)
	net.RunUntilIdle()
	if fresh.S.Contains(0) || !fresh.S.Contains(1) {
		t.Fatalf("fresh member: holds forged leader %v, honest key member %v", fresh.S.Contains(0), fresh.S.Contains(1))
	}
}

// TestConfigUnionSkipsHeldRecords: a joiner unions overlapping member lists
// and MEMBER announcements — records it already holds, a key member's record
// presented with a proof the published one lacks, a forged record, its own
// record, new records. It must build the directory and send the MEMBER
// introductions that verifying every presented record builds and sends, and
// verify each distinct valid record once.
func TestConfigUnionSkipsHeldRecords(t *testing.T) {
	const m, joiner = 1, simnet.NodeID(5)
	rng := rand.New(rand.NewSource(15))
	r := crypto.HString("round-rand")
	keyRecs := []MemberRecord{
		{Node: 0, PK: crypto.GenerateKeyPair(rng).PK},
		{Node: 1, PK: crypto.GenerateKeyPair(rng).PK},
	}
	self, _, _ := record(rng, joiner, 1, r, m)
	var common []MemberRecord // nodes 6–10
	for id := simnet.NodeID(6); id <= 10; id++ {
		rec, _, _ := record(rng, id, 1, r, m)
		common = append(common, rec)
	}
	forged := common[4]
	forged.Node = 11
	forged.Hash[0] ^= 1
	keyWithProof := keyRecs[1]
	keyWithProof.Hash, keyWithProof.Proof = common[0].Hash, common[0].Proof
	rekeyed, _, _ := record(rng, common[1].Node, 1, r, m) // valid, under a held ID
	lists := [][]MemberRecord{
		{keyRecs[0], keyRecs[1], common[0], common[1]},
		{keyRecs[0], keyWithProof, common[0], common[1], common[2], forged},
		{keyRecs[0], keyRecs[1], self, rekeyed, common[2], common[3]},
	}
	members := []MemberRecord{common[2], common[4], forged, common[4], common[1]}

	// What verifying every presented record gives.
	want := NewDirectory()
	want.Add(self)
	introduced := make(map[simnet.NodeID]bool)
	var wantSends [][]simnet.NodeID
	input := crypto.SortitionInput(1, r)
	verify := func(rec MemberRecord) (MemberRecord, bool) {
		for _, km := range keyRecs {
			if km.Node == rec.Node {
				return km, km.PK.Equal(rec.PK)
			}
		}
		return rec, crypto.VRFVerify(rec.PK, input, crypto.VRFOutput{Hash: rec.Hash, Proof: rec.Proof}) == nil
	}
	for _, list := range lists {
		var to []simnet.NodeID
		for _, rec := range list {
			rec, ok := verify(rec)
			if !ok {
				continue
			}
			want.Add(rec)
			if rec.Node != joiner && !introduced[rec.Node] {
				introduced[rec.Node] = true
				to = append(to, rec.Node)
			}
		}
		wantSends = append(wantSends, to)
	}
	for _, rec := range members {
		if rec, ok := verify(rec); ok {
			want.Add(rec)
		}
	}

	cn := NewConfigNode(1, r, m, self, false, keyRecs)
	net := simnet.New(simnet.DefaultLatency(), 15)
	for id := simnet.NodeID(0); id <= 11; id++ {
		net.Register(id, func(*simnet.Context, simnet.Message) {})
	}
	net.Register(joiner, func(ctx *simnet.Context, msg simnet.Message) { cn.Handle(ctx, msg) })
	var sends [][]simnet.NodeID
	net.SetSendAudit(func(msg simnet.Message) {
		if msg.From == joiner && msg.Tag == TagMember {
			sends[len(sends)-1] = append(sends[len(sends)-1], msg.To)
		}
	})
	for _, list := range lists {
		sends = append(sends, nil)
		net.Send(0, joiner, TagMemList, MemListMsg{Records: list}, 10)
		net.RunUntilIdle()
	}
	for _, rec := range members {
		net.Send(rec.Node, joiner, TagMember, JoinRequest{Rec: rec}, 10)
		net.RunUntilIdle()
	}

	if !reflect.DeepEqual(cn.S.Snapshot(), want.Snapshot()) {
		t.Fatalf("directory %v, want %v", cn.S.Nodes(), want.Nodes())
	}
	if !reflect.DeepEqual(sends, wantSends) {
		t.Fatalf("MEMBER sends %v, want %v", sends, wantSends)
	}
	if got := cn.Verified.Len(); got != len(common)+1 {
		t.Fatalf("%d records verified, want the %d distinct valid ones", got, len(common)+1)
	}
}
