package protocol

import (
	"slices"
	"testing"

	"cycledger/internal/committee"
	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

func testRoster() *Roster {
	r := newRoster(1, crypto.HString("rand"), 2)
	r.Referee = []simnet.NodeID{0, 1, 2}
	r.Leaders = []simnet.NodeID{3, 4}
	r.Partials = [][]simnet.NodeID{{5, 6}, {7, 8}}
	r.Commons = [][]simnet.NodeID{{9}, {10}}
	r.index()
	return r
}

func TestRosterRoles(t *testing.T) {
	r := testRoster()
	cases := map[simnet.NodeID]Role{
		0: RoleReferee, 3: RoleLeader, 5: RolePartial, 9: RoleCommon, 99: RoleIdle,
	}
	for id, want := range cases {
		if got := r.RoleOf(id); got != want {
			t.Fatalf("RoleOf(%d) = %v, want %v", id, got, want)
		}
	}
	if k, ok := r.CommitteeOf(7); !ok || k != 1 {
		t.Fatalf("CommitteeOf(7) = %d,%v", k, ok)
	}
	if _, ok := r.CommitteeOf(0); ok {
		t.Fatal("referee should have no committee")
	}
}

func TestRosterCommitteeComposition(t *testing.T) {
	r := testRoster()
	com := r.Committee(0)
	if len(com) != 4 || com[0] != 3 {
		t.Fatalf("Committee(0) = %v", com)
	}
	keys := r.KeyMembers(1)
	if len(keys) != 3 || keys[0] != 4 {
		t.Fatalf("KeyMembers(1) = %v", keys)
	}
	all := r.AllKeyMembers()
	if len(all) != 6 {
		t.Fatalf("AllKeyMembers = %v", all)
	}
	if len(r.AllNodes()) != 11 {
		t.Fatalf("AllNodes = %v", r.AllNodes())
	}
	if len(r.CommonsOfAll()) != 2 {
		t.Fatalf("CommonsOfAll = %v", r.CommonsOfAll())
	}
}

func TestRosterReplaceLeader(t *testing.T) {
	r := testRoster()
	r.ReplaceLeader(0, 3, 5)
	if r.Leaders[0] != 5 || !slices.Equal(r.Partials[0], []simnet.NodeID{6}) || !slices.Equal(r.Commons[0], []simnet.NodeID{3, 9}) {
		t.Fatalf("seat lists after the replacement: leaders %v, partials %v, commons %v", r.Leaders, r.Partials, r.Commons)
	}
	// Every accessor reads the re-indexed roster: the successor leads, the
	// evicted leader is a common member of the same committee, and
	// committee 1 and the node set are unchanged.
	for name, tc := range map[string]struct{ got, want []simnet.NodeID }{
		"Committee(0)":  {r.Committee(0), []simnet.NodeID{5, 6, 3, 9}},
		"Committee(1)":  {r.Committee(1), []simnet.NodeID{4, 7, 8, 10}},
		"KeyMembers(0)": {r.KeyMembers(0), []simnet.NodeID{5, 6}},
		"KeyMembers(1)": {r.KeyMembers(1), []simnet.NodeID{4, 7, 8}},
		"AllKeyMembers": {r.AllKeyMembers(), []simnet.NodeID{5, 6, 4, 7, 8}},
		"CommonsOfAll":  {r.CommonsOfAll(), []simnet.NodeID{3, 9, 10}},
		"AllNodes":      {r.AllNodes(), []simnet.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s = %v, want %v", name, tc.got, tc.want)
		}
	}
	for _, tc := range []struct {
		id   simnet.NodeID
		role Role
	}{{5, RoleLeader}, {3, RoleCommon}} {
		if got := r.RoleOf(tc.id); got != tc.role {
			t.Errorf("RoleOf(%d) = %v, want %v", tc.id, got, tc.role)
		}
		if k, ok := r.CommitteeOf(tc.id); !ok || k != 0 {
			t.Errorf("CommitteeOf(%d) = %d, %v, want 0, true", tc.id, k, ok)
		}
	}
	// The successor's links are a leader's, the evicted node's a common
	// member's: key links to other key members and the referee committee
	// for the one, partially synchronous ones for the other.
	for _, tc := range []struct {
		from, to simnet.NodeID
		want     simnet.LinkClass
	}{
		{5, 4, simnet.LinkKey}, {5, 0, simnet.LinkKey}, {5, 3, simnet.LinkIntra},
		{3, 4, simnet.LinkPartial}, {3, 0, simnet.LinkPartial}, {3, 9, simnet.LinkIntra},
	} {
		if got := r.linkClass(tc.from, tc.to); got != tc.want {
			t.Errorf("linkClass(%d,%d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestRosterLinkClasses(t *testing.T) {
	r := testRoster()
	cases := []struct {
		from, to simnet.NodeID
		want     simnet.LinkClass
	}{
		{3, 9, simnet.LinkIntra},    // leader ↔ own common member
		{0, 1, simnet.LinkIntra},    // referee internal
		{3, 4, simnet.LinkKey},      // leader ↔ leader
		{5, 7, simnet.LinkKey},      // partial ↔ remote partial
		{3, 0, simnet.LinkKey},      // leader ↔ referee
		{9, 10, simnet.LinkPartial}, // common ↔ remote common
		{9, 4, simnet.LinkPartial},  // common ↔ remote leader
		{99, 3, simnet.LinkPartial}, // unknown node
	}
	for _, tc := range cases {
		if got := r.linkClass(tc.from, tc.to); got != tc.want {
			t.Fatalf("linkClass(%d,%d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.M = 0 },
		func(p *Params) { p.Lambda = 0 },
		func(p *Params) { p.C = p.Lambda },
		func(p *Params) { p.RefSize = 2 },
		func(p *Params) { p.Rounds = 0 },
		func(p *Params) { p.MaliciousFrac = 1.0 },
		func(p *Params) { p.Scheme = "rsa" },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	if got := good.TotalNodes(); got != good.M*good.C+good.RefSize {
		t.Fatalf("TotalNodes = %d", got)
	}
}

func TestRoleString(t *testing.T) {
	for role, want := range map[Role]string{
		RoleCommon: "common", RolePartial: "partial", RoleLeader: "leader",
		RoleReferee: "referee", RoleIdle: "idle",
	} {
		if role.String() != want {
			t.Fatalf("Role(%d).String() = %q", role, role.String())
		}
	}
}

func TestWitnessKindsVerify(t *testing.T) {
	p := DefaultParams()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	leader := e.nodes[e.roster.Leaders[0]]

	// A semicommit witness: self-inconsistent signed announcement.
	msg := SemiComMsg{Round: 1, Committee: 0, SemiCom: crypto.HString("forged")}
	msg.Sig = e.pki.Scheme.Sign(leader.Keys, wire.SigningBytes(nil, msg))
	w := RecoveryWitness{Kind: "semicommit", Committee: 0, SemiCom: &msg}
	if !w.Verify(e.pki, leader.ID) {
		t.Fatal("genuine semicommit witness rejected")
	}
	// Same message against another node's key: framing fails (Claim 4).
	other := e.nodes[e.roster.Leaders[1]]
	if w.Verify(e.pki, other.ID) {
		t.Fatal("witness framed a different leader")
	}
	// A consistent announcement is not a witness.
	honest := SemiComMsg{Round: 1, Committee: 0}
	honest.SemiCom = honest.ListDigest()
	honest.Sig = e.pki.Scheme.Sign(leader.Keys, wire.SigningBytes(nil, honest))
	wh := RecoveryWitness{Kind: "semicommit", Committee: 0, SemiCom: &honest}
	if wh.Verify(e.pki, leader.ID) {
		t.Fatal("consistent announcement treated as a witness")
	}
	// Unknown kinds never verify.
	if (RecoveryWitness{Kind: "gossip"}).Verify(e.pki, leader.ID) {
		t.Fatal("unknown witness kind accepted")
	}
}

// TestListDigestIsTheDirectorys pins what C_R's check compares: the digest
// of the directory the attached list builds, so a list that is shuffled, or
// names a node twice, matches the honest commitment exactly when last-wins
// leaves the same directory.
func TestListDigestIsTheDirectorys(t *testing.T) {
	rec := func(id simnet.NodeID, key byte) committee.MemberRecord {
		return committee.MemberRecord{Node: id, PK: crypto.PublicKey{key, byte(id)}}
	}
	honest := []committee.MemberRecord{rec(3, 1), rec(5, 1), rec(8, 1), rec(13, 1)}
	want := SemiComMsg{Records: honest}.ListDigest()
	d := committee.NewDirectory()
	for _, r := range honest {
		d.Add(r)
	}
	if want != d.SemiCommitment() {
		t.Fatal("ListDigest of a canonical list is not its directory's semi-commitment")
	}
	for name, tc := range map[string]struct {
		list []committee.MemberRecord
		same bool
	}{
		"shuffled":                 {[]committee.MemberRecord{honest[2], honest[0], honest[3], honest[1]}, true},
		"repeated side by side":    {[]committee.MemberRecord{honest[0], honest[1], honest[1], honest[2], honest[3]}, true},
		"repeated verbatim":        {[]committee.MemberRecord{honest[0], honest[1], honest[1], honest[2], honest[3], honest[0]}, true},
		"forged then honest":       {[]committee.MemberRecord{honest[0], rec(5, 2), honest[2], honest[3], honest[1]}, true},
		"honest then forged":       {[]committee.MemberRecord{honest[0], honest[1], honest[2], honest[3], rec(5, 2)}, false},
		"forged beside the honest": {[]committee.MemberRecord{honest[0], honest[1], rec(5, 2), honest[2], honest[3]}, false},
		"member dropped":           {honest[:3], false},
		"member added":             {append(honest[:4:4], rec(21, 1)), false},
	} {
		if got := (SemiComMsg{Records: tc.list}).ListDigest(); (got == want) != tc.same {
			t.Fatalf("%s list: digest equal to the honest one = %v, want %v", name, got == want, tc.same)
		}
	}
}
