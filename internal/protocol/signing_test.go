package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

var bothSchemes = []consensus.SignatureScheme{consensus.HashScheme{}, consensus.Ed25519Scheme{}}

// signedMsg is one value of a signed type, the top-level fields its signature
// leaves out, and its signing bytes at its static type.
type signedMsg struct {
	v        any
	unsigned []string
	bytes    func(any) []byte
}

func signed[T any](v T, unsigned ...string) signedMsg {
	return signedMsg{v: v, unsigned: unsigned, bytes: func(x any) []byte { return wire.SigningBytes(nil, x.(T)) }}
}

// signedTypes returns one value of every type the protocol and Algorithm 3
// sign, every field set. A signature leaves out only signature fields, and a
// proposal's payload, which its signed digest binds (onPropose).
func signedTypes() []signedMsg {
	tx := func(nonce uint64) *ledger.Tx {
		return &ledger.Tx{Inputs: []ledger.OutPoint{{Tx: crypto.HString("in"), Index: 1}},
			Outputs: []ledger.Output{{Owner: "alice", Amount: 5}}, Nonce: nonce}
	}
	record := func(id simnet.NodeID) committee.MemberRecord {
		return committee.MemberRecord{Node: id, PK: crypto.PublicKey{byte(id), 1}, Hash: crypto.HString("rec"), Proof: []byte("proof")}
	}
	d := crypto.HString("digest")
	return []signedMsg{
		signed(TxListMsg{Round: 3, Committee: 1, Attempt: 2, Txs: TxsOf(tx(7), tx(8)), Sig: []byte("sig")}, "Sig"),
		signed(VoteMsg{Round: 3, Committee: 1, Attempt: 2, Voter: 6,
			Votes: reputation.VoteVector{reputation.Yes, reputation.No}, Sig: []byte("sig")}, "Sig"),
		signed(SemiComMsg{Round: 3, Committee: 1, SemiCom: d, Records: []committee.MemberRecord{record(3), record(8)},
			Sig: []byte("sig")}, "Sig"),
		signed(ApproveMsg{Round: 3, Committee: 1, Accuser: 9, Voter: 4, Sig: []byte("sig")}, "Sig"),
		signed(consensus.Propose{Round: 3, SN: 9, Digest: d, Payload: UTXOPayload{Committee: 1, UTXO: d},
			Leader: 7, Sig: []byte("sig")}, "Sig", "Payload"),
		signed(consensus.Echo{Round: 3, SN: 9, Digest: d, Echoer: 4, Sig: []byte("sig"), Leader: 7,
			LeaderSig: []byte("leader-sig")}, "Sig", "LeaderSig"),
		signed(consensus.Confirm{Round: 3, SN: 9, Digest: d, Confirmer: 4, Sig: []byte("sig")}, "Sig"),
	}
}

// flips returns a copy of v for each way one field of it can change, keyed
// by the field's path: every exported number, flag, string and digest
// reachable through struct fields, pointers and a slice's first element,
// every non-empty slice cut short by one, and every non-nil interface
// emptied; a transaction list flips as the slice it reads as. Nothing v
// shares is written.
func flips(v reflect.Value) map[string]reflect.Value {
	out := make(map[string]reflect.Value)
	switch v.Kind() {
	case reflect.Struct:
		if l, ok := v.Interface().(TxList); ok {
			for path, fv := range flips(reflect.ValueOf(l.Txs())) {
				out[path] = reflect.ValueOf(TxsOf(fv.Interface().([]*ledger.Tx)...))
			}
			return out
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				for path, fv := range flips(v.Field(i)) {
					cp := reflect.New(v.Type()).Elem()
					cp.Set(v)
					cp.Field(i).Set(fv)
					out["."+f.Name+path] = cp
				}
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			for path, ev := range flips(v.Elem()) {
				p := reflect.New(v.Type().Elem())
				p.Elem().Set(ev)
				out[path] = p
			}
		}
	case reflect.Slice:
		if v.Len() > 0 {
			out[" (one shorter)"] = v.Slice(0, v.Len()-1)
			for path, ev := range flips(v.Index(0)) {
				cp := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
				reflect.Copy(cp, v)
				cp.Index(0).Set(ev)
				out["[0]"+path] = cp
			}
		}
	case reflect.Interface:
		if !v.IsNil() {
			out[""] = reflect.Zero(v.Type())
		}
	default:
		cp := reflect.New(v.Type()).Elem()
		cp.Set(v)
		switch {
		case cp.CanInt():
			cp.SetInt(v.Int() + 1)
		case cp.CanUint():
			cp.SetUint(v.Uint() + 1)
		case v.Kind() == reflect.Bool:
			cp.SetBool(!v.Bool())
		case v.Kind() == reflect.String:
			cp.SetString(v.String() + "x")
		case v.Kind() == reflect.Array: // a digest
			cp.Index(0).SetUint(v.Index(0).Uint() ^ 1)
		default:
			panic(fmt.Sprintf("flips: no flip for %v", v.Type()))
		}
		out[""] = cp
	}
	return out
}

// TestSignatureCoversEveryField: for every signed type, under both schemes,
// changing any one field the signature does not declare outside it — a
// header field, or anything inside the lists a message carries — makes the
// signature fail, and changing a declared one does not; and a signature on
// one type does not verify as another whose fields are equal, even where
// the two bodies are byte for byte the same.
func TestSignatureCoversEveryField(t *testing.T) {
	kp := crypto.GenerateKeyPair(rand.New(rand.NewSource(1)))
	for _, scheme := range bothSchemes {
		for _, m := range signedTypes() {
			sig := scheme.Sign(kp, m.bytes(m.v))
			if scheme.Verify(kp.PK, sig, m.bytes(m.v)) != nil {
				t.Fatalf("%T under %T: genuine signature rejected", m.v, scheme)
			}
			flipped := make(map[string]bool)
			for path, v := range flips(reflect.ValueOf(m.v)) {
				field := strings.FieldsFunc(path, func(r rune) bool { return r == '.' || r == '[' || r == ' ' })[0]
				flipped[field] = true
				binds := scheme.Verify(kp.PK, sig, m.bytes(v.Interface())) != nil
				if outside := slices.Contains(m.unsigned, field); binds == outside {
					t.Errorf("%T under %T: changing %s: signature fails = %v, want %v", m.v, scheme, path, binds, !outside)
				}
			}
			for i := 0; i < reflect.TypeOf(m.v).NumField(); i++ {
				if name := reflect.TypeOf(m.v).Field(i).Name; !flipped[name] {
					t.Fatalf("%T: field %s is never changed", m.v, name)
				}
			}
		}

		d := crypto.HString("digest")
		for _, pair := range [][2]signedMsg{
			{signed(ApproveMsg{Round: 3, Committee: 1, Accuser: 2, Voter: 6}), signed(VoteMsg{Round: 3, Committee: 1, Attempt: 2, Voter: 6})},
			{signed(ApproveMsg{Round: 3, Committee: 1, Accuser: 2}), signed(TxListMsg{Round: 3, Committee: 1, Attempt: 2})},
			{signed(consensus.Propose{Round: 3, SN: 9, Digest: d, Leader: 4}), signed(consensus.Confirm{Round: 3, SN: 9, Digest: d, Confirmer: 4})},
			{signed(consensus.Echo{Round: 3, SN: 9, Digest: d, Echoer: 4}), signed(consensus.Confirm{Round: 3, SN: 9, Digest: d, Confirmer: 4})},
		} {
			a, b := pair[0], pair[1]
			if scheme.Verify(kp.PK, scheme.Sign(kp, a.bytes(a.v)), b.bytes(b.v)) == nil {
				t.Errorf("under %T: a signed %T verifies as %T %+v", scheme, a.v, b.v, b.v)
			}
		}
	}
}

// TestSemiComWitnessBindsRecords: a leader's signed semi-commitment
// incriminates that leader only for the member list it signed (§V-D, Claim
// 4). An honest leader's announcement with another committee's list
// swapped in is self-inconsistent, and so would pass as a "semicommit"
// witness if the signature did not cover the list; it must not verify.
func TestSemiComWitnessBindsRecords(t *testing.T) {
	for _, name := range []string{"hash", "ed25519"} {
		p := DefaultParams()
		p.Rounds = 1
		p.Scheme = name
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		scheme := e.pki.Scheme
		announced := make(map[uint64]SemiComMsg)
		signer := make(map[uint64]simnet.NodeID)
		e.Net.SetSendAudit(func(m simnet.Message) {
			if sc, ok := m.Payload.(SemiComMsg); ok {
				announced[sc.Committee], signer[sc.Committee] = sc, m.From
			}
		})
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
		honest, other := announced[0], announced[1]
		if honest.Sig == nil || other.Sig == nil {
			t.Fatalf("under %T: committees 0 and 1 announced no semi-commitment", scheme)
		}
		if (RecoveryWitness{Kind: "semicommit", Committee: 0, SemiCom: &honest}).Verify(e.pki, signer[0]) {
			t.Fatalf("under %T: an honest announcement verifies as a witness", scheme)
		}
		swapped := honest
		swapped.Records = other.Records
		if swapped.ListDigest() == swapped.SemiCom {
			t.Fatalf("under %T: the swapped list commits to the same digest", scheme)
		}
		if (RecoveryWitness{Kind: "semicommit", Committee: 0, SemiCom: &swapped}).Verify(e.pki, signer[0]) {
			t.Errorf("under %T: an honest leader's announcement with its list swapped verifies as a semicommit witness", scheme)
		}
	}
}
