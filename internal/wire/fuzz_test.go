package wire_test

import (
	"bytes"
	"testing"

	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/protocol"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// FuzzDecode checks the codec's hostile-input contract: Decode never
// panics, never reads past the buffer, and anything it accepts re-encodes
// canonically — decode(enc(decode(data))) produces byte-identical output.
// The seed corpus is every fixture's encoding plus the handcrafted edge
// cases in testdata/fuzz.
func FuzzDecode(f *testing.F) {
	for _, v := range fixtures() {
		enc, err := wire.Encode(v)
		if err != nil {
			f.Fatalf("Encode %T: %v", v, err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := wire.Decode(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		// The accepted value must re-encode, and the re-encoding must be a
		// fixed point (byte comparison, not DeepEqual, so NaN score bits
		// round-tripping does not trip the check).
		enc, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("decoded value %T does not re-encode: %v", v, err)
		}
		v2, n2, err := wire.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		enc2, err := wire.Encode(v2)
		if err != nil {
			t.Fatalf("re-decoded value %T does not encode: %v", v2, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixed point:\n first %x\nsecond %x", enc, enc2)
		}
	})
}

// countingScheme is HashScheme, counting every call that does signature
// work.
type countingScheme struct {
	consensus.HashScheme
	calls *int
}

func (s countingScheme) Verify(pk crypto.PublicKey, sig []byte, parts ...[]byte) error {
	*s.calls++
	return s.HashScheme.Verify(pk, sig, parts...)
}

func (s countingScheme) VerifyAggregate(roster []crypto.PublicKey, bitmap consensus.Bitmap, msgAt func(int) [][]byte, proof []byte) error {
	*s.calls++
	return s.HashScheme.VerifyAggregate(roster, bitmap, msgAt, proof)
}

// FuzzDecodeAggCert drills into the consensus.Quorum frame in both evidence
// forms — on its own, inside a certificate, inside an eviction request and
// inside a certificate's carrier. The seed corpus is those fixtures' encodings plus, for
// each, a copy with the tail clobbered where the length prefixes of the
// evidence live. The decode contract is stricter than FuzzDecode's: no panic,
// no over-read, and an accepted Quorum re-encodes to exactly the bytes it was
// read from, so a Quorum has one encoding. Every accepted Quorum is then
// handed to Verify against a five-member roster: it must not panic, and a
// bitmap that is not canonical for that roster is refused before any
// signature work.
func FuzzDecodeAggCert(f *testing.F) {
	for _, v := range []any{
		sampleQuorum(), sampleAggQuorum(), sampleResult(), sampleAggResult(), sampleEvictReq(), sampleAggEvictReq(),
		protocol.InterResultMsg{Round: 3, From: 2, To: 0, Result: sampleAggResult()},
	} {
		enc, err := wire.Encode(v)
		if err != nil {
			f.Fatalf("Encode %T: %v", v, err)
		}
		f.Add(enc)
		bad := append([]byte(nil), enc...)
		bad[len(bad)-5] = 0xff
		bad[len(bad)-6] = 0xff
		f.Add(bad)
	}
	roster := []simnet.NodeID{1, 2, 3, 4, 5}
	pkOf := func(id simnet.NodeID) crypto.PublicKey { return crypto.PublicKey{byte(id)} }
	msgAt := func(simnet.NodeID) [][]byte { return [][]byte{[]byte("header")} }
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := wire.Decode(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		var q consensus.Quorum
		switch m := v.(type) {
		case consensus.Quorum:
			q = m
		case consensus.Result:
			q = m.Quorum
		case protocol.EvictReqMsg:
			q = m.Approvals
		case protocol.InterResultMsg:
			q = m.Result.Quorum
		default:
			return
		}
		enc, err := wire.Encode(q)
		if err != nil {
			t.Fatalf("decoded Quorum does not re-encode: %v", err)
		}
		// In each of these the Quorum is the frame's last field.
		if !bytes.HasSuffix(data[:n], enc) {
			t.Fatalf("accepted Quorum does not re-encode to the bytes it was read from:\n   in %x\n  out %x", data[:n], enc)
		}
		calls := 0
		err = q.Verify(countingScheme{calls: &calls}, roster, pkOf, msgAt)
		if q.Bitmap != nil && q.Bitmap.Validate(len(roster)) != nil && (err == nil || calls != 0) {
			t.Fatalf("non-canonical bitmap %08b: Verify err=%v after %d scheme calls", q.Bitmap, err, calls)
		}
	})
}

// FuzzDecodeTx exercises the transaction decoder directly — it is the
// innermost parser, reached through every list-bearing message — with the
// same never-panic, canonical-fixed-point contract.
func FuzzDecodeTx(f *testing.F) {
	for _, nonce := range []uint64{0, 1, 1 << 40} {
		tx := sampleTx(nonce)
		f.Add(tx.AppendEncode(nil))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, n, err := ledger.DecodeTx(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("DecodeTx consumed %d of %d bytes", n, len(data))
		}
		enc := tx.AppendEncode(nil)
		// DecodeTx settles the ID from the bytes it parsed, so those bytes
		// must be the canonical encoding and the ID the one a transaction
		// built from the same fields hashes to.
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("DecodeTx accepted a non-canonical encoding\n in:  %x\n out: %x", data[:n], enc)
		}
		rebuilt := &ledger.Tx{Inputs: tx.Inputs, Outputs: tx.Outputs, Nonce: tx.Nonce}
		if tx.ID() != rebuilt.ID() {
			t.Fatalf("decoded ID %x differs from the rebuilt transaction's %x", tx.ID(), rebuilt.ID())
		}
		tx2, n2, err := ledger.DecodeTx(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("re-encoded tx does not decode: n=%d err=%v", n2, err)
		}
		if !bytes.Equal(enc, tx2.AppendEncode(nil)) {
			t.Fatal("canonical tx encoding is not a fixed point")
		}
	})
}
