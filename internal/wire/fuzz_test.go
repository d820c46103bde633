package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
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

func (s countingScheme) Verify(pk crypto.PublicKey, sig []byte, msg []byte) error {
	*s.calls++
	return s.HashScheme.Verify(pk, sig, msg)
}

func (s countingScheme) VerifyAggregate(pki *consensus.PKI, roster []simnet.NodeID, bitmap consensus.Bitmap, msgAt func(simnet.NodeID) []byte, proof []byte) error {
	*s.calls++
	return s.HashScheme.VerifyAggregate(pki, roster, bitmap, msgAt, proof)
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
		&protocol.InterResultMsg{Round: 3, From: 2, To: 0, Result: sampleAggResult()},
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
	keys := make([]crypto.PublicKey, 6)
	for _, id := range roster {
		keys[id] = crypto.PublicKey{byte(id)}
	}
	msgAt := func(simnet.NodeID) []byte { return []byte("header") }
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
		case *protocol.InterResultMsg:
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
		err = q.Verify(consensus.NewPKI(countingScheme{calls: &calls}, keys), roster, msgAt)
		if q.Bitmap != nil && q.Bitmap.Validate(len(roster)) != nil && (err == nil || calls != 0) {
			t.Fatalf("non-canonical bitmap %08b: Verify err=%v after %d scheme calls", q.Bitmap, err, calls)
		}
	})
}

// FuzzDecodeTx exercises the transaction frame — the innermost layout,
// reached through every list-bearing message — by decoding each input as
// the body of a TagTx frame and holding the result to the decoder the
// layout replaced: both accept or both refuse, and an accepted body reads
// as the same transaction of the same length, re-encodes to exactly the
// bytes read, and is named by the hash of those bytes.
func FuzzDecodeTx(f *testing.F) {
	for _, nonce := range []uint64{0, 1, 1 << 40} {
		enc, err := wire.Encode(sampleTx(nonce))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[2:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := append([]byte{0, byte(wire.TagTx)}, data...)
		if len(frame) > wire.MaxMessageSize {
			return
		}
		v, n, err := wire.Decode(frame)
		want, wantN, wantErr := oracleDecodeTx(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("frame decode err %v, oracle err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		tx := v.(*ledger.Tx)
		if n-2 != wantN || tx.Nonce != want.Nonce || !reflect.DeepEqual(tx.Inputs, want.Inputs) || !reflect.DeepEqual(tx.Outputs, want.Outputs) {
			t.Fatalf("frame read %d bytes as %+v, oracle %d bytes as %+v", n-2, tx, wantN, want)
		}
		if enc, _ := wire.Encode(tx); !bytes.Equal(enc, frame[:n]) {
			t.Fatalf("accepted a non-canonical body\n in:  %x\n out: %x", frame[:n], enc)
		}
		rebuilt := &ledger.Tx{Inputs: tx.Inputs, Outputs: tx.Outputs, Nonce: tx.Nonce}
		if tx.ID() != crypto.H([]byte("cycledger/tx/v1"), data[:wantN]) || tx.ID() != rebuilt.ID() {
			t.Fatalf("decoded ID %x, rebuilt %x, hash of the body read %x", tx.ID(), rebuilt.ID(), crypto.H([]byte("cycledger/tx/v1"), data[:wantN]))
		}
	})
}

// oracleDecodeTx is the hand-written transaction decoder the layout
// replaced, as ledger's tests keep it beside its encoder, less the ID it
// settled (the fuzz target hashes the bytes read itself).
func oracleDecodeTx(buf []byte) (*ledger.Tx, int, error) {
	truncated := errors.New("truncated")
	if len(buf) < 8+4+4 {
		return nil, 0, truncated
	}
	tx := &ledger.Tx{Nonce: binary.BigEndian.Uint64(buf)}
	off := 8
	nIn := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if nIn > (len(buf)-off)/(crypto.HashSize+4) {
		return nil, 0, truncated
	}
	if nIn > 0 {
		tx.Inputs = make([]ledger.OutPoint, nIn)
		for i := range tx.Inputs {
			copy(tx.Inputs[i].Tx[:], buf[off:off+crypto.HashSize])
			tx.Inputs[i].Index = binary.BigEndian.Uint32(buf[off+crypto.HashSize:])
			off += crypto.HashSize + 4
		}
	}
	if len(buf)-off < 4 {
		return nil, 0, truncated
	}
	nOut := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if nOut > (len(buf)-off)/12 {
		return nil, 0, truncated
	}
	if nOut > 0 {
		tx.Outputs = make([]ledger.Output, nOut)
		for i := range tx.Outputs {
			if len(buf)-off < 4 {
				return nil, 0, truncated
			}
			ol := int(binary.BigEndian.Uint32(buf[off:]))
			off += 4
			if ol > len(buf)-off-8 {
				return nil, 0, truncated
			}
			tx.Outputs[i].Owner = string(buf[off : off+ol])
			off += ol
			tx.Outputs[i].Amount = binary.BigEndian.Uint64(buf[off:])
			off += 8
		}
	}
	return tx, off, nil
}
