package wire_test

import (
	"bytes"
	"testing"

	"cycledger/internal/ledger"
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

// FuzzDecodeAggCert drills into the aggregate-certificate frames: the seed
// corpus is the encoding of every fixture that holds an aggregate
// certificate or aggregate approval evidence, plus mutated bitmap/proof
// length prefixes, and the contract matches FuzzDecode — no panic, no
// over-read, and accepted input re-encodes to a canonical fixed point.
func FuzzDecodeAggCert(f *testing.F) {
	aggs := append(carrierFixtures(sampleAggResult()), sampleAggResult(), sampleAggEvictReq())
	for _, v := range aggs {
		enc, err := wire.Encode(v)
		if err != nil {
			f.Fatalf("Encode %T: %v", v, err)
		}
		f.Add(enc)
		// Hostile variant: clobber the tail where bitmap/proof length
		// prefixes live, so the corpus starts near the interesting edges.
		if len(enc) > 8 {
			bad := append([]byte(nil), enc...)
			bad[len(bad)-5] = 0xff
			bad[len(bad)-6] = 0xff
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := wire.Decode(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		enc, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("decoded value %T does not re-encode: %v", v, err)
		}
		v2, n2, err := wire.Decode(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("re-encoded value does not decode: n=%d err=%v", n2, err)
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
