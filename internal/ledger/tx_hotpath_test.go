package ledger

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/wire"
)

// The three shard sets of one transaction, each as its own copy, over the one
// classifier the router uses (ShardScratch.Compute).

func shardSets(tx *Tx, view UTXOView, m uint64) (in, out, touched []uint64) {
	var sc ShardScratch
	sc.Compute(tx, view, m)
	return append([]uint64{}, sc.In...), append([]uint64{}, sc.Out...), append([]uint64{}, sc.Touched...)
}

func InputShards(tx *Tx, view UTXOView, m uint64) []uint64 {
	in, _, _ := shardSets(tx, view, m)
	return in
}

// emptyView resolves nothing; OutputShards needs no input owners.
type emptyView struct{}

func (emptyView) Get(OutPoint) (Output, bool) { return Output{}, false }

func OutputShards(tx *Tx, m uint64) []uint64 {
	_, out, _ := shardSets(tx, emptyView{}, m)
	return out
}

func TouchedShards(tx *Tx, view UTXOView, m uint64) []uint64 {
	_, _, touched := shardSets(tx, view, m)
	return touched
}

// --- reference oracles -----------------------------------------------------
//
// The pre-optimization map-based shard-set implementations, kept verbatim
// as cross-check oracles for the slice-based hot-path versions, and a
// from-scratch transaction-hash recompute for the Tx.ID memoization.

func oracleShardOf(user string, m uint64) uint64 {
	return crypto.HString("cycledger/shard/v1", user).Mod(m)
}

func oracleSortedShardSet(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func oracleInputShards(tx *Tx, view UTXOView, m uint64) []uint64 {
	set := map[uint64]bool{}
	for _, in := range tx.Inputs {
		if out, ok := view.Get(in); ok {
			set[oracleShardOf(out.Owner, m)] = true
		}
	}
	return oracleSortedShardSet(set)
}

func oracleOutputShards(tx *Tx, m uint64) []uint64 {
	set := map[uint64]bool{}
	for _, o := range tx.Outputs {
		set[oracleShardOf(o.Owner, m)] = true
	}
	return oracleSortedShardSet(set)
}

func oracleTouchedShards(tx *Tx, view UTXOView, m uint64) []uint64 {
	set := map[uint64]bool{}
	for _, s := range oracleInputShards(tx, view, m) {
		set[s] = true
	}
	for _, s := range oracleOutputShards(tx, m) {
		set[s] = true
	}
	return oracleSortedShardSet(set)
}

// oracleTxID recomputes the transaction hash from scratch, bypassing the
// memo, over the retired encoder below.
func oracleTxID(tx *Tx) TxID {
	return crypto.H([]byte("cycledger/tx/v1"), oracleAppendEncode(tx, nil))
}

// oracleAppendEncode and oracleDecodeTx are the hand-written transaction
// codec that preceded the layout, kept as functions (logic unchanged) as
// the oracle the field walk must match: on the bytes it writes, on the
// inputs it accepts or refuses, and on the ID it settles.

func oracleAppendEncode(tx *Tx, buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, tx.Nonce)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tx.Inputs)))
	for _, in := range tx.Inputs {
		buf = append(buf, in.Tx[:]...)
		buf = binary.BigEndian.AppendUint32(buf, in.Index)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tx.Outputs)))
	for _, out := range tx.Outputs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(out.Owner)))
		buf = append(buf, out.Owner...)
		buf = binary.BigEndian.AppendUint64(buf, out.Amount)
	}
	return buf
}

func oracleDecodeTx(buf []byte) (*Tx, int, error) {
	const minTx = 8 + 4 + 4
	if len(buf) < minTx {
		return nil, 0, errTruncated("tx header")
	}
	tx := &Tx{Nonce: binary.BigEndian.Uint64(buf)}
	off := 8
	nIn := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if nIn > (len(buf)-off)/(crypto.HashSize+4) {
		return nil, 0, errTruncated("tx inputs")
	}
	if nIn > 0 {
		tx.Inputs = make([]OutPoint, nIn)
		for i := range tx.Inputs {
			copy(tx.Inputs[i].Tx[:], buf[off:off+crypto.HashSize])
			tx.Inputs[i].Index = binary.BigEndian.Uint32(buf[off+crypto.HashSize:])
			off += crypto.HashSize + 4
		}
	}
	if len(buf)-off < 4 {
		return nil, 0, errTruncated("tx output count")
	}
	nOut := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if nOut > (len(buf)-off)/12 { // each output is at least 4+0+8 bytes
		return nil, 0, errTruncated("tx outputs")
	}
	if nOut > 0 {
		tx.Outputs = make([]Output, nOut)
		for i := range tx.Outputs {
			if len(buf)-off < 4 {
				return nil, 0, errTruncated("tx owner length")
			}
			ol := int(binary.BigEndian.Uint32(buf[off:]))
			off += 4
			if ol > len(buf)-off-8 {
				return nil, 0, errTruncated("tx owner")
			}
			tx.Outputs[i].Owner = string(buf[off : off+ol])
			off += ol
			tx.Outputs[i].Amount = binary.BigEndian.Uint64(buf[off:])
			off += 8
		}
	}
	return tx, off, nil
}

func errTruncated(what string) error { return errors.New("ledger: truncated encoding: " + what) }

// --- randomized cross-checks ----------------------------------------------

// TestTxLayoutMatchesRetiredCodec holds the layout to the retired codec on
// randomized transactions: the frame's body is the oracle's encoding, and on
// every prefix of that encoding and on mutated copies of it, a TagTx frame
// decodes exactly when the oracle does — to the same transaction, the same
// byte count and an ID that hashes the bytes read.
func TestTxLayoutMatchesRetiredCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	agree := func(trial int, body []byte) {
		t.Helper()
		frame := append([]byte{0, byte(wire.TagTx)}, body...)
		v, n, err := wire.Decode(frame)
		want, wantN, wantErr := oracleDecodeTx(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: layout err %v, oracle err %v on %x", trial, err, wantErr, body)
		}
		if err != nil {
			return
		}
		got := v.(*Tx)
		if n != 2+wantN || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: layout read %d bytes as %+v, oracle %d bytes as %+v", trial, n-2, got, wantN, want)
		}
		if got.ID() != crypto.H([]byte(txDomain), body[:wantN]) {
			t.Fatalf("trial %d: decoded ID is not the hash of the body read", trial)
		}
	}
	for trial := 0; trial < 300; trial++ {
		tx, _ := randomTxAndView(rng)
		switch trial % 5 {
		case 0:
			tx.Inputs = nil
		case 1:
			tx.Outputs = append(tx.Outputs, Output{Owner: "", Amount: rng.Uint64()})
		}
		enc := oracleAppendEncode(tx, nil)
		frame, err := wire.Encode(tx)
		if err != nil || !bytes.Equal(frame[2:], enc) || wire.Size(tx) != len(frame) {
			t.Fatalf("trial %d: frame %x (size %d, err %v), oracle body %x", trial, frame, wire.Size(tx), err, enc)
		}
		if !bytes.Equal(wire.AppendBody([]byte("x"), tx), append([]byte("x"), enc...)) {
			t.Fatalf("trial %d: AppendBody differs from the oracle's encoding", trial)
		}
		if tx.ID() != oracleTxID(tx) {
			t.Fatalf("trial %d: ID is not the hash of the oracle's encoding", trial)
		}
		for cut := 0; cut <= len(enc); cut++ {
			agree(trial, enc[:cut])
		}
		for i := 0; i < 40; i++ {
			mut := append([]byte(nil), enc...)
			switch i % 4 {
			case 0:
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			case 1: // a count or length prefix rewritten
				binary.BigEndian.PutUint32(mut[rng.Intn(len(mut)-3):], uint32(rng.Intn(64)))
			case 2:
				mut = append(mut, byte(rng.Intn(256)))
			default:
				mut = mut[:rng.Intn(len(mut))]
			}
			agree(trial, mut)
		}
	}
}

// TestTxIDPinned pins two transaction IDs to the values the retired codec
// gave them, so the preimage cannot drift with the layout.
func TestTxIDPinned(t *testing.T) {
	for want, tx := range map[string]*Tx{
		"7697c0e33238cdf96a0ec9fc3ff4af2090e4c385b53f05183056e885c02f5c10": {
			Inputs:  []OutPoint{{Tx: crypto.HString("pinned-in-a"), Index: 1}, {Tx: crypto.HString("pinned-in-b"), Index: 0}},
			Outputs: []Output{{Owner: "alice", Amount: 40}, {Owner: "bob", Amount: 2}, {Owner: "", Amount: 1 << 40}},
			Nonce:   7,
		},
		"96675f03b46e41e9dd806748fa06408c971346b336bb6b5cdf5b1b3ab5c21100": {},
	} {
		if id := tx.ID(); hex.EncodeToString(id[:]) != want {
			t.Errorf("ID %x, want %s", id, want)
		}
	}
}

// randomTxAndView builds a transaction with a random mix of resolvable,
// unresolvable, and duplicate-shard inputs/outputs plus a view resolving a
// random subset of the inputs.
func randomTxAndView(rng *rand.Rand) (*Tx, *ShardedStore) {
	view := NewShardedStore(4)
	tx := &Tx{Nonce: rng.Uint64()}
	nIn := rng.Intn(6)
	for i := 0; i < nIn; i++ {
		var op OutPoint
		rng.Read(op.Tx[:])
		op.Index = uint32(rng.Intn(4))
		tx.Inputs = append(tx.Inputs, op)
		if rng.Intn(3) > 0 { // ~2/3 of inputs resolve
			owner := fmt.Sprintf("user-%03d", rng.Intn(40))
			if err := view.Add(op, Output{Owner: owner, Amount: 1 + rng.Uint64()%1000}); err != nil {
				panic(err)
			}
		}
	}
	nOut := 1 + rng.Intn(5)
	for i := 0; i < nOut; i++ {
		tx.Outputs = append(tx.Outputs, Output{
			Owner:  fmt.Sprintf("user-%03d", rng.Intn(40)),
			Amount: 1 + rng.Uint64()%1000,
		})
	}
	return tx, view
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardSetsMatchMapOracle drives the slice-based shard-set functions,
// the combined ShardScratch pass, and IsCrossShard against the old
// map-based implementations on randomized transactions.
func TestShardSetsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sc ShardScratch
	for trial := 0; trial < 500; trial++ {
		tx, view := randomTxAndView(rng)
		m := uint64(1 + rng.Intn(16))

		wantIn := oracleInputShards(tx, view, m)
		wantOut := oracleOutputShards(tx, m)
		wantTouched := oracleTouchedShards(tx, view, m)

		if got := InputShards(tx, view, m); !equalU64(got, wantIn) {
			t.Fatalf("trial %d: InputShards = %v, oracle %v", trial, got, wantIn)
		}
		if got := OutputShards(tx, m); !equalU64(got, wantOut) {
			t.Fatalf("trial %d: OutputShards = %v, oracle %v", trial, got, wantOut)
		}
		if got := TouchedShards(tx, view, m); !equalU64(got, wantTouched) {
			t.Fatalf("trial %d: TouchedShards = %v, oracle %v", trial, got, wantTouched)
		}
		sc.Compute(tx, view, m)
		if !equalU64(sc.In, wantIn) || !equalU64(sc.Out, wantOut) || !equalU64(sc.Touched, wantTouched) {
			t.Fatalf("trial %d: ShardScratch = (%v,%v,%v), oracle (%v,%v,%v)",
				trial, sc.In, sc.Out, sc.Touched, wantIn, wantOut, wantTouched)
		}
		if got, want := IsCrossShard(tx, view, m), len(wantTouched) > 1; got != want {
			t.Fatalf("trial %d: IsCrossShard = %v, oracle %v (touched %v)", trial, got, want, wantTouched)
		}
	}
}

// TestShardOfMatchesOracle checks the interned digest path against a direct
// hash for fresh and repeated identities across shard counts.
func TestShardOfMatchesOracle(t *testing.T) {
	for i := 0; i < 50; i++ {
		user := fmt.Sprintf("intern-check-%d", i)
		for _, m := range []uint64{1, 2, 7, 8, 64, 1 << 20} {
			if got, want := ShardOf(user, m), oracleShardOf(user, m); got != want {
				t.Fatalf("ShardOf(%q, %d) = %d, oracle %d", user, m, got, want)
			}
		}
		// Second lookup (cache hit) must agree too.
		if ShardOf(user, 8) != oracleShardOf(user, 8) {
			t.Fatalf("cache hit diverged for %q", user)
		}
	}
}

// TestTxIDCacheMatchesRecompute exercises the memoized ID across the
// mutation patterns the copy-on-mutate invariant allows: build-then-hash,
// mutate-before-first-ID, copy-on-mutate, and clearing the memo.
func TestTxIDCacheMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		tx, _ := randomTxAndView(rng)

		// Mutating before the first ID call is allowed: the cache settles at
		// first use.
		tx.Outputs = append(tx.Outputs, Output{Owner: "late-change", Amount: 5})
		first := tx.ID()
		if first != oracleTxID(tx) {
			t.Fatalf("trial %d: cached ID disagrees with from-scratch recompute", trial)
		}
		// Repeated calls return the settled cache.
		if tx.ID() != first {
			t.Fatalf("trial %d: repeated ID changed", trial)
		}

		// Copy-on-mutate: a derived transaction gets its own (fresh) cache,
		// even though it shares the input/output slices.
		derived := &Tx{Inputs: tx.Inputs, Outputs: tx.Outputs, Nonce: tx.Nonce + 1}
		if derived.ID() == first {
			t.Fatalf("trial %d: derived tx reused the parent hash", trial)
		}
		if derived.ID() != oracleTxID(derived) {
			t.Fatalf("trial %d: derived ID disagrees with recompute", trial)
		}

		// A deliberate in-place mutation must clear the memo.
		tx.Nonce++
		tx.memo.Store(idUnset)
		if tx.ID() != oracleTxID(tx) {
			t.Fatalf("trial %d: ID after clearing the memo disagrees with recompute", trial)
		}
	}
}

// TestOutPointString pins the diagnostic format after the fmt→strconv/hex
// rewrite.
func TestOutPointString(t *testing.T) {
	var op OutPoint
	op.Tx[0], op.Tx[1], op.Tx[2], op.Tx[3] = 0xde, 0xad, 0xbe, 0xef
	op.Index = 7
	if got := op.String(); got != "deadbeef:7" {
		t.Fatalf("OutPoint.String() = %q, want %q", got, "deadbeef:7")
	}
	op.Index = 4294967295
	if got := op.String(); got != "deadbeef:4294967295" {
		t.Fatalf("OutPoint.String() = %q, want %q", got, "deadbeef:4294967295")
	}
}

// BenchmarkTouchedShards tracks the routing classifier's per-transaction
// cost (the scratch variant is the one the engine uses).
func BenchmarkTouchedShards(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tx, view := randomTxAndView(rng)
	var sc ShardScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Compute(tx, view, 8)
	}
}

// BenchmarkTxID tracks the memoized hash (cache hit) against a cold hash.
func BenchmarkTxID(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tx, _ := randomTxAndView(rng)
	b.Run("cached", func(b *testing.B) {
		tx.ID()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tx.ID()
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tx.memo.Store(idUnset)
			_ = tx.ID()
		}
	})
}
