package chain

import (
	"bytes"
	"reflect"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
)

func mintTo(t *testing.T, s *ledger.ShardedStore, owner string, amt, salt uint64) ledger.OutPoint {
	t.Helper()
	tx := &ledger.Tx{Outputs: []ledger.Output{{Owner: owner, Amount: amt}}, Nonce: salt}
	op := ledger.OutPoint{Tx: tx.ID()}
	if err := s.Add(op, tx.Outputs[0]); err != nil {
		t.Fatal(err)
	}
	return op
}

func TestAppendAndVerify(t *testing.T) {
	genesis := ledger.NewShardedStore(4)
	op := mintTo(t, genesis, "alice", 10, 1)
	tx := &ledger.Tx{Inputs: []ledger.OutPoint{op}, Outputs: []ledger.Output{{Owner: "bob", Amount: 9}}}

	c := New()
	h1, err := c.Append(1, crypto.HString("r2"), 1, []*ledger.Tx{tx})
	if err != nil {
		t.Fatal(err)
	}
	if h1.TxCount != 1 || !h1.Prev.IsZero() {
		t.Fatalf("bad genesis header %+v", h1)
	}
	h2, err := c.Append(2, crypto.HString("r3"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Prev != h1.Hash() {
		t.Fatal("linkage broken")
	}
	if err := c.Verify(genesis); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if tip := c.entries[len(c.entries)-1].header; tip.Round != 2 {
		t.Fatalf("tip = %+v", tip)
	}
	if e, ok := c.At(0); !ok || e.Header.Round != 1 {
		t.Fatal("At(0) failed")
	}
	if _, ok := c.At(9); ok {
		t.Fatal("At out of range succeeded")
	}
}

func TestAppendRejectsWrongRound(t *testing.T) {
	c := New()
	if _, err := c.Append(2, crypto.HString("r"), 0, nil); err == nil {
		t.Fatal("round 2 accepted as genesis")
	}
	if _, err := c.Append(1, crypto.HString("r"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(3, crypto.HString("r"), 0, nil); err == nil {
		t.Fatal("round gap accepted")
	}
}

// TestVerifyCatchesTampering changes a stored body behind its header's
// back: a flipped byte of the last output's amount still decodes, to a list
// whose root is not the header's, and a body cut short does not decode.
// Each is an error from Verify, not a panic.
func TestVerifyCatchesTampering(t *testing.T) {
	for name, tamper := range map[string]func([]byte) []byte{
		"amount flipped": func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"body truncated": func(b []byte) []byte { return b[:len(b)-1] },
	} {
		t.Run(name, func(t *testing.T) {
			genesis := ledger.NewShardedStore(4)
			op := mintTo(t, genesis, "alice", 10, 1)
			tx := &ledger.Tx{Inputs: []ledger.OutPoint{op}, Outputs: []ledger.Output{{Owner: "bob", Amount: 10}}}
			c := New()
			if _, err := c.Append(1, crypto.HString("r"), 0, []*ledger.Tx{tx}); err != nil {
				t.Fatal(err)
			}
			if err := c.Verify(genesis); err != nil {
				t.Fatalf("intact chain: %v", err)
			}
			c.entries[0].txs = tamper(bytes.Clone(c.entries[0].txs))
			if err := c.Verify(genesis); err == nil {
				t.Fatal("tampered body passed verification")
			}
		})
	}
}

func TestVerifyCatchesBadFees(t *testing.T) {
	genesis := ledger.NewShardedStore(4)
	op := mintTo(t, genesis, "alice", 10, 1)
	tx := &ledger.Tx{Inputs: []ledger.OutPoint{op}, Outputs: []ledger.Output{{Owner: "bob", Amount: 9}}}
	c := New()
	if _, err := c.Append(1, crypto.HString("r"), 5 /* wrong: fee is 1 */, []*ledger.Tx{tx}); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(genesis); err == nil {
		t.Fatal("wrong declared fees passed verification")
	}
}

func TestVerifyCatchesDoubleSpendAcrossBlocks(t *testing.T) {
	genesis := ledger.NewShardedStore(4)
	op := mintTo(t, genesis, "alice", 10, 1)
	tx1 := &ledger.Tx{Inputs: []ledger.OutPoint{op}, Outputs: []ledger.Output{{Owner: "bob", Amount: 10}}, Nonce: 1}
	tx2 := &ledger.Tx{Inputs: []ledger.OutPoint{op}, Outputs: []ledger.Output{{Owner: "eve", Amount: 10}}, Nonce: 2}
	c := New()
	if _, err := c.Append(1, crypto.HString("r"), 0, []*ledger.Tx{tx1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(2, crypto.HString("r"), 0, []*ledger.Tx{tx2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(genesis); err == nil {
		t.Fatal("cross-block double spend passed verification")
	}
}

func TestVerifyWithoutGenesisSkipsReplay(t *testing.T) {
	c := New()
	bogus := &ledger.Tx{Inputs: []ledger.OutPoint{{Index: 1}}, Outputs: []ledger.Output{{Owner: "x", Amount: 1}}}
	if _, err := c.Append(1, crypto.HString("r"), 0, []*ledger.Tx{bogus}); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(nil); err != nil {
		t.Fatalf("structural verification failed: %v", err)
	}
}

func TestHeaderHashSensitivity(t *testing.T) {
	h := Header{Round: 1, Fees: 10}
	base := h.Hash()
	h2 := h
	h2.Fees = 11
	if h2.Hash() == base {
		t.Fatal("fees not bound to header hash")
	}
	h3 := h
	h3.Randomness = crypto.HString("r")
	if h3.Hash() == base {
		t.Fatal("randomness not bound to header hash")
	}
}

// payments returns n one-in, one-out transactions, each built afresh.
func payments(n int) []*ledger.Tx {
	txs := make([]*ledger.Tx, n)
	for i := range txs {
		txs[i] = &ledger.Tx{
			Inputs:  []ledger.OutPoint{{Tx: crypto.HString("coin"), Index: uint32(i)}},
			Outputs: []ledger.Output{{Owner: "bob", Amount: uint64(i + 1)}, {Owner: "carol", Amount: 1}},
			Nonce:   uint64(i),
		}
	}
	return txs
}

// TestStoredListIsTheChains: the list At returns is the one appended, after
// the caller has overwritten, mutated and dropped what it passed; it
// re-encodes to the stored bytes, and its IDs rebuild the header's root.
func TestStoredListIsTheChains(t *testing.T) {
	txs := payments(5)
	want := payments(5)
	c := New()
	h, err := c.Append(1, crypto.HString("r"), 0, txs)
	if err != nil {
		t.Fatal(err)
	}
	txs[0].Outputs[0].Amount = 99
	txs[1] = txs[2]
	txs = nil
	e, ok := c.At(0)
	if !ok {
		t.Fatal("At(0) failed")
	}
	if !reflect.DeepEqual(e.Txs, want) {
		t.Fatalf("At(0) reads %v, appended %v", e.Txs, want)
	}
	if again := ledger.EncodeTxs(e.Txs); !bytes.Equal(again, c.entries[0].txs) {
		t.Fatalf("the list re-encodes differently\n got %x\nwant %x", again, c.entries[0].txs)
	}
	if TxRootOf(e.Txs) != h.TxRoot || len(e.Txs) != h.TxCount {
		t.Fatal("the list read back does not rebuild the header's root and count")
	}
}

// TestAtDecodesAfresh: two At calls share no decoded value, so one
// caller's writes reach neither the chain nor the other caller.
func TestAtDecodesAfresh(t *testing.T) {
	c := New()
	if _, err := c.Append(1, crypto.HString("r"), 0, payments(3)); err != nil {
		t.Fatal(err)
	}
	a, _ := c.At(0)
	b, _ := c.At(0)
	for i := range a.Txs {
		if a.Txs[i] == b.Txs[i] || &a.Txs[i].Inputs[0] == &b.Txs[i].Inputs[0] || &a.Txs[i].Outputs[0] == &b.Txs[i].Outputs[0] {
			t.Fatalf("two reads share transaction %d", i)
		}
	}
	a.Txs[0].Outputs[0].Amount = 99
	a.Txs[1] = a.Txs[2]
	if again, _ := c.At(0); !reflect.DeepEqual(again.Txs, payments(3)) || b.Txs[0].Outputs[0].Amount != 1 {
		t.Fatal("a reader's write reached the chain or another reader")
	}
	if err := c.Verify(nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendAllocationsIndependentOfLength: appending a block allocates the
// same number of objects whatever its length, so a committed block is a
// fixed number of heap objects and its transactions none of them.
func TestAppendAllocationsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(n int) float64 {
		txs := payments(n)
		TxRootOf(txs) // the engine appends transactions whose IDs it has read
		return testing.AllocsPerRun(20, func() {
			if _, err := New().Append(1, crypto.HString("r"), 0, txs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(128); one != many {
		t.Fatalf("appending 1 transaction allocates %v times, 128 transactions %v", one, many)
	}
}
