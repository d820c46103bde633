package chain

import (
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
	if tip := c.entries[len(c.entries)-1].Header; tip.Round != 2 {
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

func TestVerifyCatchesTampering(t *testing.T) {
	genesis := ledger.NewShardedStore(4)
	op := mintTo(t, genesis, "alice", 10, 1)
	tx := &ledger.Tx{Inputs: []ledger.OutPoint{op}, Outputs: []ledger.Output{{Owner: "bob", Amount: 10}}}
	c := New()
	if _, err := c.Append(1, crypto.HString("r"), 0, []*ledger.Tx{tx}); err != nil {
		t.Fatal(err)
	}
	// Swap the body behind the header's back.
	c.entries[0].Txs = nil
	if err := c.Verify(genesis); err == nil {
		t.Fatal("tampered body passed verification")
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
