package ledger

import "testing"

func TestOverlayIsolation(t *testing.T) {
	base := NewShardedStore(4)
	op := mint(t, base, "alice", 10, 1)
	ov := NewOverlay(base)
	tx := &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "bob", Amount: 10}}}
	if _, err := Validate(tx, ov); err != nil {
		t.Fatal(err)
	}
	if err := ov.ApplyTx(tx); err != nil {
		t.Fatal(err)
	}
	// Base untouched; overlay reflects the spend.
	if _, ok := base.Get(op); !ok {
		t.Fatal("overlay mutated the base")
	}
	if _, ok := ov.Get(op); ok {
		t.Fatal("overlay still shows the spent input")
	}
	if _, ok := ov.Get(OutPoint{Tx: tx.ID()}); !ok {
		t.Fatal("overlay missing the new output")
	}
}

func TestOverlayChainedSpend(t *testing.T) {
	// The §VIII-B case: tx2 spends tx1's output within one list.
	base := NewShardedStore(4)
	op := mint(t, base, "alice", 10, 1)
	ov := NewOverlay(base)
	tx1 := &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "bob", Amount: 10}}}
	tx2 := &Tx{Inputs: []OutPoint{{Tx: tx1.ID()}}, Outputs: []Output{{Owner: "carol", Amount: 10}}}

	// Against the bare base, tx2 is invalid (this is the original
	// protocol's behaviour); against the overlay after tx1, it validates.
	if _, err := Validate(tx2, base); err == nil {
		t.Fatal("chained tx validated against the base")
	}
	if err := ov.ApplyTx(tx1); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(tx2, ov); err != nil {
		t.Fatalf("chained tx rejected by overlay: %v", err)
	}
	if err := ov.ApplyTx(tx2); err != nil {
		t.Fatal(err)
	}
	// Spending a locally-added-then-spent output fails.
	if err := ov.ApplyTx(tx2); err == nil {
		t.Fatal("double spend inside overlay accepted")
	}
}

func TestOverlayApplyAtomic(t *testing.T) {
	base := NewShardedStore(4)
	op := mint(t, base, "alice", 10, 1)
	ov := NewOverlay(base)
	bad := &Tx{Inputs: []OutPoint{op, {Index: 7}}, Outputs: []Output{{Owner: "bob", Amount: 1}}}
	if err := ov.ApplyTx(bad); err == nil {
		t.Fatal("apply with missing input succeeded")
	}
	if _, ok := ov.Get(op); !ok {
		t.Fatal("failed apply left partial state")
	}
}
