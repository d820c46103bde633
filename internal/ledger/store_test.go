package ledger

import (
	"reflect"
	"testing"
)

// ownerInShard finds a user identity landing in the wanted shard under m.
func ownerInShard(t *testing.T, want, m uint64) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := "user-" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		if ShardOf(name, m) == want {
			return name
		}
	}
	t.Fatalf("no owner found for shard %d/%d", want, m)
	return ""
}

func mintInto(t *testing.T, s Store, owner string, amount, salt uint64) OutPoint {
	t.Helper()
	tx := &Tx{Outputs: []Output{{Owner: owner, Amount: amount}}, Nonce: salt}
	op := OutPoint{Tx: tx.ID(), Index: 0}
	if err := s.Add(op, tx.Outputs[0]); err != nil {
		t.Fatal(err)
	}
	return op
}

// TestCrossShardInputsOneShardOutputsAnother covers the routing edge case
// where every input resolves to one shard but every output lands in
// another: the tx must classify as cross-shard with exactly those two
// shards touched, whatever the store's stripe count.
func TestCrossShardInputsOneShardOutputsAnother(t *testing.T) {
	const m = 4
	sender := ownerInShard(t, 1, m)
	receiver := ownerInShard(t, 3, m)
	for _, store := range []Store{NewShardedStore(1), NewShardedStore(m)} {
		coin := mintInto(t, store, sender, 100, 7)
		tx := &Tx{Inputs: []OutPoint{coin}, Outputs: []Output{{Owner: receiver, Amount: 99}}}
		if got := InputShards(tx, store, m); !reflect.DeepEqual(got, []uint64{1}) {
			t.Fatalf("InputShards = %v, want [1]", got)
		}
		if got := OutputShards(tx, m); !reflect.DeepEqual(got, []uint64{3}) {
			t.Fatalf("OutputShards = %v, want [3]", got)
		}
		if got := TouchedShards(tx, store, m); !reflect.DeepEqual(got, []uint64{1, 3}) {
			t.Fatalf("TouchedShards = %v, want [1 3]", got)
		}
		if !IsCrossShard(tx, store, m) {
			t.Fatal("tx with disjoint input/output shards should be cross-shard")
		}
	}
}

// TestUnresolvableInputRoutesToOutputShard: a tx spending an unknown
// outpoint has no resolvable input shards; TouchedShards degrades to the
// output shards, which is where the protocol offers it (to be voted No).
func TestUnresolvableInputRoutesToOutputShard(t *testing.T) {
	const m = 4
	receiver := ownerInShard(t, 2, m)
	var ghost OutPoint
	ghost.Tx[0] = 0xFF
	tx := &Tx{Inputs: []OutPoint{ghost}, Outputs: []Output{{Owner: receiver, Amount: 1}}}
	for _, store := range []Store{NewShardedStore(1), NewShardedStore(m)} {
		if got := InputShards(tx, store, m); len(got) != 0 {
			t.Fatalf("InputShards = %v, want empty for unresolvable input", got)
		}
		if got := TouchedShards(tx, store, m); !reflect.DeepEqual(got, []uint64{2}) {
			t.Fatalf("TouchedShards = %v, want [2]", got)
		}
		if IsCrossShard(tx, store, m) {
			t.Fatal("unresolvable-input tx should not classify as cross-shard")
		}
	}
}

// TestTouchedShardsDeterministicUnderShardedStore: the classification must
// not depend on the store's stripe layout or iteration order.
func TestTouchedShardsDeterministicUnderShardedStore(t *testing.T) {
	const m = 8
	stores := []Store{NewShardedStore(1), NewShardedStore(m), NewShardedStore(64)}
	senderA := ownerInShard(t, 0, m)
	senderB := ownerInShard(t, 5, m)
	receiver := ownerInShard(t, 6, m)
	var txs []*Tx
	for _, s := range stores {
		a := mintInto(t, s, senderA, 10, 1)
		b := mintInto(t, s, senderB, 10, 2)
		txs = append(txs, &Tx{Inputs: []OutPoint{a, b}, Outputs: []Output{{Owner: receiver, Amount: 19}}})
	}
	want := TouchedShards(txs[0], stores[0], m)
	for i, s := range stores {
		for rep := 0; rep < 3; rep++ {
			if got := TouchedShards(txs[i], s, m); !reflect.DeepEqual(got, want) {
				t.Fatalf("store %d rep %d: TouchedShards = %v, want %v", i, rep, got, want)
			}
		}
	}
	if !reflect.DeepEqual(want, []uint64{0, 5, 6}) {
		t.Fatalf("TouchedShards = %v, want [0 5 6]", want)
	}
}

// TestTwoPhasePrepareCommit exercises the cross-shard two-phase apply:
// reservation blocks conflicting spends, Abort releases, Commit applies
// atomically.
func TestTwoPhasePrepareCommit(t *testing.T) {
	const m = 4
	s := NewShardedStore(m)
	sender := ownerInShard(t, 0, m)
	receiver := ownerInShard(t, 3, m)
	coin := mintInto(t, s, sender, 50, 1)
	tx := &Tx{Inputs: []OutPoint{coin}, Outputs: []Output{{Owner: receiver, Amount: 50}}}

	p, err := s.PrepareTx(tx)
	if err != nil {
		t.Fatal(err)
	}
	// Reserved input: still visible, but not spendable or re-preparable.
	if _, ok := s.Get(coin); !ok {
		t.Fatal("reserved input should remain visible until commit")
	}
	if err := s.Spend(coin); err == nil {
		t.Fatal("Spend of a reserved input must fail")
	}
	conflict := &Tx{Inputs: []OutPoint{coin}, Outputs: []Output{{Owner: sender, Amount: 50}}, Nonce: 9}
	if _, err := s.PrepareTx(conflict); err == nil {
		t.Fatal("conflicting prepare must fail while input is reserved")
	}

	p.Abort()
	if err := s.Spend(coin); err != nil {
		t.Fatalf("Spend after Abort: %v", err)
	}
	if err := s.Add(coin, Output{Owner: sender, Amount: 50}); err != nil {
		t.Fatal(err)
	}

	p2, err := s.PrepareTx(tx)
	if err != nil {
		t.Fatal(err)
	}
	p2.Commit()
	if _, ok := s.Get(coin); ok {
		t.Fatal("committed input still unspent")
	}
	out := OutPoint{Tx: tx.ID(), Index: 0}
	if got, ok := s.Get(out); !ok || got.Owner != receiver || got.Amount != 50 {
		t.Fatalf("committed output missing or wrong: %+v ok=%v", got, ok)
	}
	if s.TotalValue() != 50 {
		t.Fatalf("value not conserved: %d", s.TotalValue())
	}
	// Double-finish is a no-op.
	p2.Commit()
	p2.Abort()
	if s.TotalValue() != 50 || s.Len() != 1 {
		t.Fatal("double-finish mutated state")
	}
}

// TestShardedApplyTxNoPartialEffect: a failing apply must leave the store
// untouched even when the tx straddles stripes.
func TestShardedApplyTxNoPartialEffect(t *testing.T) {
	const m = 8
	s := NewShardedStore(m)
	sender := ownerInShard(t, 1, m)
	coin := mintInto(t, s, sender, 10, 1)
	var ghost OutPoint
	ghost.Tx[31] = 1
	bad := &Tx{Inputs: []OutPoint{coin, ghost}, Outputs: []Output{{Owner: sender, Amount: 10}}}
	if err := s.ApplyTx(bad); err == nil {
		t.Fatal("apply with missing input should fail")
	}
	if _, ok := s.Get(coin); !ok {
		t.Fatal("failed apply consumed an input")
	}
	dup := &Tx{Inputs: []OutPoint{coin, coin}, Outputs: []Output{{Owner: sender, Amount: 20}}}
	if err := s.ApplyTx(dup); err == nil {
		t.Fatal("apply with duplicate input should fail")
	}
	if _, err := s.PrepareTx(dup); err == nil {
		t.Fatal("prepare with duplicate input should fail (value inflation)")
	}
	if err := s.Spend(coin); err != nil {
		t.Fatalf("failed duplicate prepare left a reservation behind: %v", err)
	}
	if err := s.Add(coin, Output{Owner: sender, Amount: 10}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.TotalValue() != 10 {
		t.Fatal("failed applies mutated state")
	}
}
