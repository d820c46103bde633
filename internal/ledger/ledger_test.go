package ledger

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// mint creates a funding transaction's outputs directly in the set.
func mint(t *testing.T, s *ShardedStore, owner string, amount uint64, salt uint64) OutPoint {
	t.Helper()
	tx := &Tx{Outputs: []Output{{Owner: owner, Amount: amount}}, Nonce: salt}
	op := OutPoint{Tx: tx.ID(), Index: 0}
	if err := s.Add(op, tx.Outputs[0]); err != nil {
		t.Fatal(err)
	}
	return op
}

func TestTxIDDeterministicAndDistinct(t *testing.T) {
	a := &Tx{Outputs: []Output{{Owner: "u", Amount: 5}}, Nonce: 1}
	b := &Tx{Outputs: []Output{{Owner: "u", Amount: 5}}, Nonce: 1}
	if a.ID() != b.ID() {
		t.Fatal("identical transactions hash differently")
	}
	c := &Tx{Outputs: []Output{{Owner: "u", Amount: 5}}, Nonce: 2}
	if a.ID() == c.ID() {
		t.Fatal("nonce not reflected in ID")
	}
	d := &Tx{Outputs: []Output{{Owner: "v", Amount: 5}}, Nonce: 1}
	if a.ID() == d.ID() {
		t.Fatal("owner not reflected in ID")
	}
}

func TestUTXOAddSpend(t *testing.T) {
	s := NewShardedStore(4)
	op := mint(t, s, "alice", 10, 1)
	if s.Len() != 1 || s.TotalValue() != 10 {
		t.Fatal("bad set after mint")
	}
	if err := s.Add(op, Output{Owner: "alice", Amount: 10}); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if err := s.Spend(op); err != nil {
		t.Fatal(err)
	}
	if err := s.Spend(op); err == nil {
		t.Fatal("double spend accepted")
	}
	if s.Len() != 0 {
		t.Fatal("set not empty after spend")
	}
}

func TestValidateHappyPath(t *testing.T) {
	s := NewShardedStore(4)
	op := mint(t, s, "alice", 10, 1)
	tx := &Tx{
		Inputs:  []OutPoint{op},
		Outputs: []Output{{Owner: "bob", Amount: 7}, {Owner: "alice", Amount: 2}},
	}
	fee, err := Validate(tx, s)
	if err != nil {
		t.Fatal(err)
	}
	if fee != 1 {
		t.Fatalf("fee = %d, want 1", fee)
	}
}

func TestValidateRejections(t *testing.T) {
	s := NewShardedStore(4)
	op := mint(t, s, "alice", 10, 1)

	cases := []struct {
		name string
		tx   *Tx
		want error
	}{
		{"empty", &Tx{}, ErrEmptyTx},
		{"no outputs", &Tx{Inputs: []OutPoint{op}}, ErrEmptyTx},
		{"missing input", &Tx{Inputs: []OutPoint{{Index: 9}}, Outputs: []Output{{Owner: "b", Amount: 1}}}, ErrMissingInput},
		{"duplicate input", &Tx{Inputs: []OutPoint{op, op}, Outputs: []Output{{Owner: "b", Amount: 1}}}, ErrDoubleSpend},
		{"insufficient", &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "b", Amount: 11}}}, ErrInsufficient},
		{"zero output", &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "b", Amount: 0}}}, ErrZeroOutput},
	}
	for _, tc := range cases {
		if _, err := Validate(tc.tx, s); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestValidateArityLimit(t *testing.T) {
	s := NewShardedStore(4)
	tx := &Tx{Inputs: make([]OutPoint, MaxTxArity+1), Outputs: []Output{{Owner: "b", Amount: 1}}}
	for i := range tx.Inputs {
		tx.Inputs[i] = OutPoint{Index: uint32(i)}
	}
	if _, err := Validate(tx, s); !errors.Is(err, ErrTooManyInOut) {
		t.Fatalf("err = %v, want ErrTooManyInOut", err)
	}
}

func TestValidateOverflow(t *testing.T) {
	s := NewShardedStore(4)
	a := mint(t, s, "x", ^uint64(0)-1, 1)
	b := mint(t, s, "x", 5, 2)
	tx := &Tx{Inputs: []OutPoint{a, b}, Outputs: []Output{{Owner: "y", Amount: 1}}}
	if _, err := Validate(tx, s); !errors.Is(err, ErrOverflowOutput) {
		t.Fatalf("err = %v, want ErrOverflowOutput", err)
	}
}

// TestValidateAllocatesNothing pins Validate at zero allocations on the
// accept path and on every reject path, against the store and against an
// overlay over it: members validate every transaction of the list they
// vote on and keep only the verdict.
func TestValidateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	s := NewShardedStore(4)
	op := mint(t, s, "alice", 10, 1)
	big := mint(t, s, "x", ^uint64(0)-1, 2)
	wide := &Tx{Inputs: make([]OutPoint, MaxTxArity+1), Outputs: []Output{{Owner: "b", Amount: 1}}}
	cases := []struct {
		name string
		tx   *Tx
		want error
	}{
		{"accepted", &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "b", Amount: 7}}}, nil},
		{"empty", &Tx{}, ErrEmptyTx},
		{"too many inputs", wide, ErrTooManyInOut},
		{"missing input", &Tx{Inputs: []OutPoint{{Index: 9}}, Outputs: []Output{{Owner: "b", Amount: 1}}}, ErrMissingInput},
		{"duplicate input", &Tx{Inputs: []OutPoint{op, op}, Outputs: []Output{{Owner: "b", Amount: 1}}}, ErrDoubleSpend},
		{"input sum overflows", &Tx{Inputs: []OutPoint{big, op}, Outputs: []Output{{Owner: "b", Amount: 1}}}, ErrOverflowOutput},
		{"zero output", &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "b", Amount: 0}}}, ErrZeroOutput},
		{"output sum overflows", &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "b", Amount: ^uint64(0)}, {Owner: "c", Amount: 1}}}, ErrOverflowOutput},
		{"insufficient", &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "b", Amount: 11}}}, ErrInsufficient},
	}
	views := []struct {
		name string
		view UTXOView
	}{{"store", s}, {"overlay", NewOverlay(s)}}
	for _, v := range views {
		for _, tc := range cases {
			if _, err := Validate(tc.tx, v.view); err != tc.want {
				t.Fatalf("%s, %s: err = %v, want %v", v.name, tc.name, err, tc.want)
			}
			if n := testing.AllocsPerRun(100, func() { Validate(tc.tx, v.view) }); n != 0 {
				t.Errorf("%s, %s: Validate allocates %.1f times, want 0", v.name, tc.name, n)
			}
		}
	}
}

func TestApplyTxAtomic(t *testing.T) {
	s := NewShardedStore(4)
	op := mint(t, s, "alice", 10, 1)
	tx := &Tx{Inputs: []OutPoint{op, {Index: 42}}, Outputs: []Output{{Owner: "bob", Amount: 1}}}
	if err := s.ApplyTx(tx); err == nil {
		t.Fatal("apply with missing input succeeded")
	}
	// The good input must still be unspent.
	if _, ok := s.Get(op); !ok {
		t.Fatal("apply was not atomic")
	}
}

func TestApplyTxConservation(t *testing.T) {
	s := NewShardedStore(4)
	op := mint(t, s, "alice", 10, 1)
	tx := &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "bob", Amount: 6}, {Owner: "carol", Amount: 4}}}
	if err := s.ApplyTx(tx); err != nil {
		t.Fatal(err)
	}
	if s.TotalValue() != 10 {
		t.Fatalf("value not conserved: %d", s.TotalValue())
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestValidateBatchCatchesIntraBatchDoubleSpend(t *testing.T) {
	s := NewShardedStore(4)
	op := mint(t, s, "alice", 10, 1)
	tx1 := &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "bob", Amount: 9}}, Nonce: 1}
	tx2 := &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "carol", Amount: 9}}, Nonce: 2}
	valid, fees, errs := ValidateBatch([]*Tx{tx1, tx2}, s)
	if len(valid) != 1 {
		t.Fatalf("valid = %d txs, want 1", len(valid))
	}
	if fees != 1 {
		t.Fatalf("fees = %d, want 1", fees)
	}
	if errs[0] != nil || errs[1] == nil {
		t.Fatalf("errs = %v", errs)
	}
	// The base set must be untouched.
	if _, ok := s.Get(op); !ok {
		t.Fatal("ValidateBatch mutated the base set")
	}
}

func TestBatchSpendChain(t *testing.T) {
	// tx2 spends tx1's output inside the same batch: valid in sequence.
	s := NewShardedStore(4)
	op := mint(t, s, "alice", 10, 1)
	tx1 := &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: "bob", Amount: 10}}}
	tx2 := &Tx{Inputs: []OutPoint{{Tx: tx1.ID(), Index: 0}}, Outputs: []Output{{Owner: "carol", Amount: 10}}}
	valid, _, _ := ValidateBatch([]*Tx{tx1, tx2}, s)
	if len(valid) != 2 {
		t.Fatalf("chained spend rejected: %d valid", len(valid))
	}
}

func TestShardOfStableAndInRange(t *testing.T) {
	const m = 16
	for i := 0; i < 200; i++ {
		u := fmt.Sprintf("user-%d", i)
		s1 := ShardOf(u, m)
		s2 := ShardOf(u, m)
		if s1 != s2 {
			t.Fatal("ShardOf not deterministic")
		}
		if s1 >= m {
			t.Fatal("shard out of range")
		}
	}
}

func TestShardOfRoughlyBalanced(t *testing.T) {
	const m, users = 8, 8000
	counts := make([]int, m)
	for i := 0; i < users; i++ {
		counts[ShardOf(fmt.Sprintf("user-%d", i), m)]++
	}
	want := float64(users) / m
	for sh, c := range counts {
		if float64(c) < want*0.8 || float64(c) > want*1.2 {
			t.Fatalf("shard %d holds %d users, expected about %.0f", sh, c, want)
		}
	}
}

func TestCrossShardClassification(t *testing.T) {
	const m = 4
	s := NewShardedStore(4)
	// Find two users in different shards.
	var uA, uB string
	for i := 0; ; i++ {
		uA = fmt.Sprintf("user-%d", i)
		if ShardOf(uA, m) == 0 {
			break
		}
	}
	for i := 0; ; i++ {
		uB = fmt.Sprintf("peer-%d", i)
		if ShardOf(uB, m) == 1 {
			break
		}
	}
	op := mint(t, s, uA, 10, 1)
	intra := &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: uA, Amount: 10}}}
	if IsCrossShard(intra, s, m) {
		t.Fatal("same-shard tx classified cross-shard")
	}
	cross := &Tx{Inputs: []OutPoint{op}, Outputs: []Output{{Owner: uB, Amount: 10}}}
	if !IsCrossShard(cross, s, m) {
		t.Fatal("cross-shard tx classified intra-shard")
	}
	shards := TouchedShards(cross, s, m)
	if len(shards) != 2 || shards[0] != 0 || shards[1] != 1 {
		t.Fatalf("TouchedShards = %v", shards)
	}
}

func TestOutpointsOfShardDeterministic(t *testing.T) {
	const m = 4
	s := NewShardedStore(4)
	for i := 0; i < 50; i++ {
		mint(t, s, fmt.Sprintf("user-%d", i), uint64(i+1), uint64(i))
	}
	a := s.OutpointsOfShard(2, m)
	b := s.OutpointsOfShard(2, m)
	if len(a) == 0 {
		t.Fatal("no outpoints in shard 2")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ordering not deterministic")
		}
	}
	for _, op := range a {
		o, ok := s.Get(op)
		if !ok || ShardOf(o.Owner, m) != 2 {
			t.Fatal("outpoint from wrong shard")
		}
	}
}

func TestSnapshotIsolated(t *testing.T) {
	s := NewShardedStore(4)
	op := mint(t, s, "alice", 10, 1)
	snap := s.Snapshot()
	if err := snap.Spend(op); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(op); !ok {
		t.Fatal("snapshot mutation leaked to base")
	}
}

func TestValueConservationProperty(t *testing.T) {
	// Property: applying any chain of self-payments conserves total value.
	f := func(amounts []uint8) bool {
		s := NewShardedStore(4)
		var total uint64
		for i, a := range amounts {
			if a == 0 {
				continue
			}
			tx := &Tx{Outputs: []Output{{Owner: "u", Amount: uint64(a)}}, Nonce: uint64(i)}
			if err := s.Add(OutPoint{Tx: tx.ID()}, tx.Outputs[0]); err != nil {
				return false
			}
			total += uint64(a)
		}
		before := s.TotalValue()
		// Spend everything into one consolidated output.
		ops := s.OutpointsOfShard(ShardOf("u", 1), 1)
		if len(ops) == 0 {
			return before == 0
		}
		if len(ops) > MaxTxArity {
			ops = ops[:MaxTxArity]
		}
		var sum uint64
		for _, op := range ops {
			o, _ := s.Get(op)
			sum += o.Amount
		}
		tx := &Tx{Inputs: ops, Outputs: []Output{{Owner: "u", Amount: sum}}}
		if _, err := Validate(tx, s); err != nil {
			return false
		}
		if err := s.ApplyTx(tx); err != nil {
			return false
		}
		return s.TotalValue() == before && total == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
