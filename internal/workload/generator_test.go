package workload

import (
	"testing"

	"cycledger/internal/ledger"
)

func buildSet(t *testing.T, g *Generator) *ledger.ShardedStore {
	t.Helper()
	s := ledger.NewShardedStore(4)
	for _, tx := range g.Genesis() {
		id := tx.ID()
		for i, o := range tx.Outputs {
			if err := s.Add(ledger.OutPoint{Tx: id, Index: uint32(i)}, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestGeneratorGenesis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 50
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Genesis()) != 50 || len(g.Users()) != 50 {
		t.Fatal("genesis size mismatch")
	}
	s := buildSet(t, g)
	if s.TotalValue() != 50*cfg.InitialBalance {
		t.Fatalf("genesis value = %d", s.TotalValue())
	}
}

func TestBatchAllValid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 100
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := buildSet(t, g)
	txs := g.NextBatch(200)
	if len(txs) != 200 {
		t.Fatalf("batch size = %d", len(txs))
	}
	valid, fees, errs := ledger.ValidateBatch(txs, s)
	if len(valid) != len(txs) {
		for i, e := range errs {
			if e != nil {
				t.Logf("tx %d: %v", i, e)
			}
		}
		t.Fatalf("%d/%d valid", len(valid), len(txs))
	}
	if fees == 0 {
		t.Fatal("expected nonzero fees")
	}
}

func TestBatchDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 40
	g1, _ := New(cfg)
	g2, _ := New(cfg)
	a := g1.NextBatch(50)
	b := g2.NextBatch(50)
	if len(a) != len(b) {
		t.Fatal("batch lengths differ")
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("tx %d differs between identical seeds", i)
		}
	}
}

func TestCrossShardFraction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 400
	cfg.CrossShardFrac = 0.5
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := buildSet(t, g)
	txs := g.NextBatch(600)
	cross := 0
	for _, tx := range txs {
		if ledger.IsCrossShard(tx, s, cfg.Shards) {
			cross++
		}
		// Keep the view advancing so chained inputs resolve.
		if _, err := ledger.Validate(tx, s); err == nil {
			if err := s.ApplyTx(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	frac := float64(cross) / float64(len(txs))
	// Change outputs return to the sender's shard, so observed cross
	// fraction tracks but slightly exceeds the payment fraction.
	if frac < 0.35 || frac > 0.75 {
		t.Fatalf("cross-shard fraction %.2f too far from configured 0.5", frac)
	}
}

func TestZeroCrossShard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 200
	cfg.CrossShardFrac = 0
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := buildSet(t, g)
	for _, tx := range g.NextBatch(200) {
		if ledger.IsCrossShard(tx, s, cfg.Shards) {
			t.Fatal("cross-shard tx generated with fraction 0")
		}
		if _, err := ledger.Validate(tx, s); err == nil {
			if err := s.ApplyTx(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestInvalidInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 100
	cfg.InvalidFrac = 0.3
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := buildSet(t, g)
	txs := g.NextBatch(300)
	_, _, errs := ledger.ValidateBatch(txs, s)
	bad := 0
	for _, e := range errs {
		if e != nil {
			bad++
		}
	}
	if bad < 50 || bad > 150 {
		t.Fatalf("invalid count %d, expected about 90", bad)
	}
}

func TestRejectRollsBackOutputs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 10
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	txs := g.NextBatch(1)
	tx := txs[0]
	recv := tx.Outputs[0].Owner
	owned := 0
	for _, o := range tx.Outputs {
		if o.Owner == recv {
			owned++ // payment plus change can share an owner
		}
	}
	before := len(g.spendable[recv])
	g.Reject(tx)
	after := len(g.spendable[recv])
	if after != before-owned {
		t.Fatalf("spendable count %d -> %d, want rollback by %d", before, after, owned)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Users: 1, Shards: 4},
		{Users: 10, Shards: 0},
		{Users: 10, Shards: 4, CrossShardFrac: -0.1},
		{Users: 10, Shards: 4, CrossShardFrac: 1.5},
		{Users: 10, Shards: 4, InvalidFrac: 2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestLongRunDoesNotStarve(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 50
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := buildSet(t, g)
	total := 0
	for round := 0; round < 20; round++ {
		txs := g.NextBatch(50)
		valid, _, _ := ledger.ValidateBatch(txs, s)
		for _, tx := range valid {
			if err := s.ApplyTx(tx); err != nil {
				t.Fatal(err)
			}
		}
		total += len(valid)
	}
	if total < 900 {
		t.Fatalf("only %d valid transactions over 20 rounds", total)
	}
}
