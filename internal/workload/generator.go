// Package workload generates the transaction streams "continuously sent to
// the network by external users" (§III-D): seeded, reproducible UTXO
// payment workloads with a configurable cross-shard ratio, uniformly drawn
// senders, and optional injection of invalid transactions (double spends,
// overspends) so committees' rejection paths are exercised.
package workload

import (
	"fmt"
	"math/rand"

	"cycledger/internal/ledger"
)

// Config parameterises a generator.
type Config struct {
	Users          int     // number of external users
	Shards         uint64  // m, for cross-shard classification
	InitialBalance uint64  // coins minted per user at genesis
	CrossShardFrac float64 // fraction of payments targeting another shard
	InvalidFrac    float64 // fraction of structurally invalid transactions
	Seed           int64
}

// DefaultConfig returns a workload comparable to the paper's setting:
// a 2000-node network, ~1/3 of transactions cross-shard.
func DefaultConfig() Config {
	return Config{
		Users:          1000,
		Shards:         8,
		InitialBalance: 1_000,
		CrossShardFrac: 1.0 / 3,
		InvalidFrac:    0,
		Seed:           1,
	}
}

// Generator produces transactions against a private UTXO model so every
// generated transaction is valid at generation time (unless deliberately
// invalid). The protocol's own UTXO state advances separately; the
// generator tracks which of its outputs were actually accepted via Confirm.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	users []string
	// shards interns each user's shard (ShardOf(user, cfg.Shards)),
	// computed once at construction: receiver selection consults the shard
	// of a candidate per attempt, which must not re-hash the identity.
	shards map[string]uint64
	// spendable tracks outpoints this generator may spend next, per user.
	spendable map[string][]spendableOut
	genesis   []*ledger.Tx
	nonce     uint64
}

type spendableOut struct {
	op     ledger.OutPoint
	amount uint64
}

// New builds a generator and its genesis transactions. Apply the genesis
// transactions' outputs to the protocol's UTXO set before round 1.
func New(cfg Config) (*Generator, error) {
	if cfg.Users <= 1 {
		return nil, fmt.Errorf("workload: need at least 2 users, got %d", cfg.Users)
	}
	if cfg.Shards == 0 {
		return nil, fmt.Errorf("workload: zero shards")
	}
	if cfg.CrossShardFrac < 0 || cfg.CrossShardFrac > 1 {
		return nil, fmt.Errorf("workload: cross-shard fraction %v out of range", cfg.CrossShardFrac)
	}
	if cfg.InvalidFrac < 0 || cfg.InvalidFrac > 1 {
		return nil, fmt.Errorf("workload: invalid fraction %v out of range", cfg.InvalidFrac)
	}
	g := &Generator{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		spendable: make(map[string][]spendableOut),
	}
	g.users = make([]string, cfg.Users)
	g.shards = make(map[string]uint64, cfg.Users)
	for i := range g.users {
		g.users[i] = fmt.Sprintf("user-%04d", i)
		g.shards[g.users[i]] = ledger.ShardOf(g.users[i], cfg.Shards)
	}
	for _, u := range g.users {
		tx := &ledger.Tx{
			Outputs: []ledger.Output{{Owner: u, Amount: cfg.InitialBalance}},
			Nonce:   g.nextNonce(),
		}
		g.genesis = append(g.genesis, tx)
		op := ledger.OutPoint{Tx: tx.ID(), Index: 0}
		g.spendable[u] = append(g.spendable[u], spendableOut{op: op, amount: cfg.InitialBalance})
	}
	return g, nil
}

func (g *Generator) nextNonce() uint64 {
	g.nonce++
	return g.nonce
}

// Genesis returns the minting transactions. Callers add their outputs to
// the initial UTXO set.
func (g *Generator) Genesis() []*ledger.Tx { return g.genesis }

// Users returns the user identities.
func (g *Generator) Users() []string { return g.users }

// pickSender returns a uniformly drawn user with at least one spendable
// output.
func (g *Generator) pickSender() (string, bool) {
	for attempt := 0; attempt < 4*len(g.users); attempt++ {
		u := g.users[g.rng.Intn(len(g.users))]
		if len(g.spendable[u]) > 0 {
			return u, true
		}
	}
	// Fallback: linear scan.
	for _, u := range g.users {
		if len(g.spendable[u]) > 0 {
			return u, true
		}
	}
	return "", false
}

// pickReceiver chooses a counterparty in the same or a different shard,
// using the interned per-user shard table (no hashing per attempt).
func (g *Generator) pickReceiver(sender string, cross bool) string {
	senderShard := g.shards[sender]
	for attempt := 0; attempt < 8*len(g.users); attempt++ {
		r := g.users[g.rng.Intn(len(g.users))]
		if r == sender {
			continue
		}
		inOther := g.shards[r] != senderShard
		if inOther == cross {
			return r
		}
	}
	return sender // degenerate population; self-payment keeps the tx valid
}

// NextBatch produces `count` transactions. Generated spends consume the
// generator's model of its own unconfirmed outputs, so a batch never
// double-spends itself; call Confirm with the accepted set so the model
// tracks the chain.
func (g *Generator) NextBatch(count int) []*ledger.Tx {
	txs := make([]*ledger.Tx, 0, count)
	for len(txs) < count {
		tx, ok := g.nextTx()
		if !ok {
			break
		}
		txs = append(txs, tx)
	}
	return txs
}

// nextTx produces one transaction. The random-stream consumption is
// identical to the historical NextBatch body, so seeded workloads are
// unchanged.
func (g *Generator) nextTx() (tx *ledger.Tx, ok bool) {
	sender, ok := g.pickSender()
	if !ok {
		return nil, false
	}
	if g.cfg.InvalidFrac > 0 && g.rng.Float64() < g.cfg.InvalidFrac {
		return g.invalidTx(sender), true
	}
	cross := g.rng.Float64() < g.cfg.CrossShardFrac
	receiver := g.pickReceiver(sender, cross)

	outs := g.spendable[sender]
	pick := g.rng.Intn(len(outs))
	coin := outs[pick]
	g.spendable[sender] = append(outs[:pick], outs[pick+1:]...)

	// Pay between 1 and the full amount; 1 unit fee when possible.
	amount := coin.amount
	fee := uint64(0)
	if amount > 1 {
		fee = 1
		amount = 1 + uint64(g.rng.Int63n(int64(coin.amount-1)))
	}
	tx = &ledger.Tx{
		Inputs:  []ledger.OutPoint{coin.op},
		Outputs: []ledger.Output{{Owner: receiver, Amount: amount}},
		Nonce:   g.nextNonce(),
	}
	change := coin.amount - amount - fee
	if change > 0 {
		tx.Outputs = append(tx.Outputs, ledger.Output{Owner: sender, Amount: change})
	}
	id := tx.ID()
	g.pendingOuts(tx, id)
	return tx, true
}

// pendingOuts registers the new outputs as spendable in the generator's
// model (optimistically; Reject withdraws them when the protocol drops a tx).
func (g *Generator) pendingOuts(tx *ledger.Tx, id ledger.TxID) {
	for i, o := range tx.Outputs {
		op := ledger.OutPoint{Tx: id, Index: uint32(i)}
		g.spendable[o.Owner] = append(g.spendable[o.Owner], spendableOut{op: op, amount: o.Amount})
	}
}

// invalidTx fabricates a transaction that fails validation: either a spend
// of a non-existent outpoint or an overspend of a real coin.
func (g *Generator) invalidTx(sender string) *ledger.Tx {
	if len(g.spendable[sender]) > 0 && g.rng.Intn(2) == 0 {
		coin := g.spendable[sender][0] // not consumed: the tx will be rejected
		// Overspends follow the configured cross-shard mix so invalid
		// traffic also exercises the inter-committee rejection path.
		cross := g.rng.Float64() < g.cfg.CrossShardFrac
		return &ledger.Tx{
			Inputs:  []ledger.OutPoint{coin.op},
			Outputs: []ledger.Output{{Owner: g.pickReceiver(sender, cross), Amount: coin.amount + 1_000_000}},
			Nonce:   g.nextNonce(),
		}
	}
	var ghost ledger.OutPoint
	g.rng.Read(ghost.Tx[:])
	return &ledger.Tx{
		Inputs:  []ledger.OutPoint{ghost},
		Outputs: []ledger.Output{{Owner: sender, Amount: 1}},
		Nonce:   g.nextNonce(),
	}
}

// Reject informs the generator that a transaction was not accepted, so the
// outputs it optimistically registered are withdrawn. Its inputs are not
// restored: the coin it spent stays out of the generator's model although
// the ledger still holds it unspent (amount bookkeeping only; exactness is
// not required for load generation).
func (g *Generator) Reject(tx *ledger.Tx) {
	id := tx.ID()
	for i, o := range tx.Outputs {
		op := ledger.OutPoint{Tx: id, Index: uint32(i)}
		outs := g.spendable[o.Owner]
		for j, so := range outs {
			if so.op == op {
				g.spendable[o.Owner] = append(outs[:j], outs[j+1:]...)
				break
			}
		}
	}
}
