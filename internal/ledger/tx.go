// Package ledger implements the UTXO transaction model CycLedger's
// committees validate: transactions with multi-shard inputs and outputs,
// per-shard UTXO sets, and the authentication predicate V of §III-D
// (inputs exist, no double spend, inputs cover outputs).
//
// Users are statically partitioned into m shards; a UTXO lives in the shard
// of the user who owns it. A transaction is intra-shard when every input
// and output belongs to one shard, and cross-shard otherwise (§IV-C/D).
package ledger

import (
	"encoding/hex"
	"strconv"

	"cycledger/internal/crypto"
	"cycledger/internal/wire"
)

// TxID uniquely identifies a transaction (hash of its wire body).
type TxID = crypto.Digest

// OutPoint names one output of a prior transaction.
type OutPoint struct {
	Tx    TxID
	Index uint32
}

// String renders the outpoint for diagnostics: 8 hex digits of the
// transaction hash, a colon, and the output index. Built with strconv/hex
// appends — outpoints surface in hot-path error strings, so no fmt.
func (o OutPoint) String() string {
	var buf [8 + 1 + 10]byte
	hex.Encode(buf[:8], o.Tx[:4])
	buf[8] = ':'
	out := strconv.AppendUint(buf[:9], uint64(o.Index), 10)
	return string(out)
}

// Output is a spendable coin: an amount locked to a user.
type Output struct {
	Owner  string // user identity (shard = ShardOf(Owner, m))
	Amount uint64
}

// Tx is a transfer: it consumes the UTXOs named by Inputs and creates
// Outputs. Fee is implicit: sum(inputs) - sum(outputs).
//
// ID() is memoized: the first call hashes the wire body and caches
// the result, so the many downstream ID consumers (routing, payload
// digests, block assembly, ledger apply) share one hash. The cache imposes
// a copy-on-mutate discipline — see ID.
type Tx struct {
	Inputs  []OutPoint
	Outputs []Output
	// Nonce distinguishes otherwise-identical transactions (e.g. two
	// equal payments between the same parties in one round).
	Nonce uint64

	// id memoizes ID(). idSet is not synchronised: the workload generator
	// computes the ID once at creation, before a transaction is shared with
	// the engine, after which concurrent readers only ever see the settled
	// cache (see the interning/caching invariants note in ARCHITECTURE.md).
	id    TxID
	idSet bool
}

// layout is the transaction's one description: its wire body, and the
// preimage of its ID. A decoded transaction settles its ID from the bytes
// just read, so it is shared already settled, like one the workload built.
func (tx *Tx) layout(c *wire.Coder) *Tx {
	start := len(c.Consumed())
	if c.Reading() {
		tx = new(Tx)
	}
	c.U64(&tx.Nonce)
	wire.Slice(c, &tx.Inputs, crypto.HashSize+4, func(c *wire.Coder, in *OutPoint) {
		wire.Hash(c, &in.Tx)
		c.U32(&in.Index)
	})
	wire.Slice(c, &tx.Outputs, 4+8, func(c *wire.Coder, out *Output) {
		c.String(&out.Owner)
		c.U64(&out.Amount)
	})
	if body := c.Consumed(); body != nil {
		tx.id, tx.idSet = crypto.H([]byte(txDomain), body[start:]), true
	}
	return tx
}

func init() { wire.Register((*Tx).layout, wire.TagTx) }

// ID returns the transaction hash, computing and caching it on first call:
// the hash of the transaction's wire body (its layout without the frame
// tag) under the domain tag "cycledger/tx/v1".
//
// Invariant (copy-on-mutate): a Tx must not be mutated after its ID has
// been computed — the cache would go stale and the transaction would travel
// under a hash that no longer matches its content. Code that needs a
// variant of an existing transaction must build a new Tx (sharing the
// Inputs/Outputs slices is fine; the cache lives in the struct, not the
// slices). The first ID call is not goroutine-safe; the workload generator
// settles the cache at creation time, before a Tx is shared.
func (tx *Tx) ID() TxID {
	if !tx.idSet {
		tx.id = crypto.H([]byte(txDomain), wire.AppendBody(make([]byte, 0, wire.Size(tx)), tx))
		tx.idSet = true
	}
	return tx.id
}

// Domain-separation tags: the transaction hash (ID and layout) and the
// user→shard map.
const (
	txDomain    = "cycledger/tx/v1"
	shardDomain = "cycledger/shard/v1"
)

// ShardOf maps a user identity to its shard in [0, m). The per-user digest
// is interned (see shardcache.go) and the reduction is limb arithmetic, so
// after a user's first touch the call is a cache hit plus four integer
// divisions — no hashing, no allocation.
func ShardOf(user string, m uint64) uint64 {
	return ownerDigest(user).Mod(m)
}

// insertShard inserts s into a small sorted set kept in a slice, returning
// the (possibly extended) slice. Transaction shard sets have at most a
// handful of members (bounded by MaxTxArity, typically 1-3), so insertion
// into a stack-friendly slice beats a map + sort by orders of magnitude on
// the routing hot path.
func insertShard(set []uint64, s uint64) []uint64 {
	i := 0
	for i < len(set) && set[i] < s {
		i++
	}
	if i < len(set) && set[i] == s {
		return set
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = s
	return set
}

// ShardScratch carries reusable shard-set buffers so per-transaction
// routing can run without steady-state allocation: Compute rewrites the
// three sets in place, reusing slice capacity across calls. The zero value
// is ready to use.
type ShardScratch struct {
	// In is the sorted set of shards referenced by resolvable inputs.
	In []uint64
	// Out is the sorted set of shards receiving outputs.
	Out []uint64
	// Touched is the sorted union of In and Out.
	Touched []uint64
}

// Compute fills the scratch with the transaction's input, output, and
// union shard sets in one pass over the inputs and outputs, as the router
// consumes them.
// Unknown inputs are skipped (validation rejects them separately). The
// returned sets alias the scratch and are valid until the next Compute.
func (sc *ShardScratch) Compute(tx *Tx, view UTXOView, m uint64) {
	sc.In, sc.Out, sc.Touched = sc.In[:0], sc.Out[:0], sc.Touched[:0]
	for _, in := range tx.Inputs {
		if out, ok := view.Get(in); ok {
			s := ShardOf(out.Owner, m)
			sc.In = insertShard(sc.In, s)
			sc.Touched = insertShard(sc.Touched, s)
		}
	}
	for _, o := range tx.Outputs {
		s := ShardOf(o.Owner, m)
		sc.Out = insertShard(sc.Out, s)
		sc.Touched = insertShard(sc.Touched, s)
	}
}

// IsCrossShard reports whether the transaction touches more than one shard.
// It exits on the second distinct shard without materialising any set, so
// the per-candidate check during block assembly is allocation-free.
func IsCrossShard(tx *Tx, view UTXOView, m uint64) bool {
	var first uint64
	seen := false
	note := func(s uint64) bool {
		if !seen {
			first, seen = s, true
			return false
		}
		return s != first
	}
	for _, in := range tx.Inputs {
		if out, ok := view.Get(in); ok {
			if note(ShardOf(out.Owner, m)) {
				return true
			}
		}
	}
	for _, o := range tx.Outputs {
		if note(ShardOf(o.Owner, m)) {
			return true
		}
	}
	return false
}
