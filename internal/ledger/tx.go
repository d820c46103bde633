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
	"sync/atomic"

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
// ID() is memoized: the first call hashes the wire body and publishes the
// result in the struct, so the many downstream ID consumers (routing,
// payload digests, block assembly, ledger apply) share one hash. Nothing
// else hashes: a decoded transaction, like one the workload built, has no
// ID until one is asked for. The memo imposes a copy-on-mutate discipline
// — see ID.
type Tx struct {
	Inputs  []OutPoint
	Outputs []Output
	// Nonce distinguishes otherwise-identical transactions (e.g. two
	// equal payments between the same parties in one round).
	Nonce uint64

	// id memoizes ID(); memo says whether it is published (idUnset,
	// idWriting, idSettled). Only the goroutine that moves memo from
	// idUnset to idWriting writes id, and readers read it only after
	// seeing idSettled, so concurrent first calls are race-free.
	memo atomic.Uint32
	id   TxID
}

// The states of Tx.memo.
const (
	idUnset uint32 = iota
	idWriting
	idSettled
)

// layout is the transaction's one description: its wire body, and the
// preimage of its ID. Reading decodes into tx when the caller hands it a
// zero Tx (an entry of a decoded list's slab), else into a new one.
func (tx *Tx) layout(c *wire.Coder) *Tx {
	if c.Reading() && tx == nil {
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
	return tx
}

func init() { wire.Register((*Tx).layout, wire.TagTx) }

// ID returns the transaction hash: the hash of the transaction's wire body
// (its layout without the frame tag, wire.AppendBody) under the domain tag
// "cycledger/tx/v1". The encoding is canonical, so a decoded transaction's
// ID is the hash of the bytes it was read from. The first call computes it
// and publishes it in the struct without a lock; later calls read it. Any
// number of goroutines may make the first call at once: each computes the
// same hash, and one publishes it.
//
// Invariant (copy-on-mutate): a Tx must not be mutated after its ID has
// been computed — the memo would go stale and the transaction would travel
// under a hash that no longer matches its content. Code that needs a
// variant of an existing transaction must build a new Tx (sharing the
// Inputs/Outputs slices is fine; the memo lives in the struct, not the
// slices).
func (tx *Tx) ID() TxID {
	if tx.memo.Load() == idSettled {
		return tx.id
	}
	id := crypto.H([]byte(txDomain), wire.AppendBody(make([]byte, 0, wire.Size(tx)), tx))
	if tx.memo.CompareAndSwap(idUnset, idWriting) {
		tx.id = id
		tx.memo.Store(idSettled)
	}
	return id
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
// It exits on the second distinct shard without materialising any set. The
// protocol does not call it: routing classifies each transaction once
// (ShardScratch.Compute), and the ledger stage counts a candidate as
// cross-shard when an inter result carried it. Its one caller is the
// benchmark's ledger.prepare_commit_ns_per_tx cell (bench/cells.go), which
// ROADMAP.md 30(b) retires.
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
