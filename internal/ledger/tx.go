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
	"encoding/binary"
	"encoding/hex"
	"strconv"

	"cycledger/internal/crypto"
	"cycledger/internal/wire"
)

// TxID uniquely identifies a transaction (hash of its canonical encoding).
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
// ID() is memoized: the first call hashes the canonical encoding and caches
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

// encodedSize returns the exact length of the canonical encoding, so
// encode can fill a single right-sized allocation.
func (tx *Tx) encodedSize() int {
	n := 8 + 4 + len(tx.Inputs)*(crypto.HashSize+4) + 4
	for _, out := range tx.Outputs {
		n += 4 + len(out.Owner) + 8
	}
	return n
}

// encode produces the canonical byte encoding used for hashing, written
// into one exact-size buffer.
func (tx *Tx) encode() []byte {
	return tx.AppendEncode(make([]byte, 0, tx.encodedSize()))
}

// AppendEncode appends the canonical encoding to buf and returns the
// extended slice. The wire codec frames this encoding verbatim, so hashing
// and transport share one byte layout.
func (tx *Tx) AppendEncode(buf []byte) []byte {
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

// layout frames the canonical encoding for the wire codec: a transaction
// travels as its hash preimage, so its three codec modes are the three
// functions above and below rather than a field walk.
func (tx *Tx) layout(c *wire.Coder) *Tx {
	c.Opaque(tx.encodedSize, tx.AppendEncode, func(b []byte) (n int, err error) {
		tx, n, err = DecodeTx(b)
		return n, err
	})
	return tx
}

func init() { wire.Register((*Tx).layout, wire.TagTx) }

// DecodeTx parses one canonical transaction encoding from the front of
// buf, returning the transaction and the number of bytes consumed. The ID
// cache is settled before the Tx is returned, preserving the
// settled-before-shared invariant for decoded transactions. Counts are
// validated against the remaining bytes before any allocation, so a
// hostile length prefix cannot force a huge make.
func DecodeTx(buf []byte) (*Tx, int, error) {
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
	// The bytes just parsed are the canonical encoding: hash them instead
	// of re-encoding the transaction to hash it.
	tx.id, tx.idSet = crypto.H([]byte(txDomain), buf[:off]), true
	return tx, off, nil
}

// decodeError is the typed error for malformed canonical encodings.
type decodeError string

func (e decodeError) Error() string { return "ledger: truncated encoding: " + string(e) }

func errTruncated(what string) error { return decodeError(what) }

// ID returns the transaction hash, computing and caching it on first call.
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
		tx.id = crypto.H([]byte(txDomain), tx.encode())
		tx.idSet = true
	}
	return tx.id
}

// ResetID clears the memoized hash after a deliberate in-place mutation
// (test fixtures; production code follows copy-on-mutate instead).
func (tx *Tx) ResetID() { tx.idSet = false }

// Domain-separation tags: the transaction hash (ID and DecodeTx) and the
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
