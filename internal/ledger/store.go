package ledger

import (
	"fmt"
	"sort"
	"sync"
)

// Store is mutable UTXO state as the protocol layer consumes it. The
// lock-striped ShardedStore implements it; the engine programs against the
// interface so state partitioning is a deployment choice, not a protocol
// change.
type Store interface {
	UTXOView
	// Add inserts an unspent output. Inserting an existing outpoint is an
	// error: outpoints are unique by construction.
	Add(OutPoint, Output) error
	// Spend removes an unspent output, failing if it is absent or reserved
	// by an in-flight cross-shard prepare.
	Spend(OutPoint) error
	// ApplyTx atomically spends the transaction's inputs and adds its
	// outputs, failing without partial effect.
	ApplyTx(*Tx) error
	// Len returns the number of unspent outputs.
	Len() int
	// TotalValue sums all unspent amounts (conservation checks in tests).
	TotalValue() uint64
	// OutpointsOfShard lists the outpoints whose owner belongs to the
	// given shard, in deterministic (sorted) order.
	OutpointsOfShard(shard, m uint64) []OutPoint
}

// StripeOf maps an outpoint to its state partition in [0, m). The stripe is
// a pure function of the outpoint (its transaction hash), so any node can
// locate an output in O(1) without consulting an index, and concurrent
// committees touching different outpoints contend on different locks.
func StripeOf(op OutPoint, m uint64) uint64 {
	if m <= 1 {
		return 0
	}
	// op.Tx is a uniform hash; fold the first 8 bytes with the index.
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(op.Tx[i])
	}
	return (v ^ uint64(op.Index)) % m
}

// stripe is one lock-striped partition of a ShardedStore.
type stripe struct {
	mu       sync.RWMutex
	utxo     map[OutPoint]Output
	reserved map[OutPoint]bool // inputs held by an in-flight PreparedTx
}

// ShardedStore partitions the UTXO map into m independent lock-striped
// shards keyed by StripeOf, so committees validating and applying disjoint
// transaction sets do not serialise on one global lock. Cross-shard
// transactions commit through a two-phase prepare/commit so a spend that
// straddles partitions is still atomic and never partially applied.
type ShardedStore struct {
	m       uint64
	stripes []*stripe
}

// NewShardedStore returns an empty store with m partitions (m < 1 is
// treated as 1).
func NewShardedStore(m uint64) *ShardedStore {
	if m < 1 {
		m = 1
	}
	s := &ShardedStore{m: m, stripes: make([]*stripe, m)}
	for i := range s.stripes {
		s.stripes[i] = &stripe{utxo: make(map[OutPoint]Output), reserved: make(map[OutPoint]bool)}
	}
	return s
}

// Shards returns the partition count.
func (s *ShardedStore) Shards() uint64 { return s.m }

func (s *ShardedStore) stripeOf(op OutPoint) *stripe {
	return s.stripes[StripeOf(op, s.m)]
}

// Get implements UTXOView. Reserved outputs are still unspent (the
// reserving transaction has not committed), so they remain visible.
func (s *ShardedStore) Get(op OutPoint) (Output, bool) {
	st := s.stripeOf(op)
	st.mu.RLock()
	o, ok := st.utxo[op]
	st.mu.RUnlock()
	return o, ok
}

// Add implements Store.
func (s *ShardedStore) Add(op OutPoint, out Output) error {
	st := s.stripeOf(op)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, exists := st.utxo[op]; exists {
		return fmt.Errorf("ledger: outpoint %v already exists", op)
	}
	st.utxo[op] = out
	return nil
}

// Spend implements Store.
func (s *ShardedStore) Spend(op OutPoint) error {
	st := s.stripeOf(op)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, exists := st.utxo[op]; !exists {
		return fmt.Errorf("ledger: outpoint %v not found or already spent", op)
	}
	if st.reserved[op] {
		return fmt.Errorf("ledger: outpoint %v reserved by an in-flight cross-shard commit", op)
	}
	delete(st.utxo, op)
	return nil
}

// rlockAll read-locks every stripe in ascending order (the same global
// order the write path uses), giving aggregate reads a consistent
// point-in-time view even while cross-stripe applies run concurrently —
// the atomicity a single-lock set would provide.
func (s *ShardedStore) rlockAll() {
	for _, st := range s.stripes {
		st.mu.RLock()
	}
}

func (s *ShardedStore) runlockAll() {
	for i := len(s.stripes) - 1; i >= 0; i-- {
		s.stripes[i].mu.RUnlock()
	}
}

// Len implements Store.
func (s *ShardedStore) Len() int {
	s.rlockAll()
	defer s.runlockAll()
	var n int
	for _, st := range s.stripes {
		n += len(st.utxo)
	}
	return n
}

// TotalValue implements Store.
func (s *ShardedStore) TotalValue() uint64 {
	s.rlockAll()
	defer s.runlockAll()
	var total uint64
	for _, st := range s.stripes {
		for _, o := range st.utxo {
			total += o.Amount
		}
	}
	return total
}

// OutpointsOfShard implements Store: the shard argument is the *owner*
// shard of §III-D (ShardOf(owner, m)), independent of the lock striping.
func (s *ShardedStore) OutpointsOfShard(shard, m uint64) []OutPoint {
	s.rlockAll()
	var ops []OutPoint
	for _, st := range s.stripes {
		for op, o := range st.utxo {
			if ShardOf(o.Owner, m) == shard {
				ops = append(ops, op)
			}
		}
	}
	s.runlockAll()
	sortOutPoints(ops)
	return ops
}

// Snapshot returns a deep copy with the same partition count.
func (s *ShardedStore) Snapshot() *ShardedStore {
	cp := NewShardedStore(s.m)
	s.rlockAll()
	defer s.runlockAll()
	for i, st := range s.stripes {
		dst := cp.stripes[i].utxo
		for op, o := range st.utxo {
			dst[op] = o
		}
	}
	return cp
}

// lockStripes write-locks the given stripe indices in ascending order (the
// global lock order that makes multi-stripe operations deadlock-free).
func (s *ShardedStore) lockStripes(idx []uint64) {
	for _, i := range idx {
		s.stripes[i].mu.Lock()
	}
}

func (s *ShardedStore) unlockStripes(idx []uint64) {
	for i := len(idx) - 1; i >= 0; i-- {
		s.stripes[idx[i]].mu.Unlock()
	}
}

// txStripes returns the sorted, de-duplicated stripe indices touched by the
// transaction's inputs and outputs.
func (s *ShardedStore) txStripes(tx *Tx, id TxID) []uint64 {
	set := make(map[uint64]bool, len(tx.Inputs)+len(tx.Outputs))
	for _, in := range tx.Inputs {
		set[StripeOf(in, s.m)] = true
	}
	for i := range tx.Outputs {
		set[StripeOf(OutPoint{Tx: id, Index: uint32(i)}, s.m)] = true
	}
	idx := make([]uint64, 0, len(set))
	for i := range set {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	return idx
}

// PreparedTx is the first half of a two-phase cross-shard apply: the
// transaction's inputs are reserved across every partition it touches, so
// no concurrent spend can consume them before Commit, and Commit itself
// cannot fail for a missing input.
type PreparedTx struct {
	store   *ShardedStore
	tx      *Tx
	id      TxID
	stripes []uint64
	done    bool
}

// PrepareTx validates input availability and reserves the inputs across
// all touched partitions. It fails without effect if any input is
// duplicated, missing, or already reserved, or any output slot is
// occupied. The returned handle must be finished with Commit or Abort.
func (s *ShardedStore) PrepareTx(tx *Tx) (*PreparedTx, error) {
	// Duplicate inputs would double-reserve and then double-count on
	// Commit (value inflation); reject them here so the two-phase path is
	// safe standalone, not only behind Validate.
	seen := make(map[OutPoint]bool, len(tx.Inputs))
	for _, in := range tx.Inputs {
		if seen[in] {
			return nil, fmt.Errorf("ledger: prepare: duplicate input %v", in)
		}
		seen[in] = true
	}
	id := tx.ID()
	stripes := s.txStripes(tx, id)
	s.lockStripes(stripes)
	defer s.unlockStripes(stripes)
	for _, in := range tx.Inputs {
		st := s.stripeOf(in)
		if _, ok := st.utxo[in]; !ok {
			return nil, fmt.Errorf("ledger: prepare: input %v missing", in)
		}
		if st.reserved[in] {
			return nil, fmt.Errorf("ledger: prepare: input %v already reserved", in)
		}
	}
	for i := range tx.Outputs {
		op := OutPoint{Tx: id, Index: uint32(i)}
		if _, exists := s.stripeOf(op).utxo[op]; exists {
			return nil, fmt.Errorf("ledger: prepare: output %v already exists", op)
		}
	}
	for _, in := range tx.Inputs {
		s.stripeOf(in).reserved[in] = true
	}
	return &PreparedTx{store: s, tx: tx, id: id, stripes: stripes}, nil
}

// Commit consumes the reserved inputs and materialises the outputs. It is
// infallible by construction: Prepare already proved every input present.
func (p *PreparedTx) Commit() {
	if p.done {
		return
	}
	p.done = true
	s := p.store
	s.lockStripes(p.stripes)
	defer s.unlockStripes(p.stripes)
	for _, in := range p.tx.Inputs {
		st := s.stripeOf(in)
		delete(st.reserved, in)
		delete(st.utxo, in)
	}
	for i, out := range p.tx.Outputs {
		op := OutPoint{Tx: p.id, Index: uint32(i)}
		s.stripeOf(op).utxo[op] = out
	}
}

// Abort releases the reservations without spending anything.
func (p *PreparedTx) Abort() {
	if p.done {
		return
	}
	p.done = true
	s := p.store
	s.lockStripes(p.stripes)
	defer s.unlockStripes(p.stripes)
	for _, in := range p.tx.Inputs {
		delete(s.stripeOf(in).reserved, in)
	}
}

// ApplyTx implements Store via the two-phase path: a transaction whose
// inputs and outputs all land in one stripe takes one lock; a transaction
// straddling stripes locks them in ascending order and commits atomically.
func (s *ShardedStore) ApplyTx(tx *Tx) error {
	p, err := s.PrepareTx(tx)
	if err != nil {
		return fmt.Errorf("ledger: apply: %w", err)
	}
	p.Commit()
	return nil
}

// sortOutPoints orders outpoints lexicographically by (tx hash, index), the
// canonical order for reproducible Remaining-UTXO lists.
func sortOutPoints(ops []OutPoint) {
	sort.Slice(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		for k := range a.Tx {
			if a.Tx[k] != b.Tx[k] {
				return a.Tx[k] < b.Tx[k]
			}
		}
		return a.Index < b.Index
	})
}
