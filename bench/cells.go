package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cycledger/internal/chain"
	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/pow"
	"cycledger/internal/pvss"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
	txgen "cycledger/internal/workload"
	"cycledger/sim"
)

// Layer cells are direct timed calls into each layer's exported
// functions, on inputs shaped by the workload: its c, λ, |C_R| and
// hardness, its audited message sample, its committed transactions. They
// measure a layer from outside; README.md lists every internal symbol
// they pin.

// cellTime is how long a cell repeats its operation for, at least once.
var cellTime = 60 * time.Millisecond

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// timeOp repeats op in three batches of at least d/3 each and returns the
// median batch's mean ns and heap allocations per call: one disturbed
// batch does not move the result.
func timeOp(d time.Duration, op func()) (ns, allocs float64) {
	var nss, allocss [3]float64
	for i := range nss {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		n := 0
		for {
			op()
			n++
			if time.Since(start) >= d/3 {
				break
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		nss[i] = float64(elapsed.Nanoseconds()) / float64(n)
		allocss[i] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return median(nss[:]), median(allocss[:])
}

// cells carries what the layer cells of one workload read.
type cells struct {
	cfg  sim.Config
	seed int64
	tr   *tracer
	s    *sim.Sim // the traced run, past its last round
	out  map[string]float64
}

// runCells runs every layer cell for one workload, each inside its own
// trace span.
func runCells(seed int64, tr *tracer, s *sim.Sim) (map[string]float64, error) {
	c := &cells{cfg: s.Config(), seed: seed, tr: tr, s: s, out: make(map[string]float64)}
	log, workload := tr.log, tr.workload
	start := time.Now()
	root := log.add("layer-cells", workload, 0, 0, start, start)
	for _, cell := range []struct {
		name string
		run  func() error
	}{
		{"crypto", c.cryptoCells},
		{"committee", c.committeeCells},
		{"pow", c.powCells},
		{"pvss", c.pvssCells},
		{"consensus", c.consensusCells},
		{"ledger", c.ledgerCells},
		{"workload", c.workloadCell},
		{"chain", c.chainCells},
		{"reputation", c.reputationCell},
		{"wire", c.wireCells},
		{"simnet", c.simnetCells},
	} {
		var err error
		log.timed("cell:"+cell.name, workload, root, func() { err = cell.run() })
		if err != nil {
			return nil, fmt.Errorf("%s cell: %w", cell.name, err)
		}
	}
	log.setEnd(root, time.Now())
	return c.out, nil
}

func (c *cells) rng() *rand.Rand { return rand.New(rand.NewSource(c.seed)) }

var cellRandomness = crypto.HString("cycledger/bench/round-randomness")

func (c *cells) cryptoCells() error {
	kp := crypto.GenerateKeyPair(c.rng())
	alpha := crypto.SortitionInput(1, cellRandomness)
	var out crypto.VRFOutput
	c.out["crypto.vrf_prove_ns"], _ = timeOp(cellTime, func() { out = crypto.VRFProve(kp.SK, alpha) })
	var err error
	c.out["crypto.vrf_verify_ns"], _ = timeOp(cellTime, func() { err = crypto.VRFVerify(kp.PK, alpha, out) })
	return err
}

// committeeCells runs Algorithm 2 for one committee of the workload's
// shape over a bare simnet: c members, of which the leader and the λ
// partial-set members are key members whose records carry no proof, as
// in the engine.
func (c *cells) committeeCells() error {
	rng := c.rng()
	members, keys := c.cfg.C, c.cfg.Lambda+1
	recs := make([]committee.MemberRecord, members)
	var kp crypto.KeyPair
	for i := range recs {
		kp = crypto.GenerateKeyPair(rng)
		recs[i] = committee.MemberRecord{Node: simnet.NodeID(i), PK: kp.PK}
		if i >= keys {
			res := committee.Sortition(kp, 1, cellRandomness, 1)
			recs[i].Hash, recs[i].Proof = res.Out.Hash, res.Out.Proof
		}
	}
	c.out["committee.sortition_ns"], _ = timeOp(cellTime, func() {
		sink = committee.Sortition(kp, 1, cellRandomness, uint64(c.cfg.M))
	})

	known := 0
	ns, allocs := timeOp(4*cellTime, func() {
		net := simnet.New(simnet.DefaultLatency(), c.seed)
		nodes := make([]*committee.ConfigNode, members)
		for i := range nodes {
			cn := committee.NewConfigNode(1, cellRandomness, 1, recs[i], i < keys, recs[:keys])
			nodes[i] = cn
			net.Register(recs[i].Node, func(ctx *simnet.Context, msg simnet.Message) { cn.Handle(ctx, msg) })
			if i >= keys {
				net.After(recs[i].Node, 1, cn.Start)
			}
		}
		net.RunUntilIdle()
		known = nodes[0].S.Len()
	})
	if known != members {
		return fmt.Errorf("leader learned %d of %d members", known, members)
	}
	c.out["committee.config_ns_per_committee"] = ns
	c.out["committee.config_allocs_per_committee"] = allocs
	return nil
}

func (c *cells) powCells() error {
	hardness := c.cfg.PowHardness
	if hardness == 0 {
		hardness = 8 // the engine's default
	}
	puzzle := pow.NewPuzzle(2, cellRandomness, hardness)
	rng := c.rng()
	keys := make([]crypto.PublicKey, 64)
	for i := range keys {
		keys[i] = crypto.GenerateKeyPair(rng).PK
	}
	var solves, attempts uint64
	var sol pow.Solution
	var err error
	ns, _ := timeOp(cellTime, func() {
		i := solves % uint64(len(keys))
		var n uint64
		sol, n, err = pow.Solve(puzzle, keys[i], i<<32, 1<<22)
		solves++
		attempts += n
	})
	if err != nil {
		return err
	}
	c.out["pow.solve_ns_per_node"] = ns
	c.out["pow.attempts_per_solve"] = float64(attempts) / float64(solves)
	c.out["pow.est_ms_per_round"] = ns * float64(c.cfg.TotalNodes()) / 1e6
	ok := false
	c.out["pow.verify_ns"], _ = timeOp(cellTime, func() { ok = pow.Verify(puzzle, sol) })
	if !ok {
		return fmt.Errorf("solution does not verify")
	}
	return nil
}

func (c *cells) pvssCells() error {
	g := pvss.DefaultGroup()
	rng := c.rng()
	n := c.cfg.RefSize
	members := make([]pvss.BeaconMember, n)
	for i := range members {
		members[i] = pvss.BeaconMember{ID: fmt.Sprintf("ref-%03d", i)}
	}
	var err error
	c.out["pvss.beacon_ns"], c.out["pvss.beacon_allocs"] = timeOp(cellTime, func() {
		if _, e := pvss.RunBeacon(g, members, rng); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	var deal *pvss.Deal
	c.out["pvss.deal_ns"], _ = timeOp(cellTime, func() {
		d, _, e := pvss.NewDeal(g, n, n/2+1, rng)
		if e != nil {
			err = e
			return
		}
		deal = d
	})
	if err != nil {
		return err
	}
	c.out["pvss.verify_share_ns"], _ = timeOp(cellTime, func() {
		if e := deal.VerifyShare(deal.Shares[0]); e != nil {
			err = e
		}
	})
	return err
}

// consensusCells runs Algorithm 3 instances in one committee of size c
// over a bare simnet (HashScheme), then verifies and aggregates the
// decided certificate.
func (c *cells) consensusCells() error {
	scheme := consensus.HashScheme{}
	rng := c.rng()
	size := c.cfg.C
	members := make([]simnet.NodeID, size)
	keys := make([]crypto.KeyPair, size)
	for i := range members {
		members[i] = simnet.NodeID(i)
		keys[i] = crypto.GenerateKeyPair(rng)
	}
	pkOf := func(id simnet.NodeID) crypto.PublicKey { return keys[id].PK }
	net := simnet.New(simnet.DefaultLatency(), c.seed)
	var decided *consensus.Result
	nodes := make([]*consensus.Protocol, size)
	for i := range nodes {
		p := &consensus.Protocol{
			Round: 1, Self: members[i], Leader: members[0], Committee: members,
			Keys: keys[i], PKOf: pkOf, Scheme: scheme,
			OnDecide: func(_ *simnet.Context, res consensus.Result) { decided = &res },
		}
		nodes[i] = p
		net.Register(members[i], func(ctx *simnet.Context, msg simnet.Message) { p.Handle(ctx, msg) })
	}
	var sn uint64
	sent := net.Metrics().Total().Messages
	ns, allocs := timeOp(cellTime, func() {
		sn++
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], sn)
		digest := crypto.H([]byte("bench/instance"), b[:])
		net.After(members[0], 1, func(ctx *simnet.Context) { nodes[0].Propose(ctx, sn, digest, nil, 0) })
		net.RunUntilIdle()
	})
	if decided == nil || decided.SN != sn {
		return fmt.Errorf("instance %d did not decide", sn)
	}
	c.out["consensus.instance_ns"] = ns
	c.out["consensus.instance_allocs"] = allocs
	c.out["consensus.instance_msgs"] = float64(net.Metrics().Total().Messages-sent) / float64(sn)

	var err error
	c.out["consensus.verify_cert_ns"], _ = timeOp(cellTime, func() {
		err = consensus.VerifyCert(scheme, *decided, members, pkOf)
	})
	if err != nil {
		return err
	}
	var agg consensus.AggResult
	c.out["consensus.aggregate_ns"], _ = timeOp(cellTime, func() {
		agg, err = consensus.AggregateResult(scheme, *decided, members)
	})
	if err != nil {
		return err
	}
	c.out["consensus.verify_aggcert_ns"], _ = timeOp(cellTime, func() {
		err = consensus.VerifyAggCert(scheme, agg, members, pkOf)
	})
	return err
}

// copyStore copies every unspent output of src into dst through the
// Store interface alone.
func copyStore(dst, src ledger.Store, m uint64) error {
	for shard := uint64(0); shard < m; shard++ {
		for _, op := range src.OutpointsOfShard(shard, m) {
			out, ok := src.Get(op)
			if !ok {
				return fmt.Errorf("outpoint %s listed but absent", op)
			}
			if err := dst.Add(op, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// entries returns every block the run committed.
func (c *cells) entries() []chain.Entry {
	var out []chain.Entry
	for i := 0; ; i++ {
		e, ok := c.s.Chain().At(i)
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// ledgerCells replay the run's own committed transactions, in chain
// order, into a fresh sharded store holding the genesis state. A block's
// transaction may spend an earlier one's output, so each is validated and
// applied in turn and the two calls are timed apart by one clock reading.
func (c *cells) ledgerCells() error {
	m := uint64(c.cfg.M)
	genesis, err := c.s.Engine().GenesisUTXO()
	if err != nil {
		return err
	}
	blocks := c.entries()
	// replay runs block over fresh copies of the genesis state until
	// cellTime of timed work has accumulated, and returns ns per counted
	// transaction.
	var last *ledger.ShardedStore
	replay := func(block func(st *ledger.ShardedStore, txs []*ledger.Tx) (time.Duration, int, error)) (float64, error) {
		var timed time.Duration
		var n int
		for timed < cellTime {
			st := ledger.NewShardedStore(m)
			if err := copyStore(st, genesis, m); err != nil {
				return 0, err
			}
			before := n
			for _, e := range blocks {
				d, k, err := block(st, e.Txs)
				if err != nil {
					return 0, err
				}
				timed += d
				n += k
			}
			last = st
			if n == before {
				return 0, nil // nothing to time in this run's chain
			}
		}
		return float64(timed.Nanoseconds()) / float64(n), nil
	}

	var applyTime time.Duration
	var applied int
	c.out["ledger.validate_ns_per_tx"], err = replay(func(st *ledger.ShardedStore, txs []*ledger.Tx) (time.Duration, int, error) {
		var validate time.Duration
		for _, tx := range txs {
			start := time.Now()
			_, err := ledger.Validate(tx, st)
			validated := time.Now()
			if err == nil {
				err = st.ApplyTx(tx)
			}
			if err != nil {
				return 0, 0, err
			}
			validate += validated.Sub(start)
			applyTime += time.Since(validated)
		}
		applied += len(txs)
		return validate, len(txs), nil
	})
	if err != nil {
		return err
	}
	if applied > 0 {
		c.out["ledger.apply_ns_per_tx"] = float64(applyTime.Nanoseconds()) / float64(applied)
	}
	c.out["ledger.utxo_len"] = float64(last.Len())

	c.out["ledger.prepare_commit_ns_per_tx"], err = replay(func(st *ledger.ShardedStore, txs []*ledger.Tx) (time.Duration, int, error) {
		var timed time.Duration
		cross := 0
		for _, tx := range txs {
			if !ledger.IsCrossShard(tx, st, m) {
				if err := st.ApplyTx(tx); err != nil {
					return 0, 0, err
				}
				continue
			}
			start := time.Now()
			p, err := st.PrepareTx(tx)
			if err != nil {
				return 0, 0, err
			}
			p.Commit()
			timed += time.Since(start)
			cross++
		}
		return timed, cross, nil
	})
	if err != nil {
		return err
	}

	// Two goroutines apply disjoint halves of each block: writes beside
	// writes on the lock stripes. A transaction whose input the other half
	// has not produced yet fails without effect and is applied afterwards.
	// The one cell that wants a second P: the measured passes run on one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c.out["ledger.contended_apply_ns_per_tx"], err = replay(func(st *ledger.ShardedStore, txs []*ledger.Tx) (time.Duration, int, error) {
		halves := [2][]*ledger.Tx{txs[:len(txs)/2], txs[len(txs)/2:]}
		var deferred [2][]*ledger.Tx
		var wg sync.WaitGroup
		start := time.Now()
		for i := range halves {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, tx := range halves[i] {
					if st.ApplyTx(tx) != nil {
						deferred[i] = append(deferred[i], tx)
					}
				}
			}()
		}
		wg.Wait()
		for _, tx := range append(deferred[0], deferred[1]...) {
			if err := st.ApplyTx(tx); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(start), len(txs), nil
	})
	return err
}

func (c *cells) workloadCell() error {
	gen, err := txgen.New(txgen.Config{
		Users:          2 * c.cfg.TotalNodes(),
		Shards:         uint64(c.cfg.M),
		InitialBalance: 1_000,
		CrossShardFrac: c.cfg.CrossFrac,
		InvalidFrac:    c.cfg.InvalidFrac,
		Seed:           c.seed + 1,
	})
	if err != nil {
		return err
	}
	count := c.cfg.M * c.cfg.TxPerCommittee
	ns, _ := timeOp(cellTime, func() { sink = gen.NextBatch(count) })
	c.out["workload.next_batch_ns_per_tx"] = ns / float64(count)
	return nil
}

func (c *cells) chainCells() error {
	entries := c.entries()
	var err error
	ns, _ := timeOp(cellTime, func() {
		fresh := chain.New()
		for _, e := range entries {
			if _, e := fresh.Append(e.Header.Round, e.Header.Randomness, e.Header.Fees, e.Txs); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	c.out["chain.append_ns_per_block"] = ns / float64(len(entries))
	genesis, err := c.s.Engine().GenesisUTXO()
	if err != nil {
		return err
	}
	ns, _ = timeOp(cellTime, func() {
		if e := c.s.Chain().Verify(genesis); e != nil {
			err = e
		}
	})
	c.out["chain.verify_ns_per_block"] = ns / float64(len(entries))
	return err
}

func (c *cells) reputationCell() error {
	rng := c.rng()
	votes := make([]reputation.VoteVector, c.cfg.C)
	for i := range votes {
		votes[i] = make(reputation.VoteVector, max(c.cfg.TxPerCommittee, 1))
		for k := range votes[i] {
			votes[i][k] = reputation.Vote(rng.Intn(3) - 1)
		}
	}
	decision, err := reputation.DecisionVector(votes, c.cfg.C)
	if err != nil {
		return err
	}
	c.out["reputation.score_all_ns"], _ = timeOp(cellTime, func() {
		sink, err = reputation.ScoreAll(votes, decision)
	})
	return err
}

// wireCells decode and re-encode the audited sample of each tag family.
func (c *cells) wireCells() error {
	rounds := float64(max(len(c.tr.rounds), 1))
	var encodeMs, decodeMs float64
	for _, name := range wireFamilies {
		f := c.tr.families[name]
		var enc, dec float64
		if n := float64(len(f.sample)); n > 0 {
			values := make([]any, len(f.sample))
			var err error
			ns, _ := timeOp(cellTime, func() {
				for i, b := range f.sample {
					v, _, e := wire.Decode(b)
					if e != nil {
						err = e
					}
					values[i] = v
				}
			})
			if err != nil {
				return fmt.Errorf("decoding audited %s message: %w", name, err)
			}
			dec = ns / n
			var buf []byte
			ns, _ = timeOp(cellTime, func() {
				for _, v := range values {
					if buf, err = wire.AppendEncode(buf[:0], v); err != nil {
						return
					}
				}
			})
			if err != nil {
				return fmt.Errorf("encoding audited %s message: %w", name, err)
			}
			enc = ns / n
		}
		c.out["wire.encode_ns_per_msg."+name] = enc
		c.out["wire.decode_ns_per_msg."+name] = dec
		if f.count > 0 {
			c.out["wire.bytes_per_msg."+name] = float64(f.bytes) / float64(f.count)
		}
		perRound := float64(f.count) / rounds
		encodeMs += perRound * enc / 1e6
		decodeMs += perRound * dec / 1e6
	}
	c.out["wire.encode_ms_per_round"] = encodeMs
	c.out["wire.decode_ms_per_round"] = decodeMs
	return nil
}

// simnetCells replay committee-shaped traffic at the workload's m, c and
// |C_R| with handlers that do no protocol work: each leader broadcasts to
// its members, members answer, leaders report to three referees. Once on
// the fault-free executor, once with a loss model installed, which
// selects the buffered executor.
func (c *cells) simnetCells() error {
	deliver := func(faults simnet.Faults) (ns, allocs float64) {
		m, size, ref := c.cfg.M, c.cfg.C, c.cfg.RefSize
		refBase := m * size
		net := simnet.New(simnet.DefaultLatency(), c.seed)
		if c.cfg.Parallelism != 1 {
			net.SetParallelism(c.cfg.Parallelism)
		}
		net.SetFaults(faults)
		for id := 0; id < refBase+ref; id++ {
			net.Register(simnet.NodeID(id), func(ctx *simnet.Context, msg simnet.Message) {
				if msg.Tag == "PROPOSE" {
					ctx.Send(msg.From, "VOTE", nil, 64)
				}
			})
		}
		round := func() {
			for k := 0; k < m; k++ {
				leader := simnet.NodeID(k * size)
				for i := 1; i < size; i++ {
					net.Send(leader, leader+simnet.NodeID(i), "PROPOSE", nil, 128)
				}
				for r := 0; r < 3; r++ {
					net.Send(leader, simnet.NodeID(refBase+(k+r)%ref), "RESULT", nil, 256)
				}
			}
			net.RunUntilIdle()
		}
		for i := 0; i < 3; i++ {
			round() // pools, maps and bucket capacities reach steady state
		}
		sent := net.Metrics().Total().Messages
		rounds := 0
		ns, allocs = timeOp(cellTime, func() { round(); rounds++ })
		perRound := float64(net.Metrics().Total().Messages-sent) / float64(rounds)
		return ns / perRound, allocs / perRound
	}
	c.out["simnet.deliver_ns_per_msg"], c.out["simnet.allocs_per_msg"] = deliver(nil)
	c.out["simnet.deliver_faulted_ns_per_msg"], _ = deliver(simnet.NewLoss(0.02, c.seed))
	return nil
}
