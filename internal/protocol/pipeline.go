package protocol

import (
	"fmt"
	"sync"

	"cycledger/internal/ledger"
	"cycledger/internal/pow"
	"cycledger/internal/simnet"
)

// A stage is one node of the round's execution graph: a named unit of work
// plus the names of the stages whose outputs it consumes. Stages that
// drive the simulated network (phase* methods) must form a chain through
// their dependencies — the simnet event loop is a shared resource — while
// CPU-bound stages may overlap anything they have no data edge to.
type stage struct {
	name string
	deps []string
	run  func() error
}

// runStages executes the graph. Sequential mode runs the stages in slice
// order (the caller lists them topologically), reproducing the seed
// engine's behaviour. Pipelined mode launches every stage on its own
// goroutine gated on its dependencies, so independent stages overlap in
// wall-clock time; because each stage's inputs are fixed before it starts,
// the results are identical in both modes and at any parallelism level.
func runStages(stages []stage, pipelined bool) error {
	if !pipelined {
		for _, s := range stages {
			if err := s.run(); err != nil {
				return fmt.Errorf("stage %s: %w", s.name, err)
			}
		}
		return nil
	}
	type result struct {
		done chan struct{}
		err  error
	}
	results := make(map[string]*result, len(stages))
	for _, s := range stages {
		results[s.name] = &result{done: make(chan struct{})}
	}
	var wg sync.WaitGroup
	for _, s := range stages {
		s := s
		res := results[s.name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(res.done)
			for _, dep := range s.deps {
				d, ok := results[dep]
				if !ok {
					res.err = fmt.Errorf("stage %s: unknown dependency %q", s.name, dep)
					return
				}
				<-d.done
				if d.err != nil {
					res.err = d.err // propagate without running
					return
				}
			}
			if err := s.run(); err != nil {
				res.err = fmt.Errorf("stage %s: %w", s.name, err)
			}
		}()
	}
	wg.Wait()
	for _, s := range stages {
		if err := results[s.name].err; err != nil {
			return err
		}
	}
	return nil
}

// roundStages builds one round's stage graph.
//
//	workload ──────────────┐
//	config → semicommit → intra → inter ─┬→ score → select ──┬→ certify
//	pow ────────────────────────(select)─┘                   │
//	                            assemble ─┬──────────────────┘
//	                                      └→ ledger ─┬─(certify)
//	                                                 └→ prefetch
//
// Network stages (config…certify) chain through their deps; the CPU
// stages overlap them: workload routing and the PoW election work run
// under the early phases, block assembly and the ledger apply run under
// reputation/selection, and the next round's batch is prefetched while
// the block is certified and propagated.
//
// Network stages additionally record their virtual-time spans, from which
// pipelinedDuration computes the simulated latency of the overlapped
// schedule (see that function for the causality argument).
func (e *Engine) roundStages(report *RoundReport) []stage {
	net := func(name string, run func()) func() error {
		return func() error {
			from := e.Net.Now()
			run()
			e.stageSpans[name] = e.Net.Now() - from
			return nil
		}
	}
	e.stageSpans = make(map[string]simnet.Time)
	stages := []stage{
		{name: "workload", run: func() error { e.stageWorkload(); return nil }},
		{name: "config", run: net("config", e.phaseConfig)},
		{name: "semicommit", deps: []string{"config"},
			run: net("semicommit", func() { e.phaseSemiCommit(report) })},
		{name: "pow", run: func() error { e.stagePow(); return nil }},
		{name: "intra", deps: []string{"semicommit", "workload"},
			run: net("intra", func() { e.phaseIntra(report) })},
		{name: "inter", deps: []string{"intra"},
			run: net("inter", func() { e.phaseInter(report) })},
		{name: "score", deps: []string{"inter"},
			run: net("score", func() { e.phaseScore(report) })},
		{name: "assemble", deps: []string{"inter"},
			run: func() error { return e.stageAssemble(report) }},
		{name: "select", deps: []string{"score", "pow"},
			run: net("select", func() { e.phaseSelect(report) })},
		{name: "ledger", deps: []string{"assemble"},
			run: func() error { return e.stageLedger(report) }},
		// certify also waits for the ledger apply so a failed apply aborts
		// the round before the block is certified and appended — the same
		// error semantics as the sequential order. The apply is pure map
		// work; the overlap that matters (prefetch ∥ certify) is kept.
		{name: "certify", deps: []string{"select", "assemble", "ledger"},
			run: func() error {
				from := e.Net.Now()
				err := e.phaseBlock(report)
				e.stageSpans["certify"] = e.Net.Now() - from
				return err
			}},
	}
	if e.P.Pipelined {
		stages = append(stages, stage{name: "prefetch", deps: []string{"ledger"},
			run: func() error { e.stagePrefetch(); return nil }})
	}
	return stages
}

// pipelinedDuration models the round latency of the §IV overlapped
// schedule as the critical path through the stage graph's virtual spans.
//
// The simulator executes network stages back to back (their event sets
// must not share the queue for per-phase accounting), but two of them are
// causally independent of the serial consensus chain, so a deployment —
// and a discrete-event schedule that interleaved their events — would run
// them concurrently:
//
//   - The selection stage's traffic (participation-PoW submissions and the
//     C_R randomness beacon) touches only referee bookkeeping that nothing
//     in the intra/inter/score chain reads; only the final roster ranking
//     consumes the score results, and that computation is instantaneous in
//     virtual time. The election track therefore overlaps the processing
//     track, and the round pays max() of the two, not their sum.
//   - Round r+1's configuration and semi-commitment exchange depend on the
//     roster elected in round r's selection stage, not on round r's block,
//     so they overlap the previous block's certification/propagation tail;
//     the overlap is credited against this round (prevCertify).
//
// CPU stages consume no virtual time. The result is deterministic: it is
// derived purely from per-stage virtual spans.
func (e *Engine) pipelinedDuration() simnet.Time {
	s := e.stageSpans
	processing := s["intra"] + s["inter"] + s["score"]
	election := s["select"]
	dur := s["config"] + s["semicommit"] + maxTime(processing, election) + s["certify"]
	if overlap := minTime(s["config"]+s["semicommit"], e.prevCertify); overlap > 0 {
		dur -= overlap
	}
	e.prevCertify = s["certify"]
	return dur
}

func maxTime(a, b simnet.Time) simnet.Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b simnet.Time) simnet.Time {
	if a < b {
		return a
	}
	return b
}

// powEntry is one node's participation-puzzle outcome.
type powEntry struct {
	ok  bool
	sol pow.Solution
}

// stagePow performs the §IV-F election legwork: every online node solves
// the next round's participation puzzle. The puzzle depends only on the
// round number and the current randomness, both fixed when the round
// opens, so this CPU-heavy work overlaps the consensus phases instead of
// serialising behind them — the election half of the paper's pipeline.
// Solutions are submitted on the network during the selection phase.
// In pipelined mode the solving fans out over the configured worker pool;
// either way the solutions are identical (the search is deterministic).
func (e *Engine) stagePow() {
	puzzle := e.powPuzzle()
	e.powSols = make([]powEntry, len(e.nodes))
	solve := func(i int) {
		n := e.nodes[i]
		if n.Behavior.Offline {
			return
		}
		sol, _, err := pow.Solve(puzzle, n.Keys.PK, uint64(n.ID)<<32, 1<<22)
		if err != nil {
			return
		}
		e.powSols[i] = powEntry{ok: true, sol: sol}
	}
	workers := 1
	if e.P.Pipelined {
		workers = e.effectiveParallelism()
	}
	if workers <= 1 {
		for i := range e.nodes {
			solve(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, len(e.nodes))
	for i := range e.nodes {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				solve(i)
			}
		}()
	}
	wg.Wait()
}

// pendingBlock carries the assembled-but-uncertified block state from the
// assemble stage to the ledger and certify stages.
type pendingBlock struct {
	valid       []*ledger.Tx
	fees        uint64
	crossBefore map[ledger.TxID]bool
}

// stageAssemble collects the certified committee results from C_R's view,
// de-duplicates them, and validates the candidate set against the current
// ledger (cross-shard double spends across paths die here). It is pure
// CPU over state that is final once the inter phase drains, so it overlaps
// the reputation and selection phases.
func (e *Engine) stageAssemble(report *RoundReport) error {
	// C_R's joint view: a certified result may live on any referee member
	// (one crashed mid-phase misses messages its peers recorded), so the
	// candidate set is the union across members via refereeRecord — on
	// fault-free runs exactly the first online member's view. This CPU
	// stage may overlap the score network stage, but refereeRecord reads
	// only node maps (never the simnet clock or churn schedule), and the
	// crIntra/crInter maps are final once the inter phase — this stage's
	// dependency — has drained.
	var candidates []*ledger.Tx
	seen := make(map[ledger.TxID]bool)
	add := func(txs []*ledger.Tx) {
		for _, tx := range txs {
			id := tx.ID()
			if !seen[id] {
				seen[id] = true
				candidates = append(candidates, tx)
			}
		}
	}
	for k := uint64(0); k < e.roster.M; k++ {
		if msg := refereeRecord(e, func(n *Node) *IntraResultMsg { return n.crIntra[k] }); msg != nil {
			if payload, ok := msg.Result.Payload.(IntraPayload); ok {
				add(payload.Txs)
			}
		}
	}
	for from := uint64(0); from < e.roster.M; from++ {
		for to := uint64(0); to < e.roster.M; to++ {
			key := interKey(from, to)
			if msg := refereeRecord(e, func(n *Node) *InterResultMsg { return n.crInter[key] }); msg != nil {
				if payload, ok := msg.Result.Payload.(InterPayload); ok {
					add(payload.Txs)
				}
			}
		}
	}

	crossBefore := make(map[ledger.TxID]bool)
	for _, tx := range candidates {
		if ledger.IsCrossShard(tx, e.utxo, e.roster.M) {
			crossBefore[tx.ID()] = true
		}
	}
	valid, fees, _ := ledger.ValidateBatch(candidates, e.utxo)
	e.pending = &pendingBlock{valid: valid, fees: fees, crossBefore: crossBefore}
	return nil
}

// stageLedger applies the validated set to the sharded store and settles
// the workload bookkeeping. ShardedStore.ApplyTx locks only the lock
// stripes a transaction's outpoints hash to — via the two-phase
// prepare/commit when they straddle stripes — so application is atomic
// even while other stages run concurrently.
func (e *Engine) stageLedger(report *RoundReport) error {
	p := e.pending
	included := make(map[ledger.TxID]bool, len(p.valid))
	for _, tx := range p.valid {
		id := tx.ID()
		if p.crossBefore[id] {
			report.CrossIncluded++
		} else {
			report.IntraIncluded++
		}
		included[id] = true
		if err := e.utxo.ApplyTx(tx); err != nil {
			return fmt.Errorf("protocol: applying validated tx: %w", err)
		}
	}
	report.Fees = p.fees
	for _, tx := range e.work.offered {
		if !included[tx.ID()] {
			report.Rejected++
			e.gen.Reject(tx)
		}
	}
	return nil
}
