package protocol

import (
	"fmt"
	"math/rand"

	"cycledger/internal/chain"
	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/pvss"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/transport"
	"cycledger/internal/workload"
)

// RecoveryEvent records one completed leader re-selection.
type RecoveryEvent struct {
	Round     uint64
	Committee uint64
	Evicted   simnet.NodeID
	Successor simnet.NodeID
	Kind      string
}

// Hooks are optional callbacks fired as a round progresses, the engine's
// half of the streaming observation API (the sim facade adapts them to its
// Observer interface). Every callback runs synchronously, in order, on the
// goroutine that calls RunRound, whatever Params.Pipelined says.
type Hooks struct {
	// PhaseStart fires when a network phase (config, semicommit, intra,
	// inter, score, select, block) begins driving traffic.
	PhaseStart func(round uint64, phase string)
	// Recovery fires for each decided leader eviction as it is folded
	// into the roster, before the round's report is finalised.
	Recovery func(RecoveryEvent)
}

// SetHooks installs progress callbacks. Call it before Run/RunRound; the
// engine reads the struct without synchronisation once rounds start.
func (e *Engine) SetHooks(h Hooks) { e.hooks = h }

// PhaseTimeout records a committee that could not conclude a phase with a
// quorum within its synchrony bound: the expected certified artifact never
// reached the referee committee, so the phase concluded with a timeout
// verdict for that committee and the round carried on without its
// contribution.
type PhaseTimeout struct {
	Phase     string
	Committee uint64
}

// RoundReport summarises one protocol round.
type RoundReport struct {
	Round         uint64
	IntraIncluded int
	CrossIncluded int
	Rejected      int
	Fees          uint64
	Recoveries    []RecoveryEvent
	Participants  int
	// Duration is the round's simulated latency: the sum of all phase
	// spans, or with Params.Pipelined the critical path of the §IV
	// overlapped schedule (see pipelinedDuration).
	Duration       simnet.Time
	Messages       uint64
	Bytes          uint64
	PhaseTraffic   map[string]simnet.Counter // phase name → totals
	RoleTraffic    RoleTraffic               // Table II: phase → role → totals
	Rewards        RewardList                // the block's paid list: non-zero fee shares, ascending by name
	BlockDelivered int                       // nodes that received the block
	Block          crypto.Digest             // hash of the header the round appended to the chain
	Screened       int                       // cross-shard txs dropped by §VIII-A pre-screening

	// Fault-model observability. Dropped and Late are zero on a network
	// that loses and lags nothing, and PhaseDropped is nil in any round
	// that dropped nothing; Timeouts is computed on every run — a
	// byzantine-quiet committee (e.g. an offline leader with recovery
	// disabled) records timeout verdicts even on a fault-free network.
	Dropped      uint64         // messages lost in flight or to crashed nodes
	DroppedBytes uint64         // bytes of the dropped messages
	Late         uint64         // messages delivered beyond their synchrony bound
	Timeouts     []PhaseTimeout // phases concluded by timeout, in phase order
	PhaseDropped *PhaseCounters // phase → lost traffic (nil when the round dropped nothing)
}

// Throughput returns included transactions per round.
func (r *RoundReport) Throughput() int { return r.IntraIncluded + r.CrossIncluded }

// Engine runs the full protocol over the one network it builds: the
// deterministic simulator, carrying payloads itself by default or — with
// Params.Transport "live" — as frames of the wire codec, through the live
// carrier.
type Engine struct {
	P    Params
	Net  *simnet.Network
	live *transport.Live // nil on the simulator
	pki  *consensus.PKI  // P.Scheme resolved and every node's public key; each node holds it too

	rng   *rand.Rand
	names []string
	nodes []*Node

	reput  *reputation.Ledger
	utxo   ledger.Store
	gen    *workload.Generator
	group  *pvss.Group
	chain  *chain.Chain
	lat    simnet.Latency
	roster *Roster

	reports []*RoundReport

	// Per-round state that outlives the stage that made it; a stage's
	// other results are handed to the next as values (RunRound).
	work       *routedWork              // this round's routed intra and cross lists
	stageSpans [len(Phases)]simnet.Time // per-network-stage virtual spans
	prevBlock  simnet.Time              // previous round's block span (cross-round overlap)
	hooks      Hooks                    // optional progress callbacks (SetHooks)
	echoes     echoSets                 // this round's verified echoes, which every node's view points to

	// adversary, when non-nil, is the reactive planner re-targeting its
	// fault budget at each round boundary (see adversary.go).
	adversary *adversaryPlanner
}

// nodeDown reports whether a node is unreachable right now: explicitly
// byzantine-offline, or crashed per the fault model's schedule.
func (e *Engine) nodeDown(id simnet.NodeID) bool {
	i := nodeIndex(id, len(e.nodes))
	if i < 0 {
		return true
	}
	return e.nodes[i].Behavior.Offline || e.Net.Down(id)
}

// NewEngine builds the node population, genesis state, and the round-1
// roster (in a real deployment round 1's key members come from a bootstrap
// block; here the engine plays that block's role). It resolves p's names
// once: the engine signs and verifies with the named scheme, and transport
// "live" installs the live carrier with the wire codec.
func NewEngine(p Params) (*Engine, error) {
	return newEngine(p, transports[p.Transport])
}

// newEngine is NewEngine with the live carrier's codec given; nil runs the
// simulator alone. Tests hand an instrumented codec in here.
func newEngine(p Params, codec transport.Codec) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		P:      p,
		rng:    rand.New(rand.NewSource(p.Seed)),
		reput:  reputation.NewLedger(),
		echoes: echoSets{sets: make(map[simnet.NodeID]*consensus.VerifiedEchoes)},
		group:  pvss.DefaultGroup(),
		chain:  chain.New(),
	}
	e.lat = simnet.DefaultLatency()
	e.lat.Classify = func(from, to simnet.NodeID) simnet.LinkClass {
		if e.roster == nil {
			return simnet.LinkIntra
		}
		return e.roster.linkClass(from, to)
	}
	e.Net = simnet.New(e.lat, p.Seed)
	if codec != nil {
		e.live = transport.NewLive(codec, e.Net)
	}
	if p.Parallelism != 1 {
		e.Net.SetParallelism(p.Parallelism)
	}
	// The adaptive spec compiles to an initially-empty plan, stacked last,
	// that the planner writes at round boundaries.
	model, plan := p.Faults.Build(p.TotalNodes(), p.Seed)
	if plan != nil {
		e.adversary = newAdversaryPlanner(*p.Faults.Adaptive, plan, p.TotalNodes(), e.lat.Gamma, p.Seed)
	}
	e.Net.SetFaults(model)

	// Workload and genesis first: every node's view holds the ledger.
	n := p.TotalNodes()
	gen, err := workload.New(workload.Config{
		Users:          2 * n,
		Shards:         uint64(p.M),
		InitialBalance: 1_000,
		CrossShardFrac: p.CrossFrac,
		InvalidFrac:    p.InvalidFrac,
		Seed:           p.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	e.gen = gen
	if e.utxo, err = e.GenesisUTXO(); err != nil {
		return nil, err
	}
	pks := make([]crypto.PublicKey, n)
	e.pki = consensus.NewPKI(schemes[p.Scheme], pks) // pks is filled as the keys are drawn
	e.names = make([]string, n)
	e.nodes = make([]*Node, n)
	v := view{P: &e.P, lat: e.lat, utxo: e.utxo, echoes: &e.echoes}
	v.lat.Classify = nil // a node reads the bounds; the link classifier reads the engine's roster
	for i := 0; i < n; i++ {
		e.names[i] = fmt.Sprintf("node-%04d", i)
		node := &Node{ID: simnet.NodeID(i), Keys: crypto.GenerateKeyPair(e.rng), pki: e.pki, view: v}
		pks[i] = node.Keys.PK
		e.nodes[i] = node
		e.Net.Register(node.ID, node.Handle)
	}
	e.assignByzantine()
	e.roster = e.bootstrapRoster()
	e.roster.index()
	return e, nil
}

// assignByzantine marks MaliciousFrac of nodes byzantine. With
// CorruptLeaders the budget is spent on the bootstrap leader seats first
// (the adversary is mildly adaptive and leader seats are public one round
// ahead, §III-C).
func (e *Engine) assignByzantine() {
	total := len(e.nodes)
	budget := int(e.P.MaliciousFrac * float64(total))
	if budget == 0 {
		return
	}
	var order []int
	if e.P.CorruptLeaders {
		// Bootstrap leaders occupy indices [RefSize, RefSize+M).
		for i := e.P.RefSize; i < e.P.RefSize+e.P.M && len(order) < budget; i++ {
			order = append(order, i)
		}
	}
	perm := e.rng.Perm(total)
	for _, i := range perm {
		if len(order) >= budget {
			break
		}
		dup := false
		for _, j := range order {
			if i == j {
				dup = true
				break
			}
		}
		if !dup {
			order = append(order, i)
		}
	}
	for _, i := range order {
		e.nodes[i].Behavior = e.P.ByzantineBehavior
	}
}

// bootstrapRoster builds round 1's roster, under the genesis randomness:
// referee first, then leaders, then partial sets round-robin; everyone else
// joins as a common member via sortition (resolved in the configuration
// phase).
func (e *Engine) bootstrapRoster() *Roster {
	r := newRoster(1, crypto.H([]byte("cycledger/genesis"), u64(uint64(e.P.Seed))), uint64(e.P.M))
	for i := 0; i < e.P.RefSize; i++ {
		r.Referee = append(r.Referee, simnet.NodeID(i))
	}
	idx := e.P.RefSize
	for k := 0; k < e.P.M; k++ {
		r.Leaders[k] = simnet.NodeID(idx)
		idx++
	}
	for j := 0; j < e.P.Lambda; j++ {
		for k := 0; k < e.P.M; k++ {
			r.Partials[k] = append(r.Partials[k], simnet.NodeID(idx))
			idx++
		}
	}
	e.assignCommons(r, idx)
	return r
}

// assignCommons places the remaining population via Algorithm 1 sortition.
func (e *Engine) assignCommons(r *Roster, from int) {
	for i := from; i < len(e.nodes); i++ {
		e.seatCommon(r, simnet.NodeID(i))
	}
}

// seatCommon draws a node's common-member seat on r by Algorithm 1 and
// keeps the result on the node, whose configuration phase presents that
// proof rather than signing the same input again.
func (e *Engine) seatCommon(r *Roster, id simnet.NodeID) {
	n := e.nodes[id]
	n.seat = committee.Sortition(n.Keys, r.Round, r.Randomness, r.M)
	r.Commons[n.seat.CommitteeID] = append(r.Commons[n.seat.CommitteeID], id)
}

// nodeIndex bounds-checks a (possibly wire-supplied) NodeID against a
// population of n nodes: it returns the slice index for a valid ID and -1
// for anything negative or past the end. Every engine lookup keyed by a
// NodeID goes through this one guard.
func nodeIndex(id simnet.NodeID, n int) int {
	if id < 0 || int(id) >= n {
		return -1
	}
	return int(id)
}

// NameOf returns a node's stable identity string, or "" for an ID outside
// the population.
func (e *Engine) NameOf(id simnet.NodeID) string {
	i := nodeIndex(id, len(e.names))
	if i < 0 {
		return ""
	}
	return e.names[i]
}

// IsByzantine reports whether the node was assigned a byzantine behaviour.
func (e *Engine) IsByzantine(id simnet.NodeID) bool {
	i := nodeIndex(id, len(e.nodes))
	if i < 0 {
		return false
	}
	return e.nodes[i].Behavior.IsByzantine()
}

// Reputation exposes the ledger (read-only use in examples and tests).
func (e *Engine) Reputation() *reputation.Ledger { return e.reput }

// UTXO exposes the ledger state: a ShardedStore with m lock stripes, so
// committees working disjoint outpoint sets contend on ~1/m of the locks
// instead of one global mutex. Stripes are keyed by outpoint hash
// (StripeOf), not by owner shard — O(1) location without an owner index.
func (e *Engine) UTXO() ledger.Store { return e.utxo }

// Roster exposes the current round's roster.
func (e *Engine) Roster() *Roster { return e.roster }

// Reports returns the per-round reports collected so far.
func (e *Engine) Reports() []*RoundReport { return e.reports }

// Chain returns the verified block store accumulated across rounds.
func (e *Engine) Chain() *chain.Chain { return e.chain }

// GenesisUTXO builds the genesis UTXO set, striped like the live ledger:
// the engine's starting ledger, and a fresh copy for external chain
// re-verification.
func (e *Engine) GenesisUTXO() (*ledger.ShardedStore, error) {
	s := ledger.NewShardedStore(uint64(e.P.M))
	for _, tx := range e.gen.Genesis() {
		id := tx.ID()
		for i, o := range tx.Outputs {
			if err := s.Add(ledger.OutPoint{Tx: id, Index: uint32(i)}, o); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Phase is one of a round's seven network phases, numbered in round order.
// It is the phase's traffic label (simnet.Metrics.SetPhase) and the index
// of its virtual span, and each is a row of Table II.
type Phase int

const (
	PhaseConfig Phase = iota
	PhaseSemiCommit
	PhaseIntra
	PhaseInter
	PhaseScore
	PhaseSelect
	PhaseBlock
)

// Phases are the phases' names, indexed by Phase: the keys of a report's
// traffic maps and what Hooks.PhaseStart is handed.
var Phases = [...]string{"config", "semicommit", "intra", "inter", "score", "select", "block"}

// String is the phase's name, Phases[p].
func (p Phase) String() string { return Phases[p] }

// Run executes the configured number of rounds.
func (e *Engine) Run() ([]*RoundReport, error) {
	for i := 0; i < e.P.Rounds; i++ {
		if _, err := e.RunRound(); err != nil {
			return e.reports, err
		}
	}
	return e.reports, nil
}

// RunRound executes one full protocol round and returns its report.
//
// The round's stages run in order on the calling goroutine. The network
// stages config → semicommit → intra → inter → score → select → block
// drive the simulator, each through net, which records its virtual-time
// span; the CPU stages (workload routing, PoW election work, the ledger;
// pipeline.go) consume no virtual time and run where their inputs are
// final. Each stage hands its result to the next as a value: the PoW
// solutions to select, and select's next roster and the ledger's valid
// list and fees to block; the roster is installed once the block is
// appended. Params.Pipelined changes only how the spans add up into
// Duration (pipelinedDuration), never what runs. A live
// send or delivery that failed (transport.Live.Err) ends the round with
// that error at the next stage boundary: the network stages after it are
// skipped, and the ledger does not move.
func (e *Engine) RunRound() (*RoundReport, error) {
	report := &RoundReport{Round: e.roster.Round}
	// The network's per-phase accounting holds one round: the previous
	// round's, read by its collectTraffic, stays readable until here, and
	// this round's phases reuse its tables.
	e.Net.Metrics().ResetPhases()
	// The reactive adversary re-plans first: the roster is fixed, no
	// traffic has moved, the network is idle — the snapshot point where
	// appending fault windows cannot race in-flight evaluation. It reads
	// the previous round's stage spans before they are reset below.
	if e.adversary != nil {
		e.adversary.replan(e.AdversaryView())
	}
	start := e.Net.Now()
	dropStart := e.Net.Metrics().DroppedTotal()
	lateStart := e.Net.Metrics().LateTotal()

	e.stageSpans = [len(Phases)]simnet.Time{}
	var liveErr error
	net := func(ph Phase, run func()) {
		if liveErr != nil {
			return
		}
		e.Net.Metrics().SetPhase(int(ph))
		if e.hooks.PhaseStart != nil {
			e.hooks.PhaseStart(e.roster.Round, ph.String())
		}
		from := e.Net.Now()
		run()
		e.stageSpans[ph] = e.Net.Now() - from
		if e.live != nil && e.live.Err() != nil {
			liveErr = fmt.Errorf("stage %s: %w", ph, e.live.Err())
		}
	}
	e.stageWorkload()
	net(PhaseConfig, e.phaseConfig)
	net(PhaseSemiCommit, func() { e.phaseSemiCommit(report) })
	sols := e.stagePow()
	net(PhaseIntra, func() { e.phaseIntra(report) })
	net(PhaseInter, func() { e.phaseInter(report) })
	net(PhaseScore, func() { e.phaseScore(report) })
	var next *Roster
	net(PhaseSelect, func() { next = e.phaseSelect(report, sols) })
	if liveErr != nil {
		return nil, liveErr
	}
	valid, fees, err := e.stageLedger(report)
	if err != nil {
		return nil, fmt.Errorf("stage ledger: %w", err)
	}
	net(PhaseBlock, func() { err = e.phaseBlock(report, next, valid, fees) })
	if liveErr != nil {
		return nil, liveErr
	}
	if err != nil {
		return nil, fmt.Errorf("stage block: %w", err)
	}
	// The block is appended and phaseBlock has read the delivery verdicts:
	// nothing reads a node's round state, the echo sets its consensus
	// endpoints share, or the round's routed work after this point, so they
	// are released here, not at the next round's reset.
	// A leader's §VIII-A drops are the last thing read from its round state.
	for _, n := range e.nodes {
		report.Screened += n.screened
		clear(n.cons)
		n.consBuf = n.cons[:0]
		n.roundState = roundState{}
	}
	clear(e.echoes.sets)
	e.work = nil

	if e.P.Pipelined {
		report.Duration = e.pipelinedDuration()
	} else {
		report.Duration = e.Net.Now() - start
	}
	dropEnd := e.Net.Metrics().DroppedTotal()
	lateEnd := e.Net.Metrics().LateTotal()
	report.Dropped = dropEnd.Messages - dropStart.Messages
	report.DroppedBytes = dropEnd.Bytes - dropStart.Bytes
	report.Late = lateEnd.Messages - lateStart.Messages
	e.collectTraffic(report)
	e.reports = append(e.reports, report)

	// Advance to the next round.
	e.roster = next
	e.roster.index()
	return report, nil
}

// collectTraffic aggregates the round's per-phase, per-role counters for
// Table II, and the lost traffic per phase of a round that lost any. It
// writes the report's arrays in place, so what it allocates does not
// depend on the roster's size.
func (e *Engine) collectTraffic(report *RoundReport) {
	roles := [len(TrafficRoles)][]simnet.NodeID{
		e.roster.CommonsOfAll(),
		e.roster.AllKeyMembers(),
		e.roster.Referee,
	}
	m := e.Net.Metrics()
	report.PhaseTraffic = make(map[string]simnet.Counter, len(Phases))
	if report.Dropped > 0 {
		report.PhaseDropped = new(PhaseCounters)
	}
	for ph, name := range Phases {
		var total simnet.Counter
		for r, ids := range roles {
			c := m.SentByNodes(ph, ids)
			report.RoleTraffic[ph][r] = c
			total.Add(c)
		}
		report.PhaseTraffic[name] = total
		report.Messages += total.Messages
		report.Bytes += total.Bytes
		if report.PhaseDropped != nil {
			// Lost traffic per phase — the resilience table's raw
			// material. Never part of the Table II sent counters.
			report.PhaseDropped[ph] = m.PhaseDropped(ph)
		}
	}
}
