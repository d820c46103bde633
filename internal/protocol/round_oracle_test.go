package protocol

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"cycledger/internal/ledger"
	"cycledger/internal/simnet"
)

// This file is the ledger-level round oracle: a reference round in
// straight-line code, with no messages. From what a round is handed — the
// offered batch, the pre-round UTXO set, the roster, each node's behaviour
// and the pre-round reputation table — it computes what the round must
// commit and what it must pay:
//
//   - each committee's TXdecSET (§IV-C): every online member's vote vector,
//     the strict-majority decision, the decided list;
//   - the cross-shard lists (§IV-D), screened by the receiving leader under
//     §VIII-A;
//   - the block: the certified lists in committee order, validated in
//     sequence, each transaction in the whole post-state or in none of it;
//   - the post-round UTXO set;
//   - each member's Eq. 1 score and every node's reputation delta, the
//     leaders' workload bonus (§VII-A) and the §VII-B punishment of a leader
//     evicted for silence;
//   - the §IV-G fee split.
//
// It shares only the predicate V (ledger.Validate) and the transaction
// model with the engine: the cosine, the decision rule, the punishment and
// the largest-remainder split are written out again here.

// oracleUTXO is a UTXO set as a plain map.
type oracleUTXO map[ledger.OutPoint]ledger.Output

func (u oracleUTXO) Get(op ledger.OutPoint) (ledger.Output, bool) {
	o, ok := u[op]
	return o, ok
}

// apply spends tx's inputs and adds its outputs.
func (u oracleUTXO) apply(tx *ledger.Tx) {
	for _, in := range tx.Inputs {
		delete(u, in)
	}
	id := tx.ID()
	for i, o := range tx.Outputs {
		u[ledger.OutPoint{Tx: id, Index: uint32(i)}] = o
	}
}

// storeContents reads every unspent output of s, shard by shard.
func storeContents(s ledger.Store, m uint64) oracleUTXO {
	u := oracleUTXO{}
	for k := uint64(0); k < m; k++ {
		for _, op := range s.OutpointsOfShard(k, m) {
			o, _ := s.Get(op)
			u[op] = o
		}
	}
	return u
}

// roundInput is what a round is handed, captured when its configuration
// phase starts.
type roundInput struct {
	round      uint64
	m          uint64
	offered    []*ledger.Tx
	pre        oracleUTXO
	leaders    []simnet.NodeID
	partials   [][]simnet.NodeID
	committees [][]simnet.NodeID
	all        []simnet.NodeID
	behavior   []Behavior
	names      []string
	rep        map[string]float64
	chained    bool // ParallelBlockGen
	preScreen  bool // PreScreenCross
}

// captureRound copies e's round inputs; the engine calls it from the
// configuration phase's PhaseStart hook.
func captureRound(e *Engine, round uint64) *roundInput {
	r := e.roster
	in := &roundInput{
		round:     round,
		m:         r.M,
		offered:   slices.Clone(e.work.offered),
		pre:       storeContents(e.utxo, r.M),
		leaders:   slices.Clone(r.Leaders),
		all:       slices.Clone(r.AllNodes()),
		names:     slices.Clone(e.names),
		rep:       e.reput.Snapshot(),
		chained:   e.P.ParallelBlockGen,
		preScreen: e.P.PreScreenCross,
	}
	for k := uint64(0); k < r.M; k++ {
		in.partials = append(in.partials, slices.Clone(r.Partials[k]))
		in.committees = append(in.committees, slices.Clone(r.Committee(k)))
	}
	for _, n := range e.nodes {
		in.behavior = append(in.behavior, n.Behavior)
	}
	return in
}

// shards returns the sorted shard sets tx touches against view: the owner
// shards of its resolvable inputs, of its outputs, and their union.
func shards(tx *ledger.Tx, view ledger.UTXOView, m uint64) (ins, outs, touched []uint64) {
	set := func(s []uint64, k uint64) []uint64 {
		if !slices.Contains(s, k) {
			s = append(s, k)
			slices.Sort(s)
		}
		return s
	}
	for _, in := range tx.Inputs {
		if o, ok := view.Get(in); ok {
			ins = set(ins, ledger.ShardOf(o.Owner, m))
			touched = set(touched, ledger.ShardOf(o.Owner, m))
		}
	}
	for _, o := range tx.Outputs {
		outs = set(outs, ledger.ShardOf(o.Owner, m))
		touched = set(touched, ledger.ShardOf(o.Owner, m))
	}
	return ins, outs, touched
}

// roundOutcome is what the oracle says a round commits and pays.
type roundOutcome struct {
	committed  []*ledger.Tx
	intra      int
	cross      int
	rejected   int
	fees       uint64
	screened   int
	post       oracleUTXO
	rep        map[string]float64
	rewards    map[string]uint64
	recoveries []RecoveryEvent
}

// cosine is Eq. 1: the cosine of a vote vector and the decision, 0 when
// either is the zero vector.
func cosine(vote, decision []int) float64 {
	var dot, nv, nd float64
	for i := range vote {
		dot += float64(vote[i] * decision[i])
		nv += float64(vote[i] * vote[i])
		nd += float64(decision[i] * decision[i])
	}
	if nv == 0 || nd == 0 {
		return 0
	}
	return dot / (math.Sqrt(nv) * math.Sqrt(nd))
}

// punished is §VII-B: a positive reputation drops to its cube root, any
// other falls by one.
func punished(rep float64) float64 {
	if rep > 0 {
		return math.Cbrt(rep)
	}
	return rep - 1
}

// feeSplit is §IV-G: fees in proportion to g(reputation), Eq. 2, floored,
// with the remainder handed out one unit at a time by largest fractional
// part, the lower index first on a tie.
func feeSplit(reps []float64, fees uint64) []uint64 {
	out := make([]uint64, len(reps))
	weights := make([]float64, len(reps))
	var sum float64
	for i, r := range reps {
		if r <= 0 {
			weights[i] = math.Exp(r)
		} else {
			weights[i] = 1 + math.Log(r+1)
		}
		sum += weights[i]
	}
	if len(reps) == 0 || sum == 0 || fees == 0 {
		return out
	}
	parts := make([]float64, len(reps))
	left := fees
	for i, w := range weights {
		exact := float64(fees) * w / sum
		out[i] = uint64(math.Floor(exact))
		parts[i] = exact - math.Floor(exact)
		left -= out[i]
	}
	order := make([]int, len(reps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return parts[order[a]] > parts[order[b]] })
	for i := uint64(0); i < left; i++ {
		out[order[i%uint64(len(order))]]++
	}
	return out
}

// verdicts is one member's honest verdict on a list: +1 for a transaction
// valid against the pre-round set, -1 otherwise; chained, against the
// pre-round set with the list's earlier valid transactions applied.
func (in *roundInput) verdicts(txs []*ledger.Tx) []int {
	view := in.pre
	if in.chained {
		view = maps.Clone(in.pre)
	}
	out := make([]int, len(txs))
	for i, tx := range txs {
		out[i] = -1
		if _, err := ledger.Validate(tx, view); err == nil {
			out[i] = 1
			if in.chained {
				view.apply(tx)
			}
		}
	}
	return out
}

// expect runs the reference round. It models honest leaders, members of
// any vote strategy, and leaders offline from the round's start (evicted
// for silence, and their committee led by the lowest-ID partial member);
// no other deviation.
func (in *roundInput) expect(t *testing.T) roundOutcome {
	t.Helper()
	for id, b := range in.behavior {
		if b.EquivocateIntra || b.ForgeSemiCommit || b.ConcealCross || b.CensorAll || b.SuppressScore {
			t.Fatalf("node %d: behaviour %+v is outside the oracle's model", id, b)
		}
	}
	out := roundOutcome{rep: maps.Clone(in.rep), rewards: map[string]uint64{}}

	// §V-D: a leader offline from the start is evicted for silence and
	// punished before any score of the round is added.
	acting := slices.Clone(in.leaders)
	for k := range acting {
		partials := slices.Clone(in.partials[k])
		for in.behavior[acting[k]].Offline && len(partials) > 0 {
			next := slices.Min(partials)
			partials = slices.DeleteFunc(partials, func(id simnet.NodeID) bool { return id == next })
			out.recoveries = append(out.recoveries, RecoveryEvent{
				Round: in.round, Committee: uint64(k), Evicted: acting[k], Successor: next, Kind: "silence",
			})
			name := in.names[acting[k]]
			out.rep[name] = punished(out.rep[name])
			acting[k] = next
		}
	}

	// Routing: an intra transaction goes to its one shard's committee, a
	// cross one from its first input shard to the first other shard.
	intra := make([][]*ledger.Tx, in.m)
	cross := make([][][]*ledger.Tx, in.m)
	for i := range cross {
		cross[i] = make([][]*ledger.Tx, in.m)
	}
	isCross := map[ledger.TxID]bool{}
	for _, tx := range in.offered {
		ins, _, touched := shards(tx, in.pre, in.m)
		if len(touched) <= 1 {
			k := uint64(0)
			if len(touched) == 1 {
				k = touched[0]
			}
			intra[k] = append(intra[k], tx)
			continue
		}
		isCross[tx.ID()] = true
		i := touched[0]
		if len(ins) > 0 {
			i = ins[0]
		}
		j := touched[0]
		if j == i {
			j = touched[1]
		}
		cross[i][j] = append(cross[i][j], tx)
	}

	// §IV-C: every online member votes on its committee's list; a
	// transaction is decided Yes on more than c/2 Yes votes. The acting
	// leader grades every voter by Eq. 1, C_R adds the scores, and the
	// leader earns its bonus.
	var candidates []*ledger.Tx
	for k := uint64(0); k < in.m; k++ {
		list := intra[k]
		members := in.committees[k]
		honest := in.verdicts(list)
		votes := map[simnet.NodeID][]int{}
		for _, id := range members {
			b := in.behavior[id]
			if b.Offline {
				continue
			}
			v := make([]int, len(list))
			for i := range v {
				switch b.Vote {
				case VoteHonest:
					v[i] = honest[i]
				case VoteInvert:
					v[i] = -honest[i]
				case VoteYes:
					v[i] = 1
				}
			}
			votes[id] = v
		}
		if len(votes) == 0 {
			continue
		}
		decision := make([]int, len(list))
		for i, tx := range list {
			yes := 0
			for _, v := range votes {
				if v[i] == 1 {
					yes++
				}
			}
			decision[i] = -1
			if 2*yes > len(members) {
				decision[i] = 1
				candidates = append(candidates, tx)
			}
		}
		for id, v := range votes {
			out.rep[in.names[id]] += cosine(v, decision)
		}
		out.rep[in.names[acting[k]]]++
	}

	// §IV-D and §VIII-A: a cross list travels whole, or, pre-screened, as
	// the transactions its receiving leader finds valid on their own.
	for i := uint64(0); i < in.m; i++ {
		for j := uint64(0); j < in.m; j++ {
			list := cross[i][j]
			if in.preScreen {
				var kept []*ledger.Tx
				for _, tx := range list {
					if _, err := ledger.Validate(tx, in.pre); err == nil {
						kept = append(kept, tx)
					}
				}
				out.screened += len(list) - len(kept)
				list = kept
			}
			candidates = append(candidates, list...)
		}
	}

	// §IV-G: the block is the candidates, once each, validated in order
	// against the pre-round set with the earlier ones applied.
	out.post = maps.Clone(in.pre)
	seen := map[ledger.TxID]bool{}
	for _, tx := range candidates {
		if seen[tx.ID()] {
			continue
		}
		seen[tx.ID()] = true
		fee, err := ledger.Validate(tx, out.post)
		if err != nil {
			continue
		}
		out.post.apply(tx)
		out.committed = append(out.committed, tx)
		out.fees += fee
		if isCross[tx.ID()] {
			out.cross++
		} else {
			out.intra++
		}
	}
	out.rejected = len(in.offered) - len(out.committed)

	names := make([]string, len(in.all))
	for i, id := range in.all {
		names[i] = in.names[id]
	}
	sort.Strings(names)
	reps := make([]float64, len(names))
	for i, name := range names {
		reps[i] = out.rep[name]
	}
	for i, amount := range feeSplit(reps, out.fees) {
		if amount > 0 {
			out.rewards[names[i]] = amount
		}
	}
	return out
}

// checkLedger asserts what holds of any round, faults or not: the block
// holds offered transactions that validate in order against the pre-round
// set; the post-round store is the pre-round set with exactly those
// applied, so each cross-shard transaction is in every shard's effect or
// in none; and the report counts them.
func (in *roundInput) checkLedger(t *testing.T, e *Engine, report *RoundReport) []*ledger.Tx {
	t.Helper()
	entry, ok := e.chain.At(int(in.round) - 1)
	if !ok {
		t.Fatalf("round %d: no block", in.round)
	}
	offered := map[ledger.TxID]bool{}
	for _, tx := range in.offered {
		offered[tx.ID()] = true
	}
	work := maps.Clone(in.pre)
	var fees uint64
	for _, tx := range entry.Txs {
		if !offered[tx.ID()] {
			t.Fatalf("round %d: committed %s was never offered", in.round, short(tx))
		}
		fee, err := ledger.Validate(tx, work)
		if err != nil {
			t.Fatalf("round %d: committed %s is invalid in block order: %v", in.round, short(tx), err)
		}
		work.apply(tx)
		fees += fee
	}
	post := storeContents(e.utxo, in.m)
	if !maps.Equal(post, work) {
		t.Fatalf("round %d: post-round store (%d outputs) is not the pre-round set with the block applied (%d)",
			in.round, len(post), len(work))
	}
	// Atomicity, on the engine's store: every output of an offered
	// transaction exists — in the store, or spent by a later transaction
	// of the block — or none does, and all exist exactly when it committed.
	committed := map[ledger.TxID]bool{}
	spent := map[ledger.OutPoint]bool{}
	for _, tx := range entry.Txs {
		committed[tx.ID()] = true
		for _, op := range tx.Inputs {
			spent[op] = true
		}
	}
	for _, tx := range in.offered {
		made := 0
		for i := range tx.Outputs {
			op := ledger.OutPoint{Tx: tx.ID(), Index: uint32(i)}
			if _, ok := post[op]; ok || spent[op] {
				made++
			}
		}
		if made != 0 && made != len(tx.Outputs) || (made != 0) != committed[tx.ID()] {
			t.Fatalf("round %d: %s made %d of %d outputs, committed %v",
				in.round, short(tx), made, len(tx.Outputs), committed[tx.ID()])
		}
	}
	if got := report.Throughput(); got != len(entry.Txs) {
		t.Fatalf("round %d: report includes %d, block holds %d", in.round, got, len(entry.Txs))
	}
	if report.Fees != fees || entry.Header.Fees != fees {
		t.Fatalf("round %d: fees report %d, header %d, block's transactions %d", in.round, report.Fees, entry.Header.Fees, fees)
	}
	if report.Rejected != len(in.offered)-len(entry.Txs) {
		t.Fatalf("round %d: rejected %d of %d offered with %d committed", in.round, report.Rejected, len(in.offered), len(entry.Txs))
	}
	return entry.Txs
}

// oracleRun runs doc over DefaultParams at seed and hands each round's
// input, report and engine to check.
func oracleRun(t *testing.T, doc string, seed int64, check func(*roundInput, *RoundReport, *Engine)) {
	t.Helper()
	p := DefaultParams()
	if err := json.Unmarshal([]byte(doc), &p); err != nil {
		t.Fatal(err)
	}
	p.Seed = seed
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	var in *roundInput
	e.SetHooks(Hooks{PhaseStart: func(round uint64, phase string) {
		if phase == "config" {
			in = captureRound(e, round)
		}
	}})
	for r := 0; r < p.Rounds; r++ {
		report, err := e.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		check(in, report, e)
	}
}

// TestRoundOracle holds the engine to the reference round. On every
// fault-free configuration — the scenarios' workloads and topologies,
// vote-inverting, lazy and yes-voting minorities, and leaders offline from
// the start — the engine's report, block, store and reputation table must
// equal the oracle's exactly, over two seeds. Under network faults and
// leader attacks the oracle cannot know which messages arrive, so only
// what holds of any round is asserted: the block is valid, offered, and
// applied whole.
func TestRoundOracle(t *testing.T) {
	exact := []struct{ name, doc string }{
		{"default", `{"rounds": 2}`},
		{"mixed-workload", `{"rounds": 2, "cross_frac": 0.5, "invalid_frac": 0.1}`},
		{"dos-prescreen", `{"rounds": 2, "tx_per_committee": 40, "cross_frac": 0.6, "invalid_frac": 0.5, "pre_screen_cross": true}`},
		{"parallel-blockgen", `{"rounds": 2, "tx_per_committee": 40, "parallel_block_gen": true}`},
		{"cross-heavy", `{"rounds": 2, "m": 6, "c": 16, "lambda": 3, "ref_size": 9, "tx_per_committee": 40, "cross_frac": 0.8}`},
		{"small", `{"rounds": 2, "m": 2, "c": 6, "lambda": 1, "ref_size": 3, "tx_per_committee": 6, "cross_frac": 0.25}`},
		{"invert", `{"rounds": 2, "malicious_frac": 0.2, "behavior": "invert"}`},
		{"lazy", `{"rounds": 2, "malicious_frac": 0.2, "behavior": "lazy"}`},
		{"yes", `{"rounds": 2, "malicious_frac": 0.2, "behavior": "yes", "invalid_frac": 0.2}`},
		{"offline-leaders", `{"rounds": 2, "malicious_frac": 0.06, "behavior": "offline", "corrupt_leaders": true}`},
		{"modes", `{"rounds": 2, "aggregate_certs": true, "pipelined": true, "parallelism": 4, "transport": "live"}`},
	}
	faulted := []struct{ name, doc string }{
		{"lossy", `{"rounds": 2, "faults": {"loss": 0.05}}`},
		{"partition-heal", `{"rounds": 2, "faults": {"partition": {"split": 0.5, "heal_tick": 250}}}`},
		{"churn", `{"rounds": 2, "faults": {"churn": {"frac": 0.15, "period": 500, "downtime": 150}}}`},
		{"gray-failure", `{"rounds": 2, "faults": {"gray": {"frac": 0.1}}}`},
		{"targeted-leaders", `{"rounds": 2, "faults": {"adaptive": {"budget": 4, "crash_leaders": true}}}`},
		{"leader-fault", `{"rounds": 1, "tx_per_committee": 30, "cross_frac": 0.5, "malicious_frac": 0.06, "behavior": "equivocate,conceal", "corrupt_leaders": true}`},
		{"no-recovery", `{"rounds": 1, "tx_per_committee": 30, "cross_frac": 0.5, "malicious_frac": 0.06, "behavior": "equivocate,conceal", "corrupt_leaders": true, "disable_recovery": true}`},
		{"byzantine", `{"rounds": 2, "malicious_frac": 0.2, "behavior": "equivocate,conceal", "corrupt_leaders": true}`},
	}
	for _, seed := range []int64{1, 2} {
		for _, row := range exact {
			t.Run(fmt.Sprintf("%s/seed-%d", row.name, seed), func(t *testing.T) {
				t.Parallel()
				oracleRun(t, row.doc, seed, func(in *roundInput, report *RoundReport, e *Engine) {
					want := in.expect(t)
					block := in.checkLedger(t, e, report)
					ids := func(txs []*ledger.Tx) []ledger.TxID {
						out := make([]ledger.TxID, len(txs))
						for i, tx := range txs {
							out[i] = tx.ID()
						}
						return out
					}
					if !slices.Equal(ids(block), ids(want.committed)) {
						t.Fatalf("round %d: block holds %d transactions, oracle commits %d (or another order)",
							in.round, len(block), len(want.committed))
					}
					got := [...]int{report.IntraIncluded, report.CrossIncluded, report.Rejected, report.Screened}
					if exp := [...]int{want.intra, want.cross, want.rejected, want.screened}; got != exp {
						t.Fatalf("round %d: (intra, cross, rejected, screened) = %v, oracle %v", in.round, got, exp)
					}
					if report.Fees != want.fees {
						t.Fatalf("round %d: fees %d, oracle %d", in.round, report.Fees, want.fees)
					}
					if !maps.Equal(storeContents(e.utxo, in.m), want.post) {
						t.Fatalf("round %d: post-round store differs from the oracle's", in.round)
					}
					if rep := e.reput.Snapshot(); !maps.Equal(rep, want.rep) {
						for _, name := range slices.Sorted(maps.Keys(want.rep)) {
							if rep[name] != want.rep[name] {
								t.Errorf("round %d: %s has reputation %v, oracle %v", in.round, name, rep[name], want.rep[name])
							}
						}
						t.Fatalf("round %d: reputation table (%d names) differs from the oracle's (%d)", in.round, len(rep), len(want.rep))
					}
					if paid := paidList(want.rewards); !slices.Equal(report.Rewards, paid) {
						t.Fatalf("round %d: rewards %v, oracle %v", in.round, report.Rewards, paid)
					}
					if !slices.Equal(report.Recoveries, want.recoveries) {
						t.Fatalf("round %d: recoveries %v, oracle %v", in.round, report.Recoveries, want.recoveries)
					}
				})
			})
		}
		for _, row := range faulted {
			t.Run(fmt.Sprintf("%s/seed-%d", row.name, seed), func(t *testing.T) {
				t.Parallel()
				oracleRun(t, row.doc, seed, func(in *roundInput, report *RoundReport, e *Engine) {
					in.checkLedger(t, e, report)
				})
			})
		}
	}
}

// short names a transaction in a failure message.
func short(tx *ledger.Tx) string {
	id := tx.ID()
	return fmt.Sprintf("%x", id[:4])
}
