package sim_test

import (
	"context"
	"fmt"
	"log"
	"sort"

	"cycledger/internal/reputation"
	"cycledger/sim"
)

// Quickstart: run three rounds of CycLedger with default parameters and
// print what happened. This is the smallest end-to-end use of the public
// sim facade — build a run from a document, consume rounds from the
// streaming iterator as they complete.
func Example_quickstart() {
	s, err := sim.New(sim.FromJSON([]byte(`{"rounds": 3}`))) // 4 committees × 16 nodes + 9 referees
	if err != nil {
		log.Fatal(err)
	}
	cfg := s.Config()

	fmt.Printf("CycLedger quickstart: %d nodes, %d committees, %d rounds\n\n",
		s.TotalNodes(), cfg.M, cfg.Rounds)

	var totalTx int
	var totalFees uint64
	for r, err := range s.Rounds(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: included %3d transactions (%d intra-shard, %d cross-shard), fees %d\n",
			r.Round, r.Throughput(), r.IntraIncluded, r.CrossIncluded, r.Fees)
		totalTx += r.Throughput()
		totalFees += r.Fees
	}
	fmt.Printf("\ntotal: %d transactions, %d fee units distributed by reputation\n", totalTx, totalFees)
	fmt.Printf("UTXO set now holds %d outputs worth %d\n",
		s.UTXO().Len(), s.UTXO().TotalValue())
	// Output:
	// CycLedger quickstart: 73 nodes, 4 committees, 3 rounds
	//
	// round 1: included  78 transactions (51 intra-shard, 27 cross-shard), fees 78
	// round 2: included  82 transactions (52 intra-shard, 30 cross-shard), fees 82
	// round 3: included  88 transactions (51 intra-shard, 37 cross-shard), fees 88
	//
	// total: 248 transactions, 248 fee units distributed by reputation
	// UTXO set now holds 393 outputs worth 145752
}

// Cross-shard workload: drive CycLedger with a payment mix dominated by
// cross-shard transactions and show how the inter-committee consensus
// phase (§IV-D) carries them into blocks — the scenario that motivates the
// semi-commitment scheme. The setup is the registered "cross-heavy"
// scenario; only the output loop lives here.
func Example_crossshard() {
	scen, ok := sim.Lookup("cross-heavy")
	if !ok {
		log.Fatal("cross-heavy scenario not registered")
	}
	s, err := scen.New()
	if err != nil {
		log.Fatal(err)
	}
	cfg := s.Config()

	fmt.Printf("cross-shard demo: %d committees, %.0f%% cross-shard payments\n\n",
		cfg.M, cfg.CrossFrac*100)

	reports, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	for _, r := range reports {
		ratio := 0.0
		if r.Throughput() > 0 {
			ratio = float64(r.CrossIncluded) / float64(r.Throughput())
		}
		fmt.Printf("round %d: %3d included, %.0f%% of them cross-shard  (inter-phase traffic: %d msgs)\n",
			r.Round, r.Throughput(), ratio*100, r.PhaseTraffic["inter"].Messages)
	}

	fmt.Println("\nper-phase message share in the last round:")
	last := reports[len(reports)-1]
	for _, phase := range []string{"config", "semicommit", "intra", "inter", "score", "select", "block"} {
		c := last.PhaseTraffic[phase]
		fmt.Printf("  %-11s %7d msgs  %9d bytes\n", phase, c.Messages, c.Bytes)
	}
	// Output:
	// cross-shard demo: 6 committees, 80% cross-shard payments
	//
	// round 1: 161 included, 89% of them cross-shard  (inter-phase traffic: 16438 msgs)
	// round 2: 168 included, 83% of them cross-shard  (inter-phase traffic: 15910 msgs)
	// round 3: 170 included, 82% of them cross-shard  (inter-phase traffic: 16206 msgs)
	//
	// per-phase message share in the last round:
	//   config         1650 msgs     534082 bytes
	//   semicommit      698 msgs     322222 bytes
	//   intra          1812 msgs     429822 bytes
	//   inter         16206 msgs    3023998 bytes
	//   score          1634 msgs     253936 bytes
	//   select         1017 msgs      75132 bytes
	//   block          1808 msgs    2416190 bytes
}

// Fault tolerance: run the protocol over a degraded network and watch it
// absorb the damage. The fault model (the run's Faults field) composes iid
// message loss with node churn that takes out a slice of the population —
// including, sooner or later, a leader seat. An observer streams what the
// protocol does about it: silence watchdogs impeach unreachable leaders
// (§V-D extended beyond provable misbehaviour), phases that cannot reach
// a quorum conclude with timeout verdicts instead of wedging the round,
// and every dropped message is accounted separately from delivered
// traffic.
//
// A second, fault-free run of the same configuration prints the baseline
// for comparison.
func Example_faulttolerance() {
	fmt.Println("--- degraded network: 3% message loss + 15% node churn ---")
	faulty := faultToleranceRun(true)
	var tx, dropped, timeouts, recoveries int
	for _, r := range faulty {
		tx += r.Throughput()
		dropped += int(r.Dropped)
		timeouts += len(r.Timeouts)
		recoveries += len(r.Recoveries)
		fmt.Printf("round %d: tx=%d dropped=%d (%d bytes) timeouts=%v\n",
			r.Round, r.Throughput(), r.Dropped, r.DroppedBytes, r.Timeouts)
	}

	fmt.Println("\n--- same configuration, fault-free baseline ---")
	clean := faultToleranceRun(false)
	var cleanTx int
	for _, r := range clean {
		cleanTx += r.Throughput()
		fmt.Printf("round %d: tx=%d dropped=%d\n", r.Round, r.Throughput(), r.Dropped)
	}

	fmt.Printf("\nfaulty network committed %d tx vs %d fault-free (%d messages lost,\n",
		tx, cleanTx, dropped)
	fmt.Printf("%d timeout verdicts, %d leader recoveries) — degradation, not failure.\n",
		timeouts, recoveries)
	// Output:
	// --- degraded network: 3% message loss + 15% node churn ---
	//   recovery: committee 2 evicted node 11 (silence) → node 15
	//   recovery: committee 1 evicted node 10 (silence) → node 3
	// round 1: tx=82 dropped=620 (175973 bytes) timeouts=[{inter 3} {score 2}]
	// round 2: tx=82 dropped=512 (155968 bytes) timeouts=[]
	// round 3: tx=91 dropped=561 (109352 bytes) timeouts=[]
	//
	// --- same configuration, fault-free baseline ---
	// round 1: tx=84 dropped=0
	// round 2: tx=84 dropped=0
	// round 3: tx=88 dropped=0
	//
	// faulty network committed 255 tx vs 256 fault-free (1693 messages lost,
	// 2 timeout verdicts, 2 leader recoveries) — degradation, not failure.
}

func faultToleranceRun(faulty bool) []*sim.RoundReport {
	cfg := sim.DefaultConfig()
	cfg.Rounds = 3
	cfg.Seed = 5 // a seed whose churn schedule hits leader seats
	if faulty {
		cfg.Faults = &sim.FaultsConfig{
			Loss:  0.03,
			Churn: &sim.ChurnSpec{Frac: 0.15, Period: 500, Downtime: 150},
		}
	}
	s, err := sim.New(sim.FromConfig(cfg), sim.WithObserver(sim.Funcs{
		Recovery: func(ev sim.RecoveryEvent) {
			fmt.Printf("  recovery: committee %d evicted node %d (%s) → node %d\n",
				ev.Committee, ev.Evicted, ev.Kind, ev.Successor)
		},
	}))
	if err != nil {
		log.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return reports
}

// Malicious leaders: corrupt every bootstrap leader seat and let them
// equivocate during intra-committee consensus. The run demonstrates the
// paper's headline security mechanism (§V-D): honest members extract
// signed witnesses, impeach the leaders, the referee committee evicts
// them, partial-set members take over, and the round still produces a
// block. A second run with recovery disabled shows the RapidChain-style
// failure mode for comparison.
//
// Both setups are registered scenarios ("leader-fault" and "no-recovery");
// an observer streams each eviction as the referee committee decides it.
func Example_maliciousleader() {
	fmt.Println("all bootstrap leaders are byzantine (equivocate + conceal cross-shard)")

	fmt.Println("\n--- with CycLedger's recovery procedure ---")
	r := maliciousLeaderRun("leader-fault")
	fmt.Printf("included: %d transactions (%d cross-shard)\n", r.Throughput(), r.CrossIncluded)
	fmt.Printf("recoveries: %d\n", len(r.Recoveries))

	fmt.Println("\n--- recovery disabled (RapidChain-style baseline) ---")
	r2 := maliciousLeaderRun("no-recovery")
	fmt.Printf("included: %d transactions (%d cross-shard), recoveries: %d\n",
		r2.Throughput(), r2.CrossIncluded, len(r2.Recoveries))

	fmt.Println("\nThe recovery procedure keeps the ledger live under fully byzantine leaders;")
	fmt.Println("without it the equivocating committees contribute nothing.")
	// Output:
	// all bootstrap leaders are byzantine (equivocate + conceal cross-shard)
	//
	// --- with CycLedger's recovery procedure ---
	//   live: committee 0 evicting node 9 (equivocation) → node 13
	//   live: committee 1 evicting node 10 (equivocation) → node 14
	//   live: committee 2 evicting node 11 (equivocation) → node 15
	//   live: committee 3 evicting node 12 (equivocation) → node 16
	// included: 83 transactions (43 cross-shard)
	// recoveries: 4
	//
	// --- recovery disabled (RapidChain-style baseline) ---
	// included: 0 transactions (0 cross-shard), recoveries: 0
	//
	// The recovery procedure keeps the ledger live under fully byzantine leaders;
	// without it the equivocating committees contribute nothing.
}

func maliciousLeaderRun(scenario string) *sim.RoundReport {
	scen, ok := sim.Lookup(scenario)
	if !ok {
		log.Fatalf("scenario %q not registered", scenario)
	}
	s, err := scen.New(sim.WithObserver(sim.Funcs{
		Recovery: func(ev sim.RecoveryEvent) {
			fmt.Printf("  live: committee %d evicting node %d (%s) → node %d\n",
				ev.Committee, ev.Evicted, ev.Kind, ev.Successor)
		},
	}))
	if err != nil {
		log.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return reports[0]
}

// Reputation economy: run several rounds with a byzantine voter minority
// and watch the incentive layer (§VII) at work — honest voters accumulate
// reputation and earn fee rewards; inverted voters sink below zero and
// their mapped reward weight g(x) collapses; leaders are re-selected from
// the honest, high-reputation population. The setup is the registered
// "reputation" scenario.
func Example_reputation() {
	scen, ok := sim.Lookup("reputation")
	if !ok {
		log.Fatal("reputation scenario not registered")
	}
	s, err := scen.New()
	if err != nil {
		log.Fatal(err)
	}
	cfg := s.Config()

	reports, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	var honest, byz []float64
	var rewHonest, rewByz uint64
	totalRewards := make(map[string]uint64)
	for _, r := range reports {
		for _, paid := range r.Rewards {
			totalRewards[paid.Name] += paid.Amount
		}
	}
	for id := 0; id < s.TotalNodes(); id++ {
		rep := s.Reputation().Get(s.NameOf(id))
		if s.IsByzantine(id) {
			byz = append(byz, rep)
			rewByz += totalRewards[s.NameOf(id)]
		} else {
			honest = append(honest, rep)
			rewHonest += totalRewards[s.NameOf(id)]
		}
	}

	fmt.Printf("after %d rounds with %.0f%% inverted voters:\n\n", cfg.Rounds, cfg.MaliciousFrac*100)
	fmt.Printf("honest nodes:    mean reputation %+6.2f  (g ≈ %.3f)  total rewards %d\n",
		mean(honest), reputation.G(mean(honest)), rewHonest)
	fmt.Printf("byzantine nodes: mean reputation %+6.2f  (g ≈ %.3f)  total rewards %d\n",
		mean(byz), reputation.G(mean(byz)), rewByz)

	fmt.Println("\ncurrent leaders (selected by top reputation):")
	leaders := s.Leaders()
	sort.Ints(leaders)
	for k, id := range leaders {
		fmt.Printf("  committee %d: %s (reputation %.2f, byzantine=%v)\n",
			k, s.NameOf(id), s.Reputation().Get(s.NameOf(id)), s.IsByzantine(id))
	}
	// Output:
	// after 4 rounds with 20% inverted voters:
	//
	// honest nodes:    mean reputation  +3.83  (g ≈ 2.575)  total rewards 327
	// byzantine nodes: mean reputation  -3.29  (g ≈ 0.037)  total rewards 14
	//
	// current leaders (selected by top reputation):
	//   committee 0: node-0009 (reputation 8.00, byzantine=false)
	//   committee 1: node-0010 (reputation 8.00, byzantine=false)
	//   committee 2: node-0011 (reputation 8.00, byzantine=false)
	//   committee 3: node-0012 (reputation 8.00, byzantine=false)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
