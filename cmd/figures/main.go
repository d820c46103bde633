// Command figures emits the data series behind the paper's figures as CSV.
//
//	go run ./cmd/figures -fig 4            # the reward map g(x)
//	go run ./cmd/figures -fig 5            # committee failure probability
//	go run ./cmd/figures -fig partialset   # (1/3)^λ security curve (§V-C)
//	go run ./cmd/figures -fig throughput   # measured tx/round vs committee count m
//	go run ./cmd/figures -fig resilience   # throughput + drops + timeouts vs message loss
//	go run ./cmd/figures -fig frontier     # adaptive vs static adversary budget frontier
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cycledger/internal/analysis"
	"cycledger/internal/reputation"
	"cycledger/sim"
	"cycledger/sim/sweep"
)

func main() {
	fig := flag.String("fig", "4", "figure to emit: 4, 5, partialset, epochs, throughput, resilience, or frontier")
	n := flag.Int64("n", 2000, "population for fig 5")
	t := flag.Int64("t", 666, "malicious nodes for fig 5")
	rounds := flag.Int("rounds", 2, "rounds per point for the throughput sweep")
	seeds := flag.Int("seeds", 1, "replicate seeds per point for the throughput sweep")
	flag.Parse()

	switch *fig {
	case "4":
		fmt.Println("x,g(x)")
		for x := -5.0; x <= 20.0001; x += 0.25 {
			fmt.Printf("%.2f,%.6f\n", x, reputation.G(x))
		}
	case "5":
		fmt.Println("c,exact_tail,kl_bound,paper_bound_e^-c/12")
		f := float64(*t) / float64(*n)
		for c := int64(20); c <= 300; c += 10 {
			exact := analysis.RatFloat(analysis.CommitteeFailureProb(*n, *t, c))
			kl := analysis.KLTailBound(f+1.0/float64(c), c)
			fmt.Printf("%d,%.6g,%.6g,%.6g\n", c, exact, kl, analysis.SimplifiedTailBound(c))
		}
	case "partialset":
		fmt.Println("lambda,log10_failure,log10_union_m20")
		for lam := int64(5); lam <= 60; lam += 5 {
			p := analysis.PartialSetFailureProb(lam)
			fmt.Printf("%d,%.3f,%.3f\n", lam, analysis.RatLog10(p), analysis.RatLog10(analysis.UnionBound(20, p)))
		}
	case "epochs":
		// §II claim: Elastico's failure over consecutive epochs vs
		// CycLedger's at the paper's parameters.
		fmt.Println("epochs,elastico_m16,cycledger_m20_c240")
		cyc := analysis.CycLedgerRoundFailure(2000, 666, 20, 240, 40)
		for e := 1; e <= 12; e++ {
			fmt.Printf("%d,%.4f,%.3g\n", e, analysis.ElasticoEpochClaim(e), analysis.EpochFailure(cyc, e))
		}
	case "throughput":
		// The scalability property (§III-D): measured throughput grows
		// with the committee count. One sweep over m, seeds replicated,
		// all points running concurrently on the worker pool.
		base := sim.DefaultConfig()
		base.M, base.C, base.Lambda, base.RefSize = 2, 16, 3, 9
		base.Rounds = *rounds
		g := sweep.Grid{
			Base:  base,
			Axes:  []sweep.Axis{{Field: "m", Values: []any{2, 4, 6, 8}}},
			Seeds: *seeds,
		}
		res, err := sweep.Run(context.Background(), g)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		fmt.Println("m,n,tx_per_round,msgs_per_round")
		for _, p := range res.Points {
			fmt.Printf("%d,%d,%.1f,%.0f\n", p.Config.M, p.Config.TotalNodes(),
				p.Stats["tx_per_round"].Mean, p.Stats["msgs_per_round"].Mean)
		}
	case "resilience":
		// Throughput and the round-report resilience counters (drops,
		// beyond-bound deliveries, phase timeouts) as message loss rises —
		// one sweep over the fault model's loss axis.
		base := sim.DefaultConfig()
		base.M, base.C, base.Lambda, base.RefSize = 2, 16, 3, 9
		base.Rounds = *rounds
		g := sweep.Grid{
			Base:  base,
			Axes:  []sweep.Axis{{Field: "faults.loss", Values: []any{0.0, 0.02, 0.05, 0.1, 0.15, 0.2}}},
			Seeds: *seeds,
		}
		res, err := sweep.Run(context.Background(), g)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		fmt.Println("loss,tx_per_round,dropped_per_round,dropped_bytes_per_round,late_per_round,timeouts_per_round")
		for _, p := range res.Points {
			fmt.Printf("%v,%.1f,%.1f,%.0f,%.1f,%.2f\n", p.Labels[0].Value,
				p.Stats["tx_per_round"].Mean, p.Stats["dropped_per_round"].Mean,
				p.Stats["dropped_bytes_per_round"].Mean,
				p.Stats["late_per_round"].Mean, p.Stats["timeouts_per_round"].Mean)
		}
	case "frontier":
		// The resilience frontier (PR 9): throughput, timeout verdicts, and
		// completed recoveries as the adversary budget rises, the reactive
		// planner (crash leaders, gray-fail the reputation top-k, bracket
		// the intra deadline) next to the equal-budget oblivious arm. The
		// base carries the full strategy set at budget 0 — the fault-free
		// baseline — and the axes overlay only the budget and the arm.
		base := sim.DefaultConfig()
		base.Rounds = *rounds
		base.Faults = &sim.FaultsConfig{Adaptive: &sim.AdaptiveSpec{
			CrashLeaders:     true,
			GrayTopK:         true,
			BracketDeadlines: true,
		}}
		g := sweep.Grid{
			Base: base,
			Axes: []sweep.Axis{
				{Field: "faults.adaptive.static", Values: []any{false, true}},
				{Field: "faults.adaptive.budget", Values: []any{0, 2, 4, 8, 12, 16}},
			},
			Seeds: *seeds,
		}
		res, err := sweep.Run(context.Background(), g)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		fmt.Println("arm,budget,tx_per_round,timeouts_per_round,recoveries_per_round,dropped_per_round")
		for _, p := range res.Points {
			arm := "adaptive"
			if p.Labels[0].Value == true {
				arm = "static"
			}
			fmt.Printf("%s,%v,%.1f,%.2f,%.2f,%.1f\n", arm, p.Labels[1].Value,
				p.Stats["tx_per_round"].Mean, p.Stats["timeouts_per_round"].Mean,
				p.Stats["recoveries_per_round"].Mean, p.Stats["dropped_per_round"].Mean)
		}
	default:
		fmt.Fprintln(os.Stderr, "figures: unknown figure", *fig)
		os.Exit(2)
	}
}
