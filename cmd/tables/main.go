// Command tables regenerates Table I and Table II of the CycLedger paper,
// plus this repo's resilience table (throughput under network faults).
//
//	go run ./cmd/tables -table 1
//	go run ./cmd/tables -table 2
//	go run ./cmd/tables -table resilience
//	go run ./cmd/tables -table traffic
//
// Table I is analytic (failure probabilities, storage, qualitative
// columns). Table II is measured: the tool runs full protocol rounds at
// two scales — concurrently, through the sim/sweep engine — and prints
// per-phase, per-role traffic together with the observed scaling exponent
// against the paper's complexity class. The resilience table sweeps the
// fault model's loss axis and reports throughput, dropped traffic,
// recoveries, and timeout verdicts per loss rate.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"cycledger/internal/analysis"
	"cycledger/internal/baseline"
	"cycledger/internal/simnet"
	"cycledger/sim"
	"cycledger/sim/sweep"
)

func main() {
	table := flag.String("table", "1", "table to print (1, 2, resilience, or traffic)")
	n := flag.Int64("n", 2000, "network size for Table I")
	m := flag.Int64("m", 20, "committee count")
	c := flag.Int64("c", 100, "committee size")
	lambda := flag.Int64("lambda", 40, "partial set size")
	seeds := flag.Int("seeds", 3, "replicates per point for the resilience table")
	flag.Parse()

	switch *table {
	case "1":
		printTable1(*n, *m, *c, *lambda)
	case "2":
		printTable2()
	case "resilience":
		printResilience(*seeds)
	case "traffic":
		printTraffic()
	default:
		fmt.Fprintln(os.Stderr, "tables: unknown table", *table)
		os.Exit(2)
	}
}

func printTable1(n, m, c, lambda int64) {
	fmt.Printf("Table I — comparison of sharding protocols (n=%d, m=%d, c=%d, λ=%d)\n\n", n, m, c, lambda)
	header := []string{"protocol", "resiliency", "complexity", "storage", "fail_prob", "storage_items", "leader_fault_ok", "incentives", "connection"}
	rows := make([][]string, 0, 4)
	channels := baseline.ConnectionChannels(n, m, c, lambda, 60)
	for _, row := range baseline.TableI() {
		rows = append(rows, []string{
			row.Name, row.Resiliency, row.Complexity, row.Storage,
			fmt.Sprintf("%.3g", row.FailProb(m, c, lambda)),
			fmt.Sprintf("%.1f", row.StorageItems(n, m, c)),
			fmt.Sprintf("%v", row.LeaderFaultOK),
			fmt.Sprintf("%v", row.Incentives),
			row.ConnectionBurden,
		})
	}
	for _, line := range analysis.FormatTable(header, rows) {
		fmt.Println(line)
	}
	fmt.Println("\nReliable connection channels required:")
	for _, row := range baseline.TableI() {
		fmt.Printf("  %-11s %d\n", row.Name, channels[row.Name])
	}
}

func growth(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return math.NaN()
	}
	return math.Log2(b / a)
}

func printTable2() {
	small := sim.DefaultConfig()
	small.Rounds = 1

	// One grid, two scales: doubling m at fixed c doubles n. The sweep
	// engine runs both cells concurrently.
	g := sweep.Grid{
		Base: small,
		Axes: []sweep.Axis{{Field: "m", Values: []any{small.M, 2 * small.M}}},
	}
	// KeepReports: this table reads the raw per-phase role-traffic
	// matrices, not just the folded metrics.
	res, err := sweep.Runner{KeepReports: true}.Run(context.Background(), g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	rs := res.Cells[0].Reports[0]
	rl := res.Cells[1].Reports[0]
	cs, cl := res.Points[0].Config, res.Points[1].Config

	fmt.Printf("Table II — measured traffic per phase and role (messages sent)\n")
	fmt.Printf("small: m=%d c=%d (n=%d)   large: m=%d c=%d (n=%d)\n\n",
		cs.M, cs.C, cs.TotalNodes(), cl.M, cl.C, cl.TotalNodes())
	header := []string{"phase", "role", "msgs_S", "msgs_L", "exp", "bytes_S", "bytes_L", "exp"}
	var rows [][]string
	for _, phase := range []string{"config", "semicommit", "intra", "inter", "score", "select", "block"} {
		for _, role := range []string{"common", "key", "referee"} {
			ms := float64(rs.RoleTraffic[phase][role].Messages)
			ml := float64(rl.RoleTraffic[phase][role].Messages)
			bs := float64(rs.RoleTraffic[phase][role].Bytes)
			bl := float64(rl.RoleTraffic[phase][role].Bytes)
			rows = append(rows, []string{
				phase, role,
				fmt.Sprintf("%.0f", ms), fmt.Sprintf("%.0f", ml), fmt.Sprintf("%.2f", growth(ms, ml)),
				fmt.Sprintf("%.0f", bs), fmt.Sprintf("%.0f", bl), fmt.Sprintf("%.2f", growth(bs, bl)),
			})
		}
	}
	for _, line := range analysis.FormatTable(header, rows) {
		fmt.Println(line)
	}
	fmt.Println("\nexp is the log2 growth when m doubles at fixed c: ≈1 is linear in")
	fmt.Println("n (=mc), ≈2 is quadratic in m (the paper's O(m²)/O(mn) referee rows).")
}

// printTraffic runs the paper-scale topology once with per-voter
// certificates and once with aggregate certificates + tree dissemination,
// and prints committee-leader egress per phase — the O(C·sig) → O(log C)
// reduction the aggregate subsystem exists for.
func printTraffic() {
	phases := []string{"config", "semicommit", "intra", "inter", "score", "select", "block"}
	scen, _ := sim.Lookup("paper-scale")
	run := func(aggregate bool) map[string]simnet.Counter {
		s, err := scen.New(sim.FromJSON(fmt.Appendf(nil, `{"aggregate_certs": %t, "rounds": 1}`, aggregate)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		defer s.Close()
		if _, err := s.Run(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		e := s.Engine()
		m := e.Net.Metrics()
		out := make(map[string]simnet.Counter, len(phases))
		for _, ph := range phases {
			out[ph] = m.SentByNodes(ph, e.Roster().Leaders)
		}
		return out
	}

	cfg, err := scen.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	fmt.Printf("Leader egress — per-voter vs aggregate certificates (m=%d, c=%d, λ=%d, n=%d, 1 round)\n\n",
		cfg.M, cfg.C, cfg.Lambda, cfg.TotalNodes())
	plain := run(false)
	agg := run(true)

	header := []string{"phase", "msgs_plain", "msgs_agg", "bytes_plain", "bytes_agg", "factor"}
	var rows [][]string
	var tp, ta simnet.Counter
	for _, ph := range phases {
		cp, ca := plain[ph], agg[ph]
		tp.Add(cp)
		ta.Add(ca)
		factor := "-"
		if ca.Bytes > 0 {
			factor = fmt.Sprintf("%.1fx", float64(cp.Bytes)/float64(ca.Bytes))
		}
		rows = append(rows, []string{
			ph,
			fmt.Sprintf("%d", cp.Messages), fmt.Sprintf("%d", ca.Messages),
			fmt.Sprintf("%d", cp.Bytes), fmt.Sprintf("%d", ca.Bytes),
			factor,
		})
	}
	rows = append(rows, []string{
		"total",
		fmt.Sprintf("%d", tp.Messages), fmt.Sprintf("%d", ta.Messages),
		fmt.Sprintf("%d", tp.Bytes), fmt.Sprintf("%d", ta.Bytes),
		fmt.Sprintf("%.1fx", float64(tp.Bytes)/float64(ta.Bytes)),
	})
	for _, line := range analysis.FormatTable(header, rows) {
		fmt.Println(line)
	}
	fmt.Println("\nCounters sum sent traffic of all committee leaders. Aggregate mode")
	fmt.Println("replaces >C/2 signature lists with one bitmap + proof and routes")
	fmt.Println("committee broadcasts over the binomial dissemination tree, so the")
	fmt.Println("leader's per-phase egress drops from O(C·sig) to O(log C · cert).")
	fmt.Println("Protocol outcomes are byte-identical (see the aggregate test suite).")
}

// printResilience sweeps the fault model's loss axis over the default
// topology and renders throughput vs degradation — the fault counterpart
// of the scalability sweep. All cells run concurrently on the sweep pool.
func printResilience(seeds int) {
	base := sim.DefaultConfig()
	base.Rounds = 2
	g := sweep.Grid{
		Base:  base,
		Axes:  []sweep.Axis{{Field: "faults.loss", Values: []any{0.0, 0.01, 0.02, 0.05, 0.1}}},
		Seeds: seeds,
	}
	res, err := sweep.Run(context.Background(), g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	fmt.Printf("Resilience — throughput under iid message loss (m=%d, c=%d, %d rounds × %d seeds per point)\n\n",
		base.M, base.C, base.Rounds, seeds)
	lines, err := sweep.Table(res,
		"tx_per_round", "dropped_per_round", "recoveries_per_round", "timeouts_per_round", "ticks_per_round")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	for _, line := range lines {
		fmt.Println(line)
	}
	fmt.Println("\ndropped = messages lost in flight (sender still charged; never counted")
	fmt.Println("as delivered); timeouts = committees whose phase concluded without a")
	fmt.Println("quorum within its synchrony bound. Scenario counterparts: lossy,")
	fmt.Println("partition-heal, churn (cycsim -list-scenarios).")
}
