package main

import (
	"context"
	"fmt"
	"io"
	"math"

	"cycledger/internal/analysis"
	"cycledger/internal/baseline"
	"cycledger/internal/protocol"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/sim"
	"cycledger/sim/sweep"
)

// An artefact is one table, figure or claim of the paper's evaluation,
// printed by cycsim -artefact NAME. It is one of three kinds:
//
//   - a measured sweep: grid has axes, and the artefact runs through
//     runSweep, so -sweep-out, -sweep-metrics, -workers and -seeds apply;
//   - a report reader: grid has no axes, and print reads the runs it
//     makes from the resolved base;
//   - an analytic printer: no scenario, and print evaluates closed forms
//     at the paper's parameters.
//
// A measured artefact's base is its scenario overlaid by grid's base;
// -config and the run flags overlay that the way they overlay a scenario.
type artefact struct {
	name  string
	paper string // the table, figure or section it reproduces
	// scenario is the registered scenario a measured artefact starts
	// from; empty for an analytic printer.
	scenario string
	// grid is a {base, axes, seeds} document, the form -sweep-file reads;
	// empty is the scenario as it is.
	grid string
	// metrics are a sweep's columns when -sweep-metrics is not given.
	metrics string
	// print renders a report reader or an analytic printer; cfg is the
	// resolved base, which an analytic printer ignores.
	print func(ctx context.Context, w io.Writer, cfg sim.Config) error
}

// artefacts lists every artefact in the order -list-scenarios prints them.
var artefacts = []artefact{
	{name: "table1", paper: "Table I, protocol comparison", print: printTable1},
	{name: "table2", paper: "Table II, per-phase/role traffic", scenario: "default",
		grid: `{"base": {"rounds": 1}}`, print: printTable2},
	{name: "fig4", paper: "Fig. 4, reward mapping g(x)", print: printFig4},
	{name: "fig5", paper: "Fig. 5, committee failure probability", print: printFig5},
	{name: "partialset", paper: "§V-C partial-set security", print: printPartialSet},
	{name: "epochs", paper: "§II Elastico epoch-failure claim", print: printEpochs},
	{name: "scalability", paper: "§III-D scalability", scenario: "default",
		grid: `{"base": {"rounds": 2},
			"axes": [{"field": "m", "values": [2, 4, 6, 8, 16]}], "seeds": 5}`,
		metrics: "tx_per_round,msgs_per_round,ticks_per_round"},
	{name: "resilience", paper: "resilience under message loss", scenario: "default",
		grid: `{"base": {"rounds": 2},
			"axes": [{"field": "faults.loss", "values": [0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2]}], "seeds": 3}`,
		metrics: "tx_per_round,dropped_per_round,recoveries_per_round,timeouts_per_round,ticks_per_round"},
	// The base carries the adaptive adversary's full strategy set at
	// budget 0, the fault-free baseline; the axes overlay only the arm
	// and the budget.
	{name: "frontier", paper: "resilience frontier, adaptive vs static adversary", scenario: "default",
		grid: `{"base": {"rounds": 3, "faults": {"adaptive":
				{"crash_leaders": true, "gray_top_k": true, "bracket_deadlines": true}}},
			"axes": [{"field": "faults.adaptive.static", "values": [false, true]},
				{"field": "faults.adaptive.budget", "values": [0, 2, 4, 8, 12, 16]}]}`,
		metrics: "tx_per_round,timeouts_per_round,recoveries_per_round,dropped_per_round"},
	{name: "traffic", paper: "§III-B communication complexity (aggregate certs)", scenario: "paper-scale",
		print: printTraffic},
}

func lookupArtefact(name string) (artefact, bool) {
	for _, a := range artefacts {
		if a.name == name {
			return a, true
		}
	}
	return artefact{}, false
}

// analytic reports whether the artefact is a closed form, which no run
// document configures.
func (a artefact) analytic() bool { return a.scenario == "" && a.print != nil }

// sweepGrid resolves a measured artefact's grid document on its scenario.
func (a artefact) sweepGrid() (sweep.Grid, error) {
	scen, ok := sim.Lookup(a.scenario)
	if !ok {
		return sweep.Grid{}, fmt.Errorf("artefact %s: unknown scenario %q", a.name, a.scenario)
	}
	cfg, err := scen.Config()
	if err != nil || a.grid == "" {
		return sweep.Grid{Base: cfg}, err
	}
	return sweep.ParseGrid([]byte(a.grid), cfg)
}

func writeLines(w io.Writer, lines []string) {
	for _, line := range lines {
		fmt.Fprintln(w, line)
	}
}

// printTable1 prints Table I at the paper's parameters: analytic failure
// probabilities and storage, and the qualitative columns.
func printTable1(_ context.Context, w io.Writer, _ sim.Config) error {
	const n, m, c, lambda = 2000, 20, 100, 40
	fmt.Fprintf(w, "Table I — comparison of sharding protocols (n=%d, m=%d, c=%d, λ=%d)\n\n", n, m, c, lambda)
	header := []string{"protocol", "resiliency", "complexity", "storage", "fail_prob", "storage_items", "leader_fault_ok", "incentives", "connection"}
	var rows [][]string
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
	writeLines(w, analysis.FormatTable(header, rows))
	fmt.Fprintln(w, "\nReliable connection channels required:")
	channels := baseline.ConnectionChannels(n, m, c, lambda, 60)
	for _, row := range baseline.TableI() {
		fmt.Fprintf(w, "  %-11s %d\n", row.Name, channels[row.Name])
	}
	return nil
}

func printFig4(_ context.Context, w io.Writer, _ sim.Config) error {
	fmt.Fprintln(w, "x,g(x)")
	for x := -5.0; x <= 20.0001; x += 0.25 {
		fmt.Fprintf(w, "%.2f,%.6f\n", x, reputation.G(x))
	}
	return nil
}

// printFig5 prints the committee failure probability over c for a
// population of 2000 with 666 malicious nodes.
func printFig5(_ context.Context, w io.Writer, _ sim.Config) error {
	const n, t = 2000, 666
	fmt.Fprintln(w, "c,exact_tail,kl_bound,paper_bound_e^-c/12")
	for c := int64(20); c <= 300; c += 10 {
		exact := analysis.RatFloat(analysis.CommitteeFailureProb(n, t, c))
		kl := analysis.KLTailBound(float64(t)/n+1.0/float64(c), c)
		fmt.Fprintf(w, "%d,%.6g,%.6g,%.6g\n", c, exact, kl, analysis.SimplifiedTailBound(c))
	}
	return nil
}

func printPartialSet(_ context.Context, w io.Writer, _ sim.Config) error {
	fmt.Fprintln(w, "lambda,log10_failure,log10_union_m20")
	for lam := int64(5); lam <= 60; lam += 5 {
		p := analysis.PartialSetFailureProb(lam)
		fmt.Fprintf(w, "%d,%.3f,%.3f\n", lam, analysis.RatLog10(p), analysis.RatLog10(analysis.UnionBound(20, p)))
	}
	return nil
}

// printEpochs prints Elastico's failure over consecutive epochs against
// CycLedger's at the paper's parameters (§II).
func printEpochs(_ context.Context, w io.Writer, _ sim.Config) error {
	fmt.Fprintln(w, "epochs,elastico_m16,cycledger_m20_c240")
	cyc := analysis.CycLedgerRoundFailure(2000, 666, 20, 240, 40)
	for e := 1; e <= 12; e++ {
		fmt.Fprintf(w, "%d,%.4f,%.3g\n", e, analysis.ElasticoEpochClaim(e), analysis.EpochFailure(cyc, e))
	}
	return nil
}

// roleTraffic runs cfg at m and 2m (c fixed, so n doubles) and keeps the
// reports, whose per-phase role traffic Table II reads.
func roleTraffic(ctx context.Context, cfg sim.Config) (*sweep.Result, error) {
	g := sweep.Grid{Base: cfg, Axes: []sweep.Axis{{Field: "m", Values: []any{cfg.M, 2 * cfg.M}}}}
	return sweep.Runner{KeepReports: true}.Run(ctx, g)
}

// growth is the log2 ratio of b to a: the scaling exponent when m doubles.
func growth(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return math.NaN()
	}
	return math.Log2(b / a)
}

func printTable2(ctx context.Context, w io.Writer, cfg sim.Config) error {
	res, err := roleTraffic(ctx, cfg)
	if err != nil {
		return err
	}
	rs, rl := res.Cells[0].Reports[0], res.Cells[1].Reports[0]
	cs, cl := res.Points[0].Config, res.Points[1].Config
	fmt.Fprintf(w, "Table II — measured traffic per phase and role (messages sent)\n")
	fmt.Fprintf(w, "small: m=%d c=%d (n=%d)   large: m=%d c=%d (n=%d)\n\n",
		cs.M, cs.C, cs.TotalNodes(), cl.M, cl.C, cl.TotalNodes())
	header := []string{"phase", "role", "msgs_S", "msgs_L", "exp", "bytes_S", "bytes_L", "exp"}
	var rows [][]string
	for ph, phase := range protocol.Phases {
		for r, role := range protocol.TrafficRoles {
			ms := float64(rs.RoleTraffic[ph][r].Messages)
			ml := float64(rl.RoleTraffic[ph][r].Messages)
			bs := float64(rs.RoleTraffic[ph][r].Bytes)
			bl := float64(rl.RoleTraffic[ph][r].Bytes)
			rows = append(rows, []string{
				phase, role,
				fmt.Sprintf("%.0f", ms), fmt.Sprintf("%.0f", ml), fmt.Sprintf("%.2f", growth(ms, ml)),
				fmt.Sprintf("%.0f", bs), fmt.Sprintf("%.0f", bl), fmt.Sprintf("%.2f", growth(bs, bl)),
			})
		}
	}
	writeLines(w, analysis.FormatTable(header, rows))
	fmt.Fprintln(w, "\nexp is the log2 growth when m doubles at fixed c: ≈1 is linear in")
	fmt.Fprintln(w, "n (=mc), ≈2 is quadratic in m (the paper's O(m²)/O(mn) referee rows).")
	return nil
}

// leaderEgress runs one round of cfg with aggregate certificates off or
// on and returns the committee leaders' sent traffic per phase.
func leaderEgress(ctx context.Context, cfg sim.Config, aggregate bool) (out [len(protocol.Phases)]simnet.Counter, err error) {
	s, err := sim.New(sim.FromConfig(cfg), sim.FromJSON(fmt.Appendf(nil, `{"aggregate_certs": %t, "rounds": 1}`, aggregate)))
	if err != nil {
		return out, err
	}
	defer s.Close()
	if _, err := s.Run(ctx); err != nil {
		return out, err
	}
	e := s.Engine()
	for ph := range out {
		out[ph] = e.Net.Metrics().SentByNodes(ph, e.Roster().Leaders)
	}
	return out, nil
}

// printTraffic prints committee-leader egress per phase with per-voter
// and with aggregate certificates: the O(C·sig) → O(log C) reduction the
// aggregate subsystem exists for.
func printTraffic(ctx context.Context, w io.Writer, cfg sim.Config) error {
	plain, err := leaderEgress(ctx, cfg, false)
	if err != nil {
		return err
	}
	agg, err := leaderEgress(ctx, cfg, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Leader egress — per-voter vs aggregate certificates (m=%d, c=%d, λ=%d, n=%d, 1 round)\n\n",
		cfg.M, cfg.C, cfg.Lambda, cfg.TotalNodes())
	header := []string{"phase", "msgs_plain", "msgs_agg", "bytes_plain", "bytes_agg", "factor"}
	var rows [][]string
	var tp, ta simnet.Counter
	for ph, name := range protocol.Phases {
		cp, ca := plain[ph], agg[ph]
		tp.Add(cp)
		ta.Add(ca)
		factor := "-"
		if ca.Bytes > 0 {
			factor = fmt.Sprintf("%.1fx", float64(cp.Bytes)/float64(ca.Bytes))
		}
		rows = append(rows, []string{name,
			fmt.Sprint(cp.Messages), fmt.Sprint(ca.Messages),
			fmt.Sprint(cp.Bytes), fmt.Sprint(ca.Bytes), factor})
	}
	rows = append(rows, []string{"total",
		fmt.Sprint(tp.Messages), fmt.Sprint(ta.Messages),
		fmt.Sprint(tp.Bytes), fmt.Sprint(ta.Bytes),
		fmt.Sprintf("%.1fx", float64(tp.Bytes)/float64(ta.Bytes))})
	writeLines(w, analysis.FormatTable(header, rows))
	fmt.Fprintln(w, "\nCounters sum sent traffic of all committee leaders. Aggregate mode")
	fmt.Fprintln(w, "replaces >C/2 signature lists with one bitmap + proof and routes")
	fmt.Fprintln(w, "committee broadcasts over the binomial dissemination tree, so the")
	fmt.Fprintln(w, "leader's per-phase egress drops from O(C·sig) to O(log C · cert).")
	fmt.Fprintln(w, "Protocol outcomes are byte-identical (see the aggregate test suite).")
	return nil
}
