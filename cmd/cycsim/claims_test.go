package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"cycledger/internal/protocol"
	"cycledger/internal/simnet"
	"cycledger/sim"
	"cycledger/sim/sweep"
)

// A claim is one row of EXPERIMENTS.md's "Paper artefact ↔ command"
// table: what the command prints, and the test that fails if it moves.
// The headline sits beside its check, so a quoted number cannot change
// without its assertion.
type claim struct {
	// name is an artefact or a registered scenario, which gives the row's
	// paper anchor and command; any other row sets paper and command.
	name, paper, command string
	headline             string
	// pinnedBy names the existing test that pins the headline, for a
	// row without a check of its own.
	pinnedBy string
	check    func(t *testing.T)
}

var claims = []claim{
	{name: "table1",
		headline: "CycLedger & RapidChain fail ≈ 4.81e-3 at (m=20, c=100, λ=40); Elastico/OmniLedger saturate at 1",
		pinnedBy: "`TestTableIFailureOrdering` (baseline)"},
	{name: "table2",
		headline: "inter-phase `common` and `key` messages grow with exponent ≈ 1.7 (1.69, 1.67) as m doubles; every other non-zero common/key row ≈ 1",
		check:    checkTable2},
	{name: "fig4",
		headline: "g(0) = 1, g(−5) < 0.01, g(e−1) = 2; strictly increasing",
		pinnedBy: "`TestGProperties` (reputation)"},
	{name: "fig5",
		headline: "exact tail at c=240 ≈ 8.5e-9, 4× the paper's bound e^{−c/12} ≈ 2.06e-9",
		pinnedBy: "`TestCommitteeFailurePaperSpotValue` (analysis)"},
	{name: "partialset",
		headline: "(1/3)^40 ≈ 8.2e-20 (log10 ≈ −19.1); the union bound over m=20 stays below 2e-18 (log10 ≈ −17.8)",
		pinnedBy: "`TestPartialSetFailurePaperValues` (analysis)"},
	{name: "epochs",
		headline: "Elastico ≈ 0.91 over 6 epochs; CycLedger below 1e-3 even over 1000 epochs",
		pinnedBy: "`TestElasticoEpochClaim` (analysis)"},
	{name: "scalability",
		headline: "tx/round rises at every step of m: 46.5 → 80 → 117 → 167 over m ∈ {2,4,6,8} at `-seeds 1` (±5 %; 5-seed sample below)",
		check:    checkScalability},
	{name: "pipeline", paper: "§IV pipelined rounds",
		command:  "`go run ./cmd/cycsim -sweep \"pipelined=false,true\" -seeds 3`",
		headline: "identical tx/round; ticks/round 598.9 → 421.2 (pipelined ≤ 0.8 × sequential)",
		pinnedBy: "`TestVirtualTimePinned` (protocol; exact ticks at m = 4 and 8)"},
	{name: "leader-fault",
		headline: "4 equivocating leaders evicted mid-round; 83 tx still committed",
		check:    checkLeaderFault},
	{name: "no-recovery",
		headline: "same adversary, 0 tx committed (120 rejected) — the liveness gap Table I claims",
		check:    checkNoRecovery},
	{name: "dos-prescreen",
		headline: "29–39 invalid cross-shard txs dropped before packaging in every round",
		check:    checkDoSPrescreen},
	{name: "reputation",
		headline: "the vote-inverting minority ends below the honest nodes' mean reputation",
		pinnedBy: "`TestInvertedVotersLoseReputation` (protocol)"},
	{name: "paper-scale",
		headline: "n=2000 round completes (≈ 9 s per round on a two-core Xeon; use `-rounds 1`)",
		pinnedBy: "`TestScenarioGolden/paper-scale` (sim, `CYCLEDGER_PAPER_SCALE=1`); the time is a *finding*: it depends on the host"},
	{name: "resilience",
		headline: "tx/round flat at 82.3 through 5 % iid loss (±1 %); the cost surfaces as drops and ticks (table below)",
		check:    checkResilience},
	{name: "frontier",
		headline: "at equal budget the adaptive arm commits fewer tx and forces more timeouts than the static arm (table below)",
		pinnedBy: "`TestAdaptiveDegradesMoreThanStatic` (protocol)"},
	{name: "churn",
		headline: "15 % churn drops traffic yet every run commits; crashed leaders are evicted by silence watchdogs",
		pinnedBy: "`TestFaultScenariosExerciseFaults/churn` (sim), `TestRecoveryMatrix` (protocol)"},
	{name: "traffic",
		headline: "paper-scale leader egress drops 4.3× overall, 13.6× in the block phase (table below); 2.1× and 13.1× at m=4",
		check:    checkTraffic},
}

// TestClaims runs one subtest per row. A row with a check runs it at
// the artefact's reduced grid; any other row names its pinning test, and
// an artefact among them is printed once, so its command keeps working.
func TestClaims(t *testing.T) {
	named := map[string]bool{}
	for _, c := range claims {
		named[c.name] = true
		t.Run(c.name, func(t *testing.T) {
			if c.check != nil {
				c.check(t)
				return
			}
			if a, ok := lookupArtefact(c.name); ok {
				if out := render(t, a); out == "" {
					t.Fatalf("artefact %s printed nothing", a.name)
				}
			}
			t.Logf("pinned by %s", c.pinnedBy)
		})
	}
	for _, a := range artefacts {
		if !named[a.name] {
			t.Errorf("artefact %s has no claim", a.name)
		}
	}
}

// render prints an artefact the way cycsim -artefact does, without flags.
func render(t *testing.T, a artefact) string {
	t.Helper()
	ctx := context.Background()
	var buf bytes.Buffer
	var err error
	if a.analytic() {
		err = a.print(ctx, &buf, sim.Config{})
	} else if g := artefactGrid(t, a.name, ""); a.print != nil {
		err = a.print(ctx, &buf, g.Base)
	} else {
		err = runSweep(ctx, &buf, g, 0, "table", a.metrics)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// artefactGrid returns the named artefact's grid with overlay applied to
// its base, as -config would.
func artefactGrid(t *testing.T, name, overlay string) sweep.Grid {
	t.Helper()
	a, ok := lookupArtefact(name)
	if !ok {
		t.Fatalf("no artefact %s", name)
	}
	g, err := a.sweepGrid()
	if err == nil && overlay != "" {
		g.Base, err = sim.Resolve(sim.FromConfig(g.Base), sim.FromJSON([]byte(overlay)))
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runScenario(t *testing.T, name string) []*sim.RoundReport {
	t.Helper()
	scen, ok := sim.Lookup(name)
	if !ok {
		t.Fatalf("no scenario %s", name)
	}
	s, err := scen.New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reports, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

func within(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func checkTable2(t *testing.T) {
	res, err := roleTraffic(context.Background(), artefactGrid(t, "table2", "").Base)
	if err != nil {
		t.Fatal(err)
	}
	small, large := res.Cells[0].Reports[0].RoleTraffic, res.Cells[1].Reports[0].RoleTraffic
	for ph, phase := range protocol.Phases {
		for r, role := range protocol.TrafficRoles[:2] { // common and key
			s, l := small[ph][r].Messages, large[ph][r].Messages
			if s == 0 && l == 0 {
				continue
			}
			exp, want, tol := growth(float64(s), float64(l)), 1.0, 0.05
			if phase == "inter" {
				want, tol = 1.7, 0.1
			}
			if !within(exp, want, tol) {
				t.Errorf("%s %s: %d → %d messages, exponent %.2f, want %.1f ± %.2f", phase, role, s, l, exp, want, tol)
			}
		}
	}
}

func checkScalability(t *testing.T) {
	g := artefactGrid(t, "scalability", "")
	want := []float64{46.5, 80, 117, 167}
	g.Axes = []sweep.Axis{{Field: "m", Values: []any{2, 4, 6, 8}}}
	g.Seeds = 1
	res, err := sweep.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, p := range res.Points {
		tx := p.Stats["tx_per_round"].Mean
		if tx <= prev {
			t.Errorf("m=%d: %.1f tx/round, not above the previous m's %.1f", p.Config.M, tx, prev)
		}
		if !within(tx/want[i], 1, 0.05) {
			t.Errorf("m=%d: %.1f tx/round, want %.1f ± 5 %%", p.Config.M, tx, want[i])
		}
		prev = tx
	}
}

func checkLeaderFault(t *testing.T) {
	r := runScenario(t, "leader-fault")[0]
	if r.Throughput() != 83 || len(r.Recoveries) != 4 {
		t.Fatalf("committed %d tx with %d recoveries, want 83 and 4", r.Throughput(), len(r.Recoveries))
	}
	for _, rec := range r.Recoveries {
		if rec.Kind != "equivocation" {
			t.Errorf("committee %d recovered for %s, want equivocation", rec.Committee, rec.Kind)
		}
	}
}

func checkNoRecovery(t *testing.T) {
	r := runScenario(t, "no-recovery")[0]
	if r.Throughput() != 0 || r.Rejected != 120 {
		t.Fatalf("committed %d tx, rejected %d; want 0 and 120", r.Throughput(), r.Rejected)
	}
}

func checkDoSPrescreen(t *testing.T) {
	for _, r := range runScenario(t, "dos-prescreen") {
		if r.Screened < 29 || r.Screened > 39 {
			t.Errorf("round %d pre-screened %d cross-shard txs, want 29–39", r.Round, r.Screened)
		}
	}
}

func checkResilience(t *testing.T) {
	g := artefactGrid(t, "resilience", "")
	g.Axes = []sweep.Axis{{Field: "faults.loss", Values: []any{0, 0.01, 0.02, 0.05}}}
	res, err := sweep.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if tx := res.Points[0].Stats["tx_per_round"].Mean; !within(tx, 82.3, 0.05) {
		t.Fatalf("fault-free: %.2f tx/round, want 82.3", tx)
	}
	for _, p := range res.Points {
		tx, free := p.Stats["tx_per_round"].Mean, res.Points[0].Stats["tx_per_round"].Mean
		if !within(tx/free, 1, 0.01) {
			t.Errorf("%v loss: %.2f tx/round, fault-free %.2f; want within 1 %%", p.Labels[0].Value, tx, free)
		}
	}
}

// checkTraffic runs the reduced grid, m = 4 on paper-scale (about a
// second); the full paper-scale pair needs CYCLEDGER_PAPER_SCALE=1.
func checkTraffic(t *testing.T) {
	overlay, total, block := `{"m": 4}`, "2.1", "13.1"
	if os.Getenv("CYCLEDGER_PAPER_SCALE") != "" {
		overlay, total, block = "", "4.3", "13.6"
	}
	cfg := artefactGrid(t, "traffic", overlay).Base
	ctx := context.Background()
	plain, err := leaderEgress(ctx, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := leaderEgress(ctx, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	var tp, ta simnet.Counter
	for ph := range protocol.Phases {
		tp.Add(plain[ph])
		ta.Add(agg[ph])
	}
	factor := func(p, a simnet.Counter) string { return fmt.Sprintf("%.1f", float64(p.Bytes)/float64(a.Bytes)) }
	if got := factor(tp, ta); got != total {
		t.Errorf("m=%d: leader egress falls %s× in total, want %s×", cfg.M, got, total)
	}
	if got := factor(plain[protocol.PhaseBlock], agg[protocol.PhaseBlock]); got != block {
		t.Errorf("m=%d: leader egress falls %s× in the block phase, want %s×", cfg.M, got, block)
	}
}

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's artefact table from the claims")

const (
	tableStart = "<!-- artefact table: generated from cmd/cycsim's claims; go test ./cmd/cycsim -run ExperimentsTable -update -->\n"
	tableEnd   = "<!-- end artefact table -->\n"
)

// TestExperimentsTable renders the "Paper artefact ↔ command" table from
// the artefact registry, the scenario registry and the claims, and
// compares it byte for byte with the block between EXPERIMENTS.md's
// markers; -update rewrites the block.
func TestExperimentsTable(t *testing.T) {
	var b strings.Builder
	b.WriteString("| Paper artefact | Command | Expected headline | Pinned by |\n| --- | --- | --- | --- |\n")
	for _, c := range claims {
		paper, command, pinned := c.paper, c.command, c.pinnedBy
		if a, ok := lookupArtefact(c.name); ok {
			paper, command = a.paper, "`go run ./cmd/cycsim -artefact "+c.name+"`"
		} else if s, ok := sim.Lookup(c.name); ok {
			paper, command = s.Paper, "`go run ./cmd/cycsim -scenario "+c.name+"`"
		}
		if c.check != nil {
			pinned = "`TestClaims/" + c.name + "`"
		}
		if paper == "" || command == "" || pinned == "" {
			t.Fatalf("claim %s: no paper anchor, command or pinning test", c.name)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", paper, command, c.headline, pinned)
	}

	const path = "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, rest, ok1 := strings.Cut(string(doc), tableStart)
	table, after, ok2 := strings.Cut(rest, tableEnd)
	if !ok1 || !ok2 {
		t.Fatalf("%s has no artefact table markers", path)
	}
	if *update {
		out := before + tableStart + b.String() + tableEnd + after
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if table != b.String() {
		t.Errorf("%s's artefact table differs from the claims (go test ./cmd/cycsim -run ExperimentsTable -update):\n got\n%s\nwant\n%s", path, table, b.String())
	}
}
