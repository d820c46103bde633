// Command cycsim runs a full CycLedger simulation through the public sim
// facade and prints per-round reports as they complete: throughput, fees,
// recoveries, traffic, and the final reputation leaderboard.
//
// Runs are assembled in three layers, each overriding the previous:
// a registered scenario (-scenario), a JSON config file (-config), and
// individual flags.
//
//	go run ./cmd/cycsim -m 8 -c 20 -rounds 5 -cross 0.33
//	go run ./cmd/cycsim -scenario leader-fault -json
//	go run ./cmd/cycsim -scenario dos-prescreen -rounds 5
//	go run ./cmd/cycsim -config run.json -seed 7
//	go run ./cmd/cycsim -transport live -rounds 3
//	go run ./cmd/cycsim -list-scenarios
//
// With -sweep (repeatable) or -sweep-file the resolved configuration
// becomes the base of a parameter grid executed on a parallel worker
// pool (sim/sweep), aggregated over -seeds replicates per point:
//
//	go run ./cmd/cycsim -sweep "m=2,4,8,16" -seeds 5 -sweep-out csv
//	go run ./cmd/cycsim -scenario cross-heavy -sweep "pipelined=false,true" -seeds 3
//	go run ./cmd/cycsim -sweep-file grid.json -workers 8 -sweep-out json
//
// -artefact prints one table or figure of the paper's evaluation (see
// artefact.go; -list-scenarios lists them). A measured artefact's base
// takes the place of a scenario under -config and the run flags:
//
//	go run ./cmd/cycsim -artefact table1
//	go run ./cmd/cycsim -artefact scalability -seeds 1 -sweep-out csv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"cycledger/sim"
	"cycledger/sim/sweep"
)

func main() {
	scenario := flag.String("scenario", "", "registered scenario to run (see -list-scenarios)")
	configPath := flag.String("config", "", "JSON config file (overlaid on the scenario)")
	jsonOut := flag.Bool("json", false, "emit the run as a JSON document instead of text")
	list := flag.Bool("list-scenarios", false, "list registered scenarios and artefacts and exit")
	artefactName := flag.String("artefact", "", "paper table or figure to print (see -list-scenarios); not with -scenario, -sweep or -sweep-file")

	// Each run flag sets one field of the run document, named beside it.
	// Declared defaults mirror the default config so -h tells the truth
	// (its behaviour is honest, whose name is ""). Only flags given on the
	// command line are applied: they form one JSON document, overlaid after
	// the scenario and -config layers the way -config is.
	def := sim.DefaultConfig()
	field := map[string]string{} // run flag → document field
	run := func(name, docField string) string {
		field[name] = docField
		return name
	}
	flag.Int(run("m", "m"), def.M, "number of committees")
	flag.Int(run("c", "c"), def.C, "committee size")
	flag.Int(run("lambda", "lambda"), def.Lambda, "partial set size")
	flag.Int(run("ref", "ref_size"), def.RefSize, "referee committee size")
	flag.Int(run("rounds", "rounds"), def.Rounds, "rounds to simulate")
	flag.Int(run("tx", "tx_per_committee"), def.TxPerCommittee, "transactions offered per committee per round")
	flag.Float64(run("cross", "cross_frac"), def.CrossFrac, "cross-shard payment fraction")
	flag.Float64(run("invalid", "invalid_frac"), def.InvalidFrac, "invalid transaction fraction")
	flag.Float64(run("malicious", "malicious_frac"), def.MaliciousFrac, "byzantine node fraction (-behavior defaults to invert when this is set)")
	flag.String(run("behavior", "behavior"), "", "byzantine behavior: honest|invert|lazy|yes|offline|equivocate|forge|conceal|censor|suppress-score (comma-composable)")
	flag.Bool(run("corrupt-leaders", "corrupt_leaders"), def.CorruptLeaders, "spend the corruption budget on leader seats first")
	flag.Bool(run("no-recovery", "disable_recovery"), def.DisableRecovery, "disable leader re-selection (RapidChain-style baseline)")
	flag.Bool(run("prescreen", "pre_screen_cross"), def.PreScreenCross, "enable §VIII-A cross-shard pre-screening")
	flag.Bool(run("parallel-blockgen", "parallel_block_gen"), def.ParallelBlockGen, "enable §VIII-B parallel block generation")
	flag.Int64(run("seed", "seed"), def.Seed, "simulation seed (non-zero)")
	flag.Int(run("parallel", "parallelism"), def.Parallelism, "simnet lanes (0 = GOMAXPROCS)")
	flag.Bool(run("pipelined", "pipelined"), def.Pipelined, "report round latency under the §IV pipeline (election overlaps processing); only Δt changes")
	flag.String(run("scheme", "scheme"), def.Scheme, "signature scheme: hash|ed25519")
	flag.String(run("transport", "transport"), def.Transport, "network transport: sim (deterministic simulator) | live (every payload crosses between nodes as wire bytes; report-identical, fault models included)")
	top := flag.Int("top", 5, "reputation leaderboard size")

	var sweepAxes []sweep.Axis
	flag.Func("sweep", "sweep axis `field=v1,v2,...` (repeatable; enables sweep mode)", func(s string) error {
		ax, err := sweep.ParseAxis(s)
		if err != nil {
			return err
		}
		sweepAxes = append(sweepAxes, ax)
		return nil
	})
	sweepFile := flag.String("sweep-file", "", "JSON sweep grid file {base, axes, seeds}; -sweep axes append to it")
	seeds := flag.Int("seeds", 1, "sweep replicates per point (derived seeds; overrides the grid file's)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	sweepOut := flag.String("sweep-out", "table", "sweep output format: table|markdown|csv|json")
	sweepMetrics := flag.String("sweep-metrics",
		"tx_per_round,rejected_per_round,recoveries_per_round,msgs_per_round,ticks_per_round",
		"comma-separated sweep metrics for table/markdown/csv output (empty = all; json always carries all)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to `file`")
	flag.Parse()

	// Profiling hooks: the CPU profile brackets the whole run (including
	// sweep workers); the heap profile is captured after the run settles so
	// it shows steady-state retention, not transient garbage: a single run
	// writes it while it still holds the simulation (writeHeapProfile), any
	// other command at exit. stopProfiles also runs on the fatalf path, so
	// an interrupted run still leaves usable profiles behind. See
	// EXPERIMENTS.md, "Profiling & benchmarking".
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		cpuProfiling = true
	}
	memProfilePath = *memprofile
	defer stopProfiles()

	if *list {
		for _, s := range sim.List() {
			fmt.Printf("%-18s %s\n%18s reproduces: %s\n", s.Name, s.Description, "", s.Paper)
		}
		fmt.Println("\nartefacts (-artefact NAME):")
		for _, a := range artefacts {
			fmt.Printf("%-18s %s\n", a.name, a.paper)
		}
		return
	}

	var opts []sim.Option
	var art artefact
	var artGrid sweep.Grid
	if *artefactName != "" {
		if *scenario != "" || len(sweepAxes) > 0 || *sweepFile != "" {
			fatalf("-artefact cannot be combined with -scenario, -sweep or -sweep-file")
		}
		var ok bool
		if art, ok = lookupArtefact(*artefactName); !ok {
			fatalf("unknown artefact %q (try -list-scenarios)", *artefactName)
		}
		if !art.analytic() {
			var err error
			if artGrid, err = art.sweepGrid(); err != nil {
				fatalf("%v", err)
			}
			opts = append(opts, sim.FromConfig(artGrid.Base))
		}
	}
	if *scenario != "" {
		scen, ok := sim.Lookup(*scenario)
		if !ok {
			fatalf("unknown scenario %q (try -list-scenarios)", *scenario)
		}
		opts = append(opts, scen.Options...)
	}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fatalf("%v", err)
		}
		opts = append(opts, sim.FromJSON(data))
	}
	cfg, err := sim.Resolve(opts...)
	if err != nil {
		fatalf("%v", err)
	}

	set := map[string]bool{}
	overlay := map[string]any{}
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if name, ok := field[f.Name]; ok {
			overlay[name] = f.Value.(flag.Getter).Get()
		}
	})
	// A command-line -malicious without -behavior keeps the old CLI's
	// default of vote inversion. The fallback is scoped to the flag layer:
	// a scenario or config file that sets a positive fraction without a
	// behavior is passed through untouched, so validation rejects it as a
	// silent no-op adversary instead of inventing one.
	if set["malicious"] && !set["behavior"] && !cfg.ByzantineBehavior.IsByzantine() {
		overlay["behavior"] = "invert"
	}
	if art.analytic() && (*configPath != "" || len(overlay) > 0) {
		fatalf("artefact %s is analytic: it takes no -config or run flags", art.name)
	}
	doc, err := json.Marshal(overlay)
	if err != nil {
		fatalf("%v", err)
	}
	if cfg, err = sim.Resolve(sim.FromConfig(cfg), sim.FromJSON(doc)); err != nil {
		fatalf("%v", err)
	}

	// First Ctrl-C cancels the run (checked between rounds, so partial
	// results still print); unregistering on cancellation restores the
	// default handler, letting a second Ctrl-C kill a round in flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() { <-ctx.Done(); stop() }()

	if art.print != nil {
		if err := art.print(ctx, os.Stdout, cfg); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if art.name != "" || len(sweepAxes) > 0 || *sweepFile != "" {
		g := sweep.Grid{Base: cfg, Axes: artGrid.Axes, Seeds: *seeds}
		if art.name != "" && !set["seeds"] {
			g.Seeds = artGrid.Seeds
		}
		metrics := *sweepMetrics
		if art.metrics != "" && !set["sweep-metrics"] {
			metrics = art.metrics
		}
		if *sweepFile != "" {
			data, err := os.ReadFile(*sweepFile)
			if err != nil {
				fatalf("%v", err)
			}
			if g, err = sweep.ParseGrid(data, cfg); err != nil {
				fatalf("%v", err)
			}
			if set["seeds"] {
				g.Seeds = *seeds
			}
		}
		g.Axes = append(g.Axes, sweepAxes...)
		if err := runSweep(ctx, os.Stdout, g, *workers, *sweepOut, metrics); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *jsonOut {
		runJSON(ctx, cfg, *top)
		return
	}
	runText(ctx, cfg, *top)
}

// runSweep executes the grid on the worker pool with a progress line on
// stderr and writes the aggregate to w in the given format. Like single
// runs, an interrupted sweep still writes the points whose replicates
// completed before it returns the error.
func runSweep(ctx context.Context, w io.Writer, g sweep.Grid, workers int, format, metricList string) error {
	// Reject output-shaping typos before the sweep runs, not after: a bad
	// -sweep-out or -sweep-metrics must not discard an hour of cells.
	switch format {
	case "table", "markdown", "csv", "json":
	default:
		return fmt.Errorf("unknown sweep output format %q (want table|markdown|csv|json)", format)
	}
	var metrics []string
	for _, name := range strings.Split(metricList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			metrics = append(metrics, name)
		}
	}
	if err := sweep.ValidateMetrics(metrics...); err != nil {
		return err
	}

	runner := sweep.Runner{
		Workers: workers,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells", done, total)
		},
	}
	res, runErr := runner.Run(ctx, g)
	if res == nil {
		return runErr
	}
	fmt.Fprintln(os.Stderr)

	var lines []string
	var err error
	switch format {
	case "csv":
		err = sweep.WriteCSV(w, res, metrics...)
	case "json":
		err = sweep.WriteJSON(w, res)
	case "markdown":
		lines, err = sweep.Markdown(res, metrics...)
	default: // "table"; the format set was validated before the run
		lines, err = sweep.Table(res, metrics...)
	}
	if err != nil {
		return err
	}
	writeLines(w, lines)
	if runErr != nil {
		return fmt.Errorf("%v (partial results above)", runErr)
	}
	return nil
}

func runText(ctx context.Context, cfg sim.Config, top int) {
	s, err := sim.New(sim.FromConfig(cfg))
	if err != nil {
		fatalf("%v", err)
	}
	defer s.Close()
	fmt.Printf("cycsim: n=%d nodes, m=%d committees of c=%d (λ=%d), |C_R|=%d, %d rounds\n\n",
		cfg.TotalNodes(), cfg.M, cfg.C, cfg.Lambda, cfg.RefSize, cfg.Rounds)

	var runErr error
	for r, err := range s.Rounds(ctx) {
		if err != nil {
			runErr = err
			break
		}
		fmt.Printf("round %d: tx=%d (intra %d, cross %d, rejected %d)  fees=%d  msgs=%d  bytes=%d  Δt=%d\n",
			r.Round, r.Throughput(), r.IntraIncluded, r.CrossIncluded, r.Rejected,
			r.Fees, r.Messages, r.Bytes, r.Duration)
		if r.Screened > 0 {
			fmt.Printf("  pre-screened: %d cross-shard txs dropped before packaging\n", r.Screened)
		}
		for _, rec := range r.Recoveries {
			fmt.Printf("  recovery: committee %d evicted node %d (%s) → node %d\n",
				rec.Committee, rec.Evicted, rec.Kind, rec.Successor)
		}
	}
	writeHeapProfile()

	// An interrupted run still reports the rounds that did complete.
	fmt.Printf("\nreputation leaderboard (top %d):\n", top)
	for i, e := range leaderboard(s, top) {
		fmt.Printf("  %2d. %-12s %8.3f\n", i+1, e.Name, e.Reputation)
	}
	if runErr != nil {
		fatalf("%v", runErr)
	}
}

// jsonRun is the -json output document. Error is set when the run was
// interrupted; Rounds then holds the rounds that completed before it.
type jsonRun struct {
	Config      sim.Config         `json:"config"`
	Rounds      []*sim.RoundReport `json:"rounds"`
	Leaderboard []repEntry         `json:"leaderboard"`
	Error       string             `json:"error,omitempty"`
}

func runJSON(ctx context.Context, cfg sim.Config, top int) {
	s, err := sim.New(sim.FromConfig(cfg))
	if err != nil {
		fatalf("%v", err)
	}
	defer s.Close()
	reports, runErr := s.Run(ctx)
	writeHeapProfile()
	if reports == nil {
		reports = []*sim.RoundReport{} // keep "rounds" an array even when nothing completed
	}
	doc := jsonRun{Config: cfg, Rounds: reports, Leaderboard: leaderboard(s, top)}
	if runErr != nil {
		doc.Error = runErr.Error()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatalf("%v", err)
	}
	if runErr != nil {
		fatalf("%v", runErr)
	}
}

type repEntry struct {
	Name       string  `json:"name"`
	Reputation float64 `json:"reputation"`
}

func leaderboard(s *sim.Sim, top int) []repEntry {
	snap := s.Reputation().Snapshot()
	entries := make([]repEntry, 0, len(snap))
	for name, rep := range snap {
		entries = append(entries, repEntry{name, rep})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Reputation != entries[j].Reputation {
			return entries[i].Reputation > entries[j].Reputation
		}
		return entries[i].Name < entries[j].Name
	})
	if top < 0 {
		top = 0
	}
	if top < len(entries) {
		entries = entries[:top]
	}
	return entries
}

// Profiling state shared between main's setup and the fatalf exit path.
var (
	cpuProfiling   bool
	memProfilePath string
)

// stopProfiles finalises any requested pprof outputs. It is idempotent so
// both the deferred call in main and the fatalf path may run it.
func stopProfiles() {
	if cpuProfiling {
		pprof.StopCPUProfile()
		cpuProfiling = false
	}
	writeHeapProfile()
}

// writeHeapProfile writes the requested heap profile, once. runText and
// runJSON call it after their rounds, while they still hold the Sim, so the
// profile's in-use view shows what a run retains: written from main's
// defer, it would find the simulation unreachable and show nothing in use.
func writeHeapProfile() {
	if memProfilePath == "" {
		return
	}
	path := memProfilePath
	memProfilePath = ""
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cycsim: "+err.Error())
		return
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "cycsim: "+err.Error())
	}
}

func fatalf(format string, args ...any) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "cycsim: "+fmt.Sprintf(format, args...))
	os.Exit(1)
}
