// Command bench is the repository's benchmark: five named workloads
// driven through the public sim facade, end-to-end metrics measured with
// tracing off, and an outside-in traced pass plus layer cells that
// attribute a round to its layers. See README.md.
//
//	go run -C bench . -seed 1                 # every workload, both passes
//	go run -C bench . -workload wide-cross -seed 1 -seconds 15 -trace 0
//	go run -C bench . -compare A.json B.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload and print one JSON result line (default: every workload, both passes)")
		seed     = fs.Int64("seed", 1, "workload seed (non-zero)")
		seconds  = fs.Float64("seconds", referenceSeconds, "measurement window the fixed round counts are scaled to")
		trace    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of the traced pass")
		traceOut = fs.String("trace-out", "", "write the traced pass's spans to this file as Chrome trace events")
		out      = fs.String("out", "", "append this invocation's numbers to a JSON result file (for -compare)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		spec     = fs.Bool("spec", false, "print BENCHMARK.json as the metric and workload tables define it")
		glossary = fs.Bool("glossary", false, "print every metric with its definition and, per layer metric, what it should move and where")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *spec:
		doc, err := benchmarkSpec()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(doc))
		return 0
	case *glossary:
		printGlossary(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seed == 0 || *seconds <= 0 {
		return fail(fmt.Errorf("-seed must be non-zero and -seconds positive"))
	}

	// One P for every measured pass: a round's wall time is then the
	// processor time of its work and does not depend on how a shared host
	// schedules a second thread or the collector's background workers.
	// With two threads on a two-core sandbox the same binary's round time
	// spread 17-38% between runs beside one busy neighbour; on one P, 2-6%.
	runtime.GOMAXPROCS(measuredProcs)
	b := newBench(*seed, *seconds)
	hdr := hostHeader(*seed, *seconds)
	printHeader(stdout, hdr)

	var results []*workloadResult
	var err error
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		var r *workloadResult
		if r, err = b.single(w, *trace == 1); err == nil {
			results = append(results, r)
			printWorkload(stdout, r, hdr.NProc)
		}
	} else {
		results, err = b.all(stdout, hdr.NProc)
	}
	if err != nil {
		return fail(err)
	}
	if *traceOut != "" {
		if err := b.log.writeChrome(*traceOut); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		if err := appendResults(*out, hdr, results); err != nil {
			return fail(err)
		}
	}
	ok := true
	for _, r := range results {
		ok = ok && r.ok()
	}
	if *name != "" {
		// The contract's result line, last on standard output.
		if err := printResultLine(stdout, results[0], *trace == 1); err != nil {
			return fail(err)
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: output checks failed")
		return 1
	}
	return 0
}

// single runs one workload: the end-to-end pass alone, or (traced) a
// once-set-up end-to-end reference followed by the traced pass and the
// layer cells.
func (b *bench) single(w workload, traced bool) (*workloadResult, error) {
	setups := w.Setups
	if traced {
		setups = 1
	}
	b.fullParity = traced
	r, err := b.endToEnd(w, setups)
	if err != nil || !traced {
		return r, err
	}
	return r, b.traced(r)
}

// all runs every workload through both passes, printing as it goes.
func (b *bench) all(stdout io.Writer, nproc int) ([]*workloadResult, error) {
	var results []*workloadResult
	b.fullParity = true
	for _, w := range workloads {
		r, err := b.endToEnd(w, w.Setups)
		if err != nil {
			return nil, err
		}
		if err := b.traced(r); err != nil {
			return nil, err
		}
		printWorkload(stdout, r, nproc)
		results = append(results, r)
	}
	return results, nil
}

// measuredProcs is the GOMAXPROCS every measured pass runs under.
const measuredProcs = 1

// header records the noise-relevant facts of the host. They are reported,
// not configurable.
type header struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func hostHeader(seed int64, seconds float64) header {
	return header{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds,
	}
}

// cpuModel reads the processor's name where the OS offers it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printHeader(w io.Writer, h header) {
	fmt.Fprintf(w, "# cycledger bench  seed=%d seconds=%g  %s %s/%s  nproc=%d GOMAXPROCS=%d  cpu=%q\n",
		h.Seed, h.Seconds, h.GoVersion, h.GOOS, h.GOARCH, h.NProc, h.GOMAXPROCS, h.CPU)
	if h.NProc < 2 {
		fmt.Fprintln(w, "# fewer than two processors: wall-clock metrics are unresolved (the benchmark wants one processor to itself and one for everything else)")
	}
}

// wallClock says whether a metric depends on processor time; on a host
// with one processor these are printed as unresolved.
func wallClock(d metricDef) bool {
	switch d.Unit {
	case "s", "ms", "ns", "tx/s":
		return true
	}
	return false
}

func printWorkload(w io.Writer, r *workloadResult, nproc int) {
	value := func(d metricDef, v float64) string {
		if nproc < 2 && wallClock(d) {
			return fmt.Sprintf("%14s", "unresolved")
		}
		return fmt.Sprintf("%14.4f", v)
	}
	fmt.Fprintf(w, "\n== %s  (%d measured rounds after %d warm-up; closed loop, one client)\n", r.W.Name, len(r.Untraced.Reports), warmupRounds)
	fmt.Fprintln(w, "-- end to end (no observer, no audit hook)")
	for _, d := range endToEnd {
		note := ""
		switch d.Name {
		case "round_ms_p50":
			note = fmt.Sprintf("  n=%d", len(r.Untraced.RoundMs))
		case "setup_s":
			note = fmt.Sprintf("  median of %d", len(r.Untraced.SetupS))
		}
		fmt.Fprintf(w, "%-28s %s %-6s%s\n", d.Name, value(d, r.EndToEnd[d.Name]), d.Unit, note)
	}
	fmt.Fprintf(w, "%-28s %14.4f %-6s  %d of %d rounds\n", "failed_share", float64(r.failed())/float64(max(r.Untraced.Attempted, 1)), "ratio", r.failed(), r.Untraced.Attempted)
	if r.Layers != nil {
		fmt.Fprintf(w, "-- per layer (traced pass over %d rounds, then layer cells)\n", len(r.Traced.Reports))
		for _, d := range perLayer {
			note := ""
			if d.Name == "sim.round_ms_tail" {
				p, supported := tailOf(len(r.Untraced.RoundMs))
				note = fmt.Sprintf("  p%.0f", p*100)
				if !supported {
					note += " (fewer than ten samples beyond it)"
				}
			}
			fmt.Fprintf(w, "%-40s %s %s%s\n", d.Name, value(d, r.Layers[d.Name]), d.Unit, note)
		}
	}
	fmt.Fprintln(w, "-- checks")
	for _, c := range r.Checks {
		if c.Err != nil {
			fmt.Fprintf(w, "FAIL %s: %v\n", c.Name, c.Err)
		} else {
			fmt.Fprintf(w, "ok   %s\n", c.Name)
		}
	}
}

// printResultLine prints the single-workload result: one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func printResultLine(w io.Writer, r *workloadResult, traced bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, r.EndToEnd
	if traced {
		defs, values = perLayer, r.Layers
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	doc, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.ok(), max(r.Untraced.Attempted, 1), r.failed(), metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(doc))
	return err
}

// benchmarkSpec renders BENCHMARK.json from the workload and metric
// tables, so the committed file cannot drift from the code.
func benchmarkSpec() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: referenceSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// printGlossary prints the metric tables as markdown: the definitions,
// and the interaction map written down before anything was measured.
func printGlossary(w io.Writer) {
	fmt.Fprintln(w, "| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|")
	for _, d := range endToEnd {
		bound := fmt.Sprintf("%.0f%%", d.Bound*100)
		if d.Exact {
			bound = "exact for a seed; " + bound + " across seeds"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, bound, d.Doc)
	}
	fmt.Fprintln(w, "\n| per-layer metric | unit | better | should move | on | definition |\n|---|---|---|---|---|---|")
	for _, d := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.Moves, d.On, d.Doc)
	}
}

// resultFile is what -out appends to and -compare reads: the host header
// of the first invocation and one entry per invocation.
type resultFile struct {
	Header header      `json:"header"`
	Runs   []resultRun `json:"runs"`
}

type resultRun struct {
	Header    header                    `json:"header"`
	Workloads map[string]resultWorkload `json:"workloads"`
}

type resultWorkload struct {
	Rounds    int                `json:"rounds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// RoundMs is every measured round's time at the reference speed, in
	// run order, and Kernel the calibration kernel's times around them,
	// kept so a noisy comparison can be looked into without rerunning it
	// (round i took RoundMs[i] × (Kernel[i]+Kernel[i+1])/2 ÷ calibRefMs
	// on the wall).
	RoundMs []float64 `json:"round_ms"`
	Kernel  []float64 `json:"kernel_ms"`
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	doc, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(doc, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendResults(path string, hdr header, results []*workloadResult) error {
	f, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if len(f.Runs) == 0 {
		f.Header = hdr
	}
	run := resultRun{Header: hdr, Workloads: make(map[string]resultWorkload, len(results))}
	for _, r := range results {
		run.Workloads[r.W.Name] = resultWorkload{
			Rounds: len(r.Untraced.Reports), Attempted: r.Untraced.Attempted, Failed: r.failed(),
			EndToEnd: r.EndToEnd, PerLayer: r.Layers, RoundMs: r.Untraced.RoundMs, Kernel: r.Untraced.Kernel,
		}
	}
	f.Runs = append(f.Runs, run)
	doc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}
