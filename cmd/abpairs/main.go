// Command abpairs measures a change against a parent revision on
// alternating pairs of benchmark runs, and prints the table a performance
// claim quotes.
//
//	go run ./cmd/abpairs -parent HEAD~1 -workload small-faulted -pairs 10 [-seed 1] [-trace 0|1]
//
// It exports the parent with git archive, builds each side's cycbench once
// with the go build line and environment of bench/run.sh, and runs N pairs
// of `cycbench -workload W -seed S -seconds <BENCHMARK.json's run_seconds>
// -trace T`, the parent first in odd pairs and the change first in even
// ones. The change is the working tree it is run from. It reads each run's
// final JSON line
// and prints, per metric, each side's median and quartiles, how many pairs
// the change won, and whether the median moved by more than the parent's
// interquartile range. It exits non-zero when a run is not correct, or when
// an exact metric (tx_per_round, sim_ticks_per_round, bytes_per_tx,
// msgs_per_tx) differs within a pair, unless -exact-moves says the change
// moves it on purpose.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// exact are the metrics that are a pure function of (workload, seed): a
// change that moves none of the protocol's behaviour leaves them bit-equal.
var exact = []string{"tx_per_round", "sim_ticks_per_round", "bytes_per_tx", "msgs_per_tx"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		parent     = fs.String("parent", "", "the parent revision (required)")
		workload   = fs.String("workload", "", "the benchmark workload (required)")
		pairs      = fs.Int("pairs", 10, "pairs of runs")
		seed       = fs.Int64("seed", 1, "workload seed")
		trace      = fs.Int("trace", 0, "cycbench -trace: 0 for the end-to-end metrics, 1 for the per-layer ones")
		exactMoves = fs.Bool("exact-moves", false, "the change moves an exact metric on purpose: report it, do not fail")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *workload == "" || *pairs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "abpairs: -parent and -workload are required, -pairs must be positive")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "abpairs:", err)
		return 1
	}

	root, err := gitOutput("", "rev-parse", "--show-toplevel")
	if err != nil {
		return fail(err)
	}
	better, seconds, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp("", "abpairs-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	sides := [2]side{{name: "parent", tree: filepath.Join(dir, "parent")}, {name: "change", tree: root}}
	if err := export(root, *parent, sides[0].tree); err != nil {
		return fail(err)
	}
	for i := range sides {
		s := &sides[i]
		fmt.Fprintf(stderr, "abpairs: building the %s's cycbench in %s\n", s.name, s.tree)
		if s.bin, err = build(s.tree); err != nil {
			return fail(err)
		}
	}

	benchArgs := []string{"-workload", *workload, "-seed", fmt.Sprint(*seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(*trace)}
	var results [2][]result
	for p := range *pairs {
		order := []int{0, 1}
		if p%2 == 1 {
			order = []int{1, 0}
		}
		for _, i := range order {
			fmt.Fprintf(stderr, "abpairs: pair %d/%d, %s\n", p+1, *pairs, sides[i].name)
			r, err := runBench(sides[i], benchArgs)
			if err != nil {
				return fail(err)
			}
			results[i] = append(results[i], r)
		}
	}

	fmt.Fprintf(stdout, "abpairs: working tree (change) vs %s (parent), workload %s, seed %d, trace %d, %d alternating pairs\n\n",
		*parent, *workload, *seed, *trace, *pairs)
	sum := summarize(results[0], results[1], better)
	sum.write(stdout)
	return sum.verdict(stdout, *exactMoves)
}

// side is one tree of the comparison and the cycbench built from it.
type side struct {
	name, tree, bin string
}

// gitOutput runs git in dir and returns its trimmed standard output.
func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return strings.TrimSpace(string(out)), nil
}

// export writes rev's tree, as git archive writes it, into dir.
func export(root, rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("sh", "-c", `git archive --format=tar "$1" | tar -x -C "$2"`, "sh", rev, dir)
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("exporting %s: %v: %s", rev, err, msg)
	}
	return nil
}

// build builds tree's cycbench as bench/run.sh does: into .bench_build,
// with the go build cache and paths kept inside the tree.
func build(tree string) (string, error) {
	out := filepath.Join(tree, ".bench_build")
	bin := filepath.Join(out, "cycbench")
	cmd := exec.Command("go", "build", "-C", filepath.Join(tree, "bench"), "-o", bin, ".")
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(out, "gocache"), "GOPATH="+filepath.Join(out, "gopath"),
		"XDG_CONFIG_HOME="+filepath.Join(out, "config"), "GOTOOLCHAIN=local", "GOWORK=off")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", tree, err, msg)
	}
	return bin, nil
}

// runBench runs one side's cycbench once and reads its result line.
func runBench(s side, args []string) (result, error) {
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.tree
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %v: %s", s.name, err, stderr.Bytes())
	}
	return parseResult(out)
}

// result is one run's final line: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseResult reads the last non-empty line of a run's output.
func parseResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("reading the result line %q: %v", lines[len(lines)-1], err)
	}
	if len(r.Metrics) == 0 {
		return r, errors.New("the result line holds no metrics")
	}
	return r, nil
}

// readSpec reads from a BENCHMARK.json which way each metric is better
// ("lower" or "higher"; its end_to_end and per_layer tables) and how long
// a run measures (run_seconds).
func readSpec(path string) (better map[string]string, seconds float64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var spec struct {
		RunSeconds float64                         `json:"run_seconds"`
		EndToEnd   []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	if spec.RunSeconds <= 0 {
		return nil, 0, fmt.Errorf("%s: no run_seconds", path)
	}
	better = map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		better[m.Name] = m.Better
	}
	return better, spec.RunSeconds, nil
}

// row is one metric over both sides' runs.
type row struct {
	name               string
	parent, change     [3]float64 // quartile 1, median, quartile 3
	won, pairs         int        // pairs in which the change was better; -1 won when no direction is known
	exact, equal       bool       // an exact metric, and bit-equal on every pair
	beyondParentSpread bool       // |Δ median| > the parent's interquartile range
}

// summary is the comparison of two sides' runs, pair by pair.
type summary struct {
	rows             []row
	runs, notCorrect int      // runs, and those not correct or with failed rounds
	oneSided         []string // metrics some run of either side lacks
	exactMoved       []string // exact metrics that differ within some pair
}

// summarize compares parent[i] with change[i] for each pair i. A metric
// that only one side reports is listed apart, not compared.
func summarize(parent, change []result, better map[string]string) summary {
	var s summary
	names := map[string]bool{}
	for _, r := range append(slices.Clone(parent), change...) {
		s.runs++
		if !r.Correct || r.Failed > 0 {
			s.notCorrect++
		}
		for name := range r.Metrics {
			names[name] = true
		}
	}
	n := min(len(parent), len(change))
	for _, name := range slices.Sorted(maps.Keys(names)) {
		var ps, cs []float64
		rw := row{name: name, pairs: n, exact: slices.Contains(exact, name), equal: true}
		for i := range n {
			p, okP := parent[i].Metrics[name]
			c, okC := change[i].Metrics[name]
			if !okP || !okC {
				rw.pairs = -1
				break
			}
			ps, cs = append(ps, p.Value), append(cs, c.Value)
			rw.equal = rw.equal && p.Value == c.Value
			switch better[name] {
			case "lower":
				if c.Value < p.Value {
					rw.won++
				}
			case "higher":
				if c.Value > p.Value {
					rw.won++
				}
			default:
				rw.won = -1
			}
		}
		if rw.pairs < 0 {
			s.oneSided = append(s.oneSided, name)
			continue
		}
		rw.parent, rw.change = stats(ps), stats(cs)
		rw.beyondParentSpread = math.Abs(rw.change[1]-rw.parent[1]) > rw.parent[2]-rw.parent[0]
		if rw.exact && !rw.equal {
			s.exactMoved = append(s.exactMoved, name)
		}
		s.rows = append(s.rows, rw)
	}
	return s
}

// stats returns the quartiles and median of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method); with
// one sample all three are that sample.
func stats(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := min(max(int(math.Floor(pos)), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return [3]float64{at(1), at(2), at(3)}
}

// write prints the summary as a Markdown table.
func (s summary) write(w io.Writer) {
	fmt.Fprintln(w, "| metric | parent q1 / median / q3 | change q1 / median / q3 | Δ median | change won | beyond parent IQR | exact |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, r := range s.rows {
		won := "—"
		if r.won >= 0 {
			won = fmt.Sprintf("%d/%d", r.won, r.pairs)
		}
		delta := "0 %"
		if r.parent[1] != 0 {
			delta = fmt.Sprintf("%+.1f %%", 100*(r.change[1]-r.parent[1])/math.Abs(r.parent[1]))
		} else if r.change[1] != 0 {
			delta = "from 0"
		}
		beyond := "no"
		if r.beyondParentSpread {
			beyond = "yes"
		}
		ex := ""
		switch {
		case r.exact && r.equal:
			ex = "bit-equal"
		case r.exact:
			ex = "MOVED"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s | %s |\n",
			r.name, triple(r.parent), triple(r.change), delta, won, beyond, ex)
	}
	if len(s.oneSided) > 0 {
		fmt.Fprintf(w, "\nnot reported by every run: %s\n", strings.Join(s.oneSided, ", "))
	}
}

func triple(q [3]float64) string {
	return num(q[0]) + " / " + num(q[1]) + " / " + num(q[2])
}

// num writes v to four significant digits, or whole when it is larger.
func num(v float64) string {
	if math.Abs(v) >= 1e4 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// verdict prints the outcome and returns the exit status: 1 for a run that
// was not correct, or for a moved exact metric unless exactMoves.
func (s summary) verdict(w io.Writer, exactMoves bool) int {
	status := 0
	fmt.Fprintln(w)
	if s.notCorrect > 0 {
		fmt.Fprintf(w, "FAIL: %d of %d runs were not correct or failed rounds\n", s.notCorrect, s.runs)
		status = 1
	}
	switch {
	case len(s.exactMoved) == 0:
		fmt.Fprintln(w, "exact metrics: bit-equal on every pair")
	case exactMoves:
		fmt.Fprintf(w, "exact metrics moved (-exact-moves): %s\n", strings.Join(s.exactMoved, ", "))
	default:
		fmt.Fprintf(w, "FAIL: exact metrics moved: %s (pass -exact-moves if the change means to)\n", strings.Join(s.exactMoved, ", "))
		status = 1
	}
	return status
}
