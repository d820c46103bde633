package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cycledger/internal/simnet"
	"cycledger/sim"
)

// testBase is a deliberately tiny configuration so grid tests stay fast.
func testBase(t *testing.T) sim.Config {
	t.Helper()
	cfg, err := sim.ParseConfig([]byte(`{"m": 2, "c": 6, "lambda": 2, "ref_size": 5, "rounds": 2, "tx_per_committee": 8, "cross_frac": 0.5, "seed": 11}`))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestGridCells(t *testing.T) {
	g := Grid{
		Base: testBase(t),
		Axes: []Axis{
			{Field: "m", Values: []any{2, 3}},
			{Field: "cross_frac", Values: []any{0.0, 0.25, 0.5}},
		},
		Seeds: 2,
	}
	if got := g.Points(); got != 6 {
		t.Fatalf("Points = %d, want 6", got)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("len(cells) = %d, want 12", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if c.Point != i/2 || c.Rep != i%2 {
			t.Errorf("cell %d: point=%d rep=%d", i, c.Point, c.Rep)
		}
	}
	// Cross-product order: the last axis varies fastest.
	first := cells[0]
	if first.Config.M != 2 || first.Config.CrossFrac != 0 {
		t.Errorf("cell 0 config: m=%d cross=%v", first.Config.M, first.Config.CrossFrac)
	}
	last := cells[len(cells)-1]
	if last.Config.M != 3 || last.Config.CrossFrac != 0.5 {
		t.Errorf("last cell config: m=%d cross=%v", last.Config.M, last.Config.CrossFrac)
	}
	// Replicate 0 keeps the base seed; later replicates derive distinct,
	// point-independent seeds.
	if cells[0].Config.Seed != 11 {
		t.Errorf("rep 0 seed = %d, want base seed 11", cells[0].Config.Seed)
	}
	if cells[1].Config.Seed == 11 || cells[1].Config.Seed == 0 {
		t.Errorf("rep 1 seed = %d, want distinct non-zero", cells[1].Config.Seed)
	}
	if cells[3].Config.Seed != cells[1].Config.Seed {
		t.Errorf("rep 1 seeds differ across points: %d vs %d", cells[3].Config.Seed, cells[1].Config.Seed)
	}
	// Labels name the coordinates in axis order.
	want := "m=3 cross_frac=0.25 rep=1"
	if got := cells[9].String(); got != want {
		t.Errorf("cells[9] = %q, want %q", got, want)
	}
}

func TestGridValidation(t *testing.T) {
	base := testBase(t)
	cases := []struct {
		name string
		g    Grid
		want string
	}{
		{"seed axis", Grid{Base: base, Axes: []Axis{{Field: "seed", Values: []any{1, 2}}}}, "seed"},
		{"empty field", Grid{Base: base, Axes: []Axis{{Values: []any{1}}}}, "empty field"},
		{"no values", Grid{Base: base, Axes: []Axis{{Field: "m"}}}, "no values"},
		{"duplicate", Grid{Base: base, Axes: []Axis{{Field: "m", Values: []any{2}}, {Field: "m", Values: []any{3}}}}, "duplicate"},
		{"unknown field", Grid{Base: base, Axes: []Axis{{Field: "nope", Values: []any{1}}}}, "nope"},
		{"type mismatch", Grid{Base: base, Axes: []Axis{{Field: "m", Values: []any{"two"}}}}, "two"},
		{"unknown behavior", Grid{Base: base, Axes: []Axis{{Field: "behavior", Values: []any{"invert", "sleepy"}}}}, "sleepy"},
		{"unknown scheme", Grid{Base: base, Axes: []Axis{{Field: "scheme", Values: []any{"rsa"}}}}, "rsa"},
		{"unknown transport", Grid{Base: base, Axes: []Axis{{Field: "transport", Values: []any{"pigeon"}}}}, "pigeon"},
	}
	for _, tc := range cases {
		if _, err := tc.g.Cells(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("m=2, 4,8")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Field != "m" || len(ax.Values) != 3 || ax.Values[0] != 2.0 || ax.Values[2] != 8.0 {
		t.Errorf("ParseAxis numeric: %+v", ax)
	}
	ax, err = ParseAxis("pipelined=false,true")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Values[0] != false || ax.Values[1] != true {
		t.Errorf("ParseAxis bool: %+v", ax)
	}
	ax, err = ParseAxis("behavior=invert,lazy")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Values[0] != "invert" || ax.Values[1] != "lazy" {
		t.Errorf("ParseAxis string: %+v", ax)
	}
	for _, bad := range []string{"m", "=1,2", "m=", "m=1,,2"} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) succeeded", bad)
		}
	}
}

func TestParseGrid(t *testing.T) {
	base := testBase(t)
	doc := []byte(`{
		"base": {"rounds": 1, "tx_per_committee": 5},
		"axes": [{"field": "m", "values": [2, 3]}],
		"seeds": 4
	}`)
	g, err := ParseGrid(doc, base)
	if err != nil {
		t.Fatal(err)
	}
	if g.Base.Rounds != 1 || g.Base.TxPerCommittee != 5 {
		t.Errorf("base overlay not applied: %+v", g.Base)
	}
	if g.Base.CrossFrac != base.CrossFrac {
		t.Errorf("base overlay clobbered unmentioned field: cross=%v", g.Base.CrossFrac)
	}
	if g.Seeds != 4 || len(g.Axes) != 1 || g.Axes[0].Field != "m" {
		t.Errorf("grid shape: %+v", g)
	}
	if _, err := ParseGrid([]byte(`{"sedes": 3}`), base); err == nil {
		t.Error("unknown top-level key accepted")
	}
	if _, err := ParseGrid([]byte(`{"base": {"nope": 1}}`), base); err == nil {
		t.Error("unknown base field accepted")
	}
}

func TestSummarizeAndStats(t *testing.T) {
	st := NewStat([]float64{1, 2, 3})
	if st.N != 3 || st.Mean != 2 || st.Min != 1 || st.Max != 3 {
		t.Errorf("Stat = %+v", st)
	}
	if math.Abs(st.Std-1) > 1e-12 {
		t.Errorf("Std = %v, want 1", st.Std)
	}
	wantCI := 4.303 * 1 / math.Sqrt(3)
	if math.Abs(st.CI95-wantCI) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", st.CI95, wantCI)
	}
	one := NewStat([]float64{7})
	if one.N != 1 || one.Mean != 7 || one.Std != 0 || one.CI95 != 0 {
		t.Errorf("single-sample Stat = %+v", one)
	}
	if got := NewStat(nil); got != (Stat{}) {
		t.Errorf("empty Stat = %+v", got)
	}
}

// TestSummarizeAveragesEachRow folds two hand-built reports in which every
// field a metric reads holds a value no other field holds, so a row that
// reads the wrong field, or a mean that sums or divides wrongly, gives the
// wrong number under its name. A cell's JSON metrics are "rounds" and then
// every metric, in MetricNames order.
func TestSummarizeAveragesEachRow(t *testing.T) {
	report := func(k int) *sim.RoundReport {
		return &sim.RoundReport{
			IntraIncluded: 10 * k, CrossIncluded: 20 * k, Rejected: 3 * k, Screened: 4 * k,
			Recoveries: make([]sim.RecoveryEvent, 5*k), Fees: uint64(6 * k),
			Messages: uint64(7 * k), Bytes: uint64(8 * k), Duration: simnet.Time(9 * k),
			Dropped: uint64(11 * k), DroppedBytes: uint64(12 * k), Late: uint64(13 * k),
			Timeouts: make([]sim.PhaseTimeout, 14*k),
		}
	}
	// The mean of k = 1 and k = 3 is twice the k = 1 report.
	want := map[string]float64{
		"rounds": 2, "tx_per_round": 60, "intra_per_round": 20, "cross_per_round": 40,
		"rejected_per_round": 6, "screened_per_round": 8, "recoveries_per_round": 10,
		"fees_per_round": 12, "msgs_per_round": 14, "bytes_per_round": 16, "ticks_per_round": 18,
		"dropped_per_round": 22, "dropped_bytes_per_round": 24, "late_per_round": 26,
		"timeouts_per_round": 28,
	}
	b, err := json.Marshal(CellResult{Metrics: Summarize([]*sim.RoundReport{report(1), report(3)})})
	if err != nil {
		t.Fatal(err)
	}
	var cell struct{ Metrics json.RawMessage }
	if err := json.Unmarshal(b, &cell); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(cell.Metrics))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v float64
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		name := key.(string)
		keys = append(keys, name)
		if w, ok := want[name]; !ok || v != w {
			t.Errorf("%s = %v, want %v", name, v, w)
		}
	}
	if wantKeys := append([]string{"rounds"}, MetricNames()...); !slices.Equal(keys, wantKeys) {
		t.Errorf("metrics keys %v, want %v", keys, wantKeys)
	}
	if got := Summarize(nil); got != (Metrics{}) {
		t.Errorf("Summarize(nil) = %+v, want the zero Metrics", got)
	}
}

func TestSweepRunsAndAggregates(t *testing.T) {
	g := Grid{
		Base:  testBase(t),
		Axes:  []Axis{{Field: "m", Values: []any{2, 3}}},
		Seeds: 3,
	}
	res, err := Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("sweep incomplete: %d cells", len(res.Cells))
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		st, ok := p.Stats["tx_per_round"]
		if !ok || st.N != 3 {
			t.Errorf("point %d tx_per_round stat: %+v", p.Index, st)
		}
		if st.Mean <= 0 {
			t.Errorf("point %d zero throughput", p.Index)
		}
		if st.Min > st.Mean || st.Mean > st.Max {
			t.Errorf("point %d stat ordering violated: %+v", p.Index, st)
		}
		if p.Config.Seed != g.Base.Seed {
			t.Errorf("point config seed = %d, want base %d", p.Config.Seed, g.Base.Seed)
		}
	}
	// Raw reports are dropped unless the Runner opts in.
	if res.Cells[0].Reports != nil {
		t.Error("Reports retained without KeepReports")
	}
	kept, err := Runner{Workers: 2, KeepReports: true}.Run(context.Background(), Grid{Base: testBase(t)})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(kept.Cells[0].Reports); got != kept.Grid.Base.Rounds {
		t.Errorf("KeepReports retained %d reports, want %d", got, kept.Grid.Base.Rounds)
	}

	// Replicate 0 of each point must equal a direct single run at the
	// base seed (deriveSeed keeps it).
	s, err := sim.New(sim.FromConfig(res.Cells[0].Config))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Cells[0].Metrics, Summarize(reports); got != want {
		t.Errorf("rep 0 metrics diverge from single run: %+v vs %+v", got, want)
	}
}

// TestSweepClosesLiveCells runs a small grid over the transport axis and
// checks that no cell, live or not, leaves a goroutine behind: the count
// returns to its pre-sweep baseline once the workers are done.
func TestSweepClosesLiveCells(t *testing.T) {
	before := runtime.NumGoroutine()
	g := Grid{
		Base:  testBase(t),
		Axes:  []Axis{{Field: "transport", Values: []any{"sim", "live"}}},
		Seeds: 2,
	}
	res, err := Runner{Workers: 2}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("sweep incomplete: %d cells", len(res.Cells))
	}
	// A worker that has passed its last statement may take the runtime a
	// moment longer to retire.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before the sweep, %d after", before, after)
	}
}

func TestSweepCellErrorAborts(t *testing.T) {
	g := Grid{
		Base:  testBase(t),
		Axes:  []Axis{{Field: "malicious_frac", Values: []any{0.0, 0.5}}}, // 0.5 without a behavior is rejected
		Seeds: 1,
	}
	res, err := Runner{Workers: 1}.Run(context.Background(), g)
	if err == nil {
		t.Fatal("sweep with an invalid point succeeded")
	}
	if !strings.Contains(err.Error(), "malicious_frac=0.5") {
		t.Errorf("error does not name the failing cell: %v", err)
	}
	if res == nil || res.Complete() {
		t.Errorf("expected partial result, got %+v", res)
	}
}

func TestSweepCancellation(t *testing.T) {
	g := Grid{
		Base:  testBase(t),
		Axes:  []Axis{{Field: "m", Values: []any{2, 3}}},
		Seeds: 4,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	r := Runner{
		Workers: 1,
		Progress: func(done, total int) {
			seen = done
			if done == 3 {
				cancel()
			}
		},
	}
	res, err := r.Run(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen < 3 || res.Complete() {
		t.Fatalf("expected a partial sweep, got %d cells (progress %d)", len(res.Cells), seen)
	}
	if len(res.Cells) == 0 || len(res.Points) == 0 {
		t.Fatal("partial result lost its completed cells")
	}
	// Partial aggregation: stats cover only the completed replicates.
	for _, p := range res.Points {
		if st := p.Stats["tx_per_round"]; st.N > 4 || st.N < 1 {
			t.Errorf("point %d N = %d", p.Index, st.N)
		}
	}
}

func TestSweepWorkerOversubscription(t *testing.T) {
	// More workers than cells must behave identically to a matched pool.
	g := Grid{Base: testBase(t), Seeds: 2}
	res, err := Runner{Workers: 64}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || len(res.Points) != 1 {
		t.Fatalf("single-point grid result: %d cells, %d points", len(res.Cells), len(res.Points))
	}
}

func shuffledCells(t *testing.T, g Grid, seed int64) []Cell {
	t.Helper()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}
