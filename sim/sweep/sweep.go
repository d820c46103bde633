// Package sweep is CycLedger's parallel experiment engine: it expands a
// parameter grid over sim.Config, executes every resulting simulation on a
// worker pool, and aggregates the per-round reports into per-point
// statistics ready for tables and figures.
//
// A Grid is a base configuration crossed with one Axis per swept field
// (fields are named by their Config JSON tags, e.g. "m", "cross_frac",
// "pipelined") and replicated over Seeds independent seeds:
//
//	g := sweep.Grid{
//		Base:  sim.DefaultConfig(),
//		Axes:  []sweep.Axis{{Field: "m", Values: []any{2, 4, 8, 16}}},
//		Seeds: 5,
//	}
//	res, err := sweep.Run(ctx, g) // GOMAXPROCS workers
//
// Every cell (point × replicate) carries a seed derived deterministically
// from the base seed and the replicate index alone, so results are a pure
// function of the grid: the same grid produces byte-identical aggregated
// CSV/JSON output whatever the worker count or execution order (see
// TestSweepDeterministic). Replicate 0 runs the base seed itself, so a
// single-seed sweep reproduces the corresponding single runs exactly.
//
// Results stream into a per-point fold (mean, stddev, min, max and a 95%
// Student-t confidence interval over seeds, per metric — see Metrics and
// Stat) and are written with WriteCSV, WriteJSON, Markdown or Table.
// Cancelling the context stops the sweep between rounds; the cells that
// did complete are still aggregated and returned alongside the error, so
// an interrupted sweep prints partial results.
package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"cycledger/sim"
)

// An Axis sweeps one sim.Config field, named by its JSON tag ("m", "c",
// "cross_frac", "malicious_frac", "pipelined", "behavior", …), over a list
// of values. Nested fields are addressed by dotted path — "faults.loss",
// "faults.churn.frac" — and overlay only the named leaf, keeping the rest
// of the nested object from the base config. Values use the field's JSON
// representation: numbers for numeric fields, booleans for toggles,
// strings for behaviour and scheme names. The "seed" field cannot be an
// axis — replication over seeds is what Grid.Seeds does.
type Axis struct {
	Field  string `json:"field"`
	Values []any  `json:"values"`
}

// A Grid is a full sweep specification: the cross product of Axes over
// Base, replicated Seeds times with derived seeds. Seeds ≤ 0 means 1.
// The zero Axes list is a valid single-point grid (replication only).
type Grid struct {
	Base  sim.Config `json:"base"`
	Axes  []Axis     `json:"axes"`
	Seeds int        `json:"seeds"`
}

// A Value is one axis coordinate of a grid point.
type Value struct {
	Field string `json:"field"`
	Value any    `json:"value"`
}

// A Cell is one unit of sweep work: the fully resolved configuration for
// one grid point under one replicate seed. Index is the cell's position in
// the canonical expansion (point·seeds + rep) and identifies it regardless
// of execution order.
type Cell struct {
	Index  int        `json:"index"`
	Point  int        `json:"point"`
	Rep    int        `json:"rep"`
	Labels []Value    `json:"labels"`
	Config sim.Config `json:"-"`
}

// String renders the cell's grid coordinates, e.g. "m=8 cross_frac=0.5 rep=2".
func (c Cell) String() string {
	parts := make([]string, 0, len(c.Labels)+1)
	for _, lv := range c.Labels {
		parts = append(parts, lv.Field+"="+FormatValue(lv.Value))
	}
	parts = append(parts, "rep="+strconv.Itoa(c.Rep))
	return strings.Join(parts, " ")
}

// FormatValue renders an axis value the way the writers print it: numbers
// in shortest-roundtrip form, booleans as true/false, strings verbatim.
func FormatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	default:
		return fmt.Sprint(v)
	}
}

// ParseGrid decodes a JSON sweep document of the form
//
//	{"base": {...config overlay...}, "axes": [{"field": "m", "values": [2,4]}], "seeds": 5}
//
// The optional "base" object overlays the given base config (the format
// Config.ToJSON writes; fields absent keep base's values, unknown fields
// are an error). Unknown top-level keys are an error.
func ParseGrid(data []byte, base sim.Config) (Grid, error) {
	var doc struct {
		Base  json.RawMessage `json:"base"`
		Axes  []Axis          `json:"axes"`
		Seeds int             `json:"seeds"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Grid{}, fmt.Errorf("sweep: parsing grid: %w", err)
	}
	g := Grid{Base: base, Axes: doc.Axes, Seeds: doc.Seeds}
	if len(doc.Base) > 0 {
		cfg, err := sim.Resolve(sim.FromConfig(base), sim.FromJSON(doc.Base))
		if err != nil {
			return Grid{}, err
		}
		g.Base = cfg
	}
	return g, nil
}

// ParseAxis parses the CLI axis syntax "field=v1,v2,…". Each value is
// decoded as JSON where it parses (numbers, true/false) and kept as a bare
// string otherwise, so `m=2,4,8`, `pipelined=false,true` and
// `behavior=invert,lazy` all work. String values containing commas (e.g.
// composed behaviours) need a JSON grid file instead.
func ParseAxis(spec string) (Axis, error) {
	field, list, ok := strings.Cut(spec, "=")
	field = strings.TrimSpace(field)
	if !ok || field == "" || strings.TrimSpace(list) == "" {
		return Axis{}, fmt.Errorf("sweep: axis spec %q: want field=v1,v2,…", spec)
	}
	ax := Axis{Field: field}
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return Axis{}, fmt.Errorf("sweep: axis spec %q: empty value", spec)
		}
		var v any
		if err := json.Unmarshal([]byte(tok), &v); err != nil {
			v = tok
		}
		ax.Values = append(ax.Values, v)
	}
	return ax, nil
}

// seeds returns the effective replicate count (Seeds ≤ 0 means 1).
func (g Grid) seeds() int {
	return max(g.Seeds, 1)
}

// Points returns the number of grid points: the product of the axis value
// counts (1 for an empty axis list).
func (g Grid) Points() int {
	n := 1
	for _, ax := range g.Axes {
		n *= len(ax.Values)
	}
	return n
}

// validate checks the grid's structure; per-value config errors surface
// from Cells when the overlays are applied.
func (g Grid) validate() error {
	seen := map[string]bool{}
	for _, ax := range g.Axes {
		switch {
		case ax.Field == "":
			return errors.New("sweep: axis with empty field")
		case ax.Field == "seed":
			return errors.New("sweep: the seed field cannot be an axis (set Grid.Seeds for replication)")
		case len(ax.Values) == 0:
			return fmt.Errorf("sweep: axis %q has no values", ax.Field)
		case seen[ax.Field]:
			return fmt.Errorf("sweep: duplicate axis %q", ax.Field)
		}
		seen[ax.Field] = true
	}
	return nil
}

// Cells expands the grid into its canonical cell list: points in
// cross-product order (the last axis varies fastest), each replicated
// seeds() times. The cells carry fully resolved configs, so an invalid
// axis field or value fails here, before any simulation runs.
func (g Grid) Cells() ([]Cell, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	npts, seeds := g.Points(), g.seeds()
	cells := make([]Cell, 0, npts*seeds)
	for p := 0; p < npts; p++ {
		cfg, labels, err := g.pointConfig(p)
		if err != nil {
			return nil, err
		}
		for r := 0; r < seeds; r++ {
			c := cfg
			c.Seed = deriveSeed(g.Base.Seed, r)
			cells = append(cells, Cell{
				Index:  p*seeds + r,
				Point:  p,
				Rep:    r,
				Labels: labels,
				Config: c,
			})
		}
	}
	return cells, nil
}

// pointConfig resolves point p's axis coordinates and applies them to the
// base config through the JSON overlay, so axis fields get exactly the
// validation a config file would (unknown fields and type mismatches are
// errors).
func (g Grid) pointConfig(p int) (sim.Config, []Value, error) {
	labels := make([]Value, len(g.Axes))
	idx := p
	for i := len(g.Axes) - 1; i >= 0; i-- {
		ax := g.Axes[i]
		labels[i] = Value{Field: ax.Field, Value: ax.Values[idx%len(ax.Values)]}
		idx /= len(ax.Values)
	}
	cfg := g.Base
	for _, lv := range labels {
		doc, err := json.Marshal(axisDoc(lv.Field, lv.Value))
		if err != nil {
			return sim.Config{}, nil, fmt.Errorf("sweep: axis %q value %s: %w", lv.Field, FormatValue(lv.Value), err)
		}
		next, err := sim.Resolve(sim.FromConfig(cfg), sim.FromJSON(doc))
		if err != nil {
			return sim.Config{}, nil, fmt.Errorf("sweep: axis %q value %s: %w", lv.Field, FormatValue(lv.Value), err)
		}
		cfg = next
	}
	return cfg, labels, nil
}

// axisDoc builds the one-field overlay document for an axis coordinate.
// Dotted fields nest: "faults.loss" becomes {"faults":{"loss":v}}, which
// the JSON overlay merges into the base config's fault spec leaf by leaf.
func axisDoc(field string, v any) map[string]any {
	parts := strings.Split(field, ".")
	doc := map[string]any{parts[len(parts)-1]: v}
	for i := len(parts) - 2; i >= 0; i-- {
		doc = map[string]any{parts[i]: doc}
	}
	return doc
}

// deriveSeed maps (base seed, replicate) to a simulation seed. Replicate 0
// keeps the base seed exactly — a single-seed sweep reproduces the
// corresponding single runs — and later replicates get a splitmix64-style
// mix of base and replicate, so the seed set depends only on the grid
// definition, never on worker count or execution order.
func deriveSeed(base int64, rep int) int64 {
	if rep == 0 {
		return base
	}
	z := uint64(base) ^ (uint64(rep) * 0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z)
	if s == 0 { // the engine rejects seed 0
		s = int64(rep)
	}
	return s
}

// A Runner executes sweep cells on a bounded worker pool. The zero value
// runs with GOMAXPROCS workers and no progress reporting.
type Runner struct {
	// Workers is the pool size; ≤ 0 means runtime.GOMAXPROCS(0). Worker
	// count affects wall-clock only, never results.
	Workers int
	// Progress, if non-nil, fires after each completed cell with the
	// number of cells done and the grid total. Calls are serialised.
	Progress func(done, total int)
	// KeepReports retains every cell's raw round reports on its
	// CellResult. Off by default: a large sweep only needs the folded
	// Metrics, and holding each round's full report (per-phase role
	// traffic included) for every cell until output is unbounded memory.
	// cycsim -artefact table2 turns it on to read the traffic matrices.
	KeepReports bool
}

// Run expands the grid and executes every cell; see RunCells for the
// execution and error contract.
func (r Runner) Run(ctx context.Context, g Grid) (*Result, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	return r.RunCells(ctx, g, cells)
}

// RunCells executes exactly the given cells — which must come from
// g.Cells(), in any order, each at most once — and aggregates the results
// into per-point statistics. Cancelling ctx stops the sweep between
// rounds; the first non-cancellation error (bad config, engine failure)
// cancels the remaining cells. In both cases the cells that completed are
// still aggregated into the returned Result, alongside the error.
func (r Runner) RunCells(ctx context.Context, g Grid, cells []Cell) (*Result, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(cells)))

	total := g.Points() * g.seeds()
	completed := make([]*CellResult, total)
	var (
		mu       sync.Mutex
		done     int
		firstErr error
	)

	feed := make(chan Cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := range feed {
				cr, err := runCell(ctx, cell, r.KeepReports)
				mu.Lock()
				switch {
				case err == nil:
					completed[cell.Index] = cr
					done++
					if r.Progress != nil {
						r.Progress(done, total)
					}
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					// Interrupted mid-run: the cell is incomplete, not
					// failed; partial rounds are never aggregated.
				default:
					if firstErr == nil {
						firstErr = fmt.Errorf("sweep: cell %s (seed %d): %w", cell, cell.Config.Seed, err)
						cancel() // a failing point fails the sweep; stop feeding work
					}
				}
				mu.Unlock()
			}
		}()
	}
feedLoop:
	for _, cell := range cells {
		select {
		case feed <- cell:
		case <-ctx.Done():
			break feedLoop
		}
	}
	close(feed)
	wg.Wait()

	res := &Result{Grid: g, Points: aggregate(g, completed)}
	for _, cr := range completed {
		if cr != nil {
			res.Cells = append(res.Cells, *cr)
		}
	}
	err := firstErr
	if err == nil {
		err = parent.Err()
	}
	return res, err
}

// Run executes the grid with the zero Runner: GOMAXPROCS workers, no
// progress reporting.
func Run(ctx context.Context, g Grid) (*Result, error) {
	return Runner{}.Run(ctx, g)
}

// runCell builds and runs one cell's simulation to completion, folding
// the reports into Metrics and retaining the raw reports only on request.
func runCell(ctx context.Context, cell Cell, keepReports bool) (*CellResult, error) {
	s, err := sim.New(sim.FromConfig(cell.Config))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	reports, err := s.Run(ctx)
	if err != nil {
		return nil, err
	}
	cr := &CellResult{Cell: cell, Metrics: Summarize(reports)}
	if keepReports {
		cr.Reports = reports
	}
	return cr, nil
}
