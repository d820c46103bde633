package sweep

import (
	"encoding/json"
	"math"
	"strconv"

	"cycledger/sim"
)

// Metrics are one run's per-round averages, the quantities the aggregator
// folds across replicate seeds: one mean per metricDefs row over the run's
// completed rounds, so runs of different lengths remain comparable. It
// encodes as one JSON object, "rounds" and then each metric by name in
// MetricNames order.
type Metrics struct {
	// Rounds is the number of completed rounds the averages cover.
	Rounds int
	means  [len(metricDefs)]float64
}

// MarshalJSON writes {"rounds": Rounds, name: mean, …} in metricDefs order.
func (m Metrics) MarshalJSON() ([]byte, error) {
	b := strconv.AppendInt([]byte(`{"rounds":`), int64(m.Rounds), 10)
	for i, d := range metricDefs {
		v, err := json.Marshal(m.means[i])
		if err != nil {
			return nil, err
		}
		b = append(b, `,"`+d.name+`":`...)
		b = append(b, v...)
	}
	return append(b, '}'), nil
}

// metricDefs is the one definition of a sweep metric: its name, whose
// place here is its writer column, and its value in one round, which
// Summarize averages over a run. A new metric is one row.
var metricDefs = [...]struct {
	name  string
	value func(*sim.RoundReport) float64
}{
	// Included transactions, intra + cross.
	{"tx_per_round", func(r *sim.RoundReport) float64 { return float64(r.Throughput()) }},
	{"intra_per_round", func(r *sim.RoundReport) float64 { return float64(r.IntraIncluded) }},
	{"cross_per_round", func(r *sim.RoundReport) float64 { return float64(r.CrossIncluded) }},
	{"rejected_per_round", func(r *sim.RoundReport) float64 { return float64(r.Rejected) }},
	// Cross-shard transactions dropped by §VIII-A pre-screening.
	{"screened_per_round", func(r *sim.RoundReport) float64 { return float64(r.Screened) }},
	// Decided leader evictions (§V-D).
	{"recoveries_per_round", func(r *sim.RoundReport) float64 { return float64(len(r.Recoveries)) }},
	{"fees_per_round", func(r *sim.RoundReport) float64 { return float64(r.Fees) }},
	{"msgs_per_round", func(r *sim.RoundReport) float64 { return float64(r.Messages) }},
	{"bytes_per_round", func(r *sim.RoundReport) float64 { return float64(r.Bytes) }},
	// Simulated round latency: the sum of phase spans on the sequential
	// engine, the §IV critical path when Pipelined.
	{"ticks_per_round", func(r *sim.RoundReport) float64 { return float64(r.Duration) }},
	// Messages lost to the fault model, in flight or addressed to crashed
	// nodes, and their wire volume: with bytes_per_round it separates "many
	// small control messages lost" from "a transaction list lost".
	{"dropped_per_round", func(r *sim.RoundReport) float64 { return float64(r.Dropped) }},
	{"dropped_bytes_per_round", func(r *sim.RoundReport) float64 { return float64(r.DroppedBytes) }},
	// Messages delivered beyond their synchrony bound.
	{"late_per_round", func(r *sim.RoundReport) float64 { return float64(r.Late) }},
	// Phase-timeout verdicts: committees that could not conclude a phase
	// with a quorum.
	{"timeouts_per_round", func(r *sim.RoundReport) float64 { return float64(len(r.Timeouts)) }},
}

// MetricNames returns the metric identifiers in canonical column order —
// the names Stats maps are keyed by and the writers accept as selectors.
func MetricNames() []string {
	out := make([]string, len(metricDefs))
	for i, d := range metricDefs {
		out[i] = d.name
	}
	return out
}

// Summarize folds a run's round reports into per-round average Metrics:
// each mean is the sum of its row's values in report order, divided once.
// An empty report list yields the zero Metrics.
func Summarize(reports []*sim.RoundReport) Metrics {
	var m Metrics
	if len(reports) == 0 {
		return m
	}
	for _, r := range reports {
		for i, d := range metricDefs {
			m.means[i] += d.value(r)
		}
	}
	m.Rounds = len(reports)
	for i := range m.means {
		m.means[i] /= float64(m.Rounds)
	}
	return m
}

// A Stat summarises one metric across a point's completed replicates.
type Stat struct {
	// N is the number of replicate samples the statistics cover (fewer
	// than Grid.Seeds when a sweep was interrupted).
	N int `json:"n"`
	// Mean is the sample mean.
	Mean float64 `json:"mean"`
	// Std is the sample standard deviation (n−1 denominator; 0 for N < 2).
	Std float64 `json:"std"`
	// Min is the smallest sample.
	Min float64 `json:"min"`
	// Max is the largest sample.
	Max float64 `json:"max"`
	// CI95 is the half-width of the 95% confidence interval of the mean,
	// using the Student-t critical value for N−1 degrees of freedom
	// (0 for N < 2).
	CI95 float64 `json:"ci95"`
}

// NewStat computes a Stat over the samples in the given (replicate) order.
func NewStat(samples []float64) Stat {
	n := len(samples)
	if n == 0 {
		return Stat{}
	}
	s := Stat{N: n, Min: samples[0], Max: samples[0]}
	sum := 0.0
	for _, x := range samples {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		sum2 := 0.0
		for _, x := range samples {
			d := x - s.Mean
			sum2 += d * d
		}
		s.Std = math.Sqrt(sum2 / float64(n-1))
		s.CI95 = tCrit(n-1) * s.Std / math.Sqrt(float64(n))
	}
	return s
}

// tTable holds two-sided 95% Student-t critical values for 1–30 degrees of
// freedom; beyond 30 the normal approximation 1.96 is used.
var tTable = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCrit(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tTable) {
		return tTable[df-1]
	}
	return 1.960
}

// A Point is one grid coordinate's aggregate: its axis labels, the
// resolved configuration (with the base seed; replicates vary it), and
// per-metric statistics over the completed replicates.
type Point struct {
	// Index is the point's position in cross-product order.
	Index int `json:"index"`
	// Labels are the axis coordinates, in axis order.
	Labels []Value `json:"labels"`
	// Config is the point's resolved configuration with Seed left at the
	// grid base's seed (each replicate derives its own).
	Config sim.Config `json:"-"`
	// Stats maps metric name (see MetricNames) to its replicate statistics.
	Stats map[string]Stat `json:"stats"`
}

// A CellResult is one completed cell: its per-round-average Metrics and
// the raw round reports for consumers that need more than the aggregate
// (cycsim -artefact table2 reads per-phase role traffic from them).
type CellResult struct {
	Cell
	// Metrics are the run's per-round averages.
	Metrics Metrics `json:"metrics"`
	// Reports are the run's raw round reports — nil unless the sweep ran
	// with Runner.KeepReports (not serialised).
	Reports []*sim.RoundReport `json:"-"`
}

// A Result is a sweep's outcome: the grid it ran, the aggregated points
// (in point order; points with no completed replicate are dropped), and
// every completed cell in canonical order.
type Result struct {
	Grid   Grid         `json:"grid"`
	Points []Point      `json:"points"`
	Cells  []CellResult `json:"cells"`
}

// Complete reports whether every cell of the grid completed — false for a
// sweep that was cancelled or aborted by a cell error.
func (r *Result) Complete() bool {
	return len(r.Cells) == r.Grid.Points()*r.Grid.seeds()
}

// aggregate folds the completed cells into per-point statistics. Samples
// are gathered in replicate order and stats computed per metric in
// metricDefs order, so the output is independent of cell completion order.
func aggregate(g Grid, completed []*CellResult) []Point {
	npts, seeds := g.Points(), g.seeds()
	var pts []Point
	for p := 0; p < npts; p++ {
		var ms []Metrics
		var point *CellResult
		for r := 0; r < seeds; r++ {
			cr := completed[p*seeds+r]
			if cr == nil {
				continue
			}
			ms = append(ms, cr.Metrics)
			if point == nil {
				point = cr
			}
		}
		if point == nil {
			continue
		}
		stats := make(map[string]Stat, len(metricDefs))
		samples := make([]float64, len(ms))
		for j, def := range metricDefs {
			for i, m := range ms {
				samples[i] = m.means[j]
			}
			stats[def.name] = NewStat(samples)
		}
		cfg := point.Config
		cfg.Seed = g.Base.Seed
		pts = append(pts, Point{Index: p, Labels: point.Labels, Config: cfg, Stats: stats})
	}
	return pts
}
