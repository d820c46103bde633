package sweep

import (
	"math"

	"cycledger/sim"
)

// Metrics are one run's per-round averages, the quantities the aggregator
// folds across replicate seeds. Every field is a mean over the run's
// completed rounds, so runs of different lengths remain comparable.
type Metrics struct {
	// Rounds is the number of completed rounds the averages cover.
	Rounds int `json:"rounds"`
	// TxPerRound is included transactions (intra + cross) per round.
	TxPerRound float64 `json:"tx_per_round"`
	// IntraPerRound is included intra-shard transactions per round.
	IntraPerRound float64 `json:"intra_per_round"`
	// CrossPerRound is included cross-shard transactions per round.
	CrossPerRound float64 `json:"cross_per_round"`
	// RejectedPerRound is rejected transactions per round.
	RejectedPerRound float64 `json:"rejected_per_round"`
	// ScreenedPerRound is cross-shard transactions dropped by §VIII-A
	// pre-screening per round.
	ScreenedPerRound float64 `json:"screened_per_round"`
	// RecoveriesPerRound is decided leader evictions (§V-D) per round.
	RecoveriesPerRound float64 `json:"recoveries_per_round"`
	// FeesPerRound is collected transaction fees per round.
	FeesPerRound float64 `json:"fees_per_round"`
	// MsgsPerRound is simulated network messages per round.
	MsgsPerRound float64 `json:"msgs_per_round"`
	// BytesPerRound is simulated network bytes per round.
	BytesPerRound float64 `json:"bytes_per_round"`
	// TicksPerRound is simulated round latency: the sum of phase spans on
	// the sequential engine, the §IV critical path when Pipelined.
	TicksPerRound float64 `json:"ticks_per_round"`
	// DroppedPerRound is messages lost to the fault model per round
	// (in flight or addressed to crashed nodes).
	DroppedPerRound float64 `json:"dropped_per_round"`
	// DroppedBytesPerRound is the wire volume of the dropped messages per
	// round — with BytesPerRound it separates "many small control messages
	// lost" from "a transaction list lost".
	DroppedBytesPerRound float64 `json:"dropped_bytes_per_round"`
	// LatePerRound is messages delivered beyond their synchrony bound per
	// round.
	LatePerRound float64 `json:"late_per_round"`
	// TimeoutsPerRound is phase-timeout verdicts (committees that could
	// not conclude a phase with a quorum) per round.
	TimeoutsPerRound float64 `json:"timeouts_per_round"`
}

// metricDefs fixes the metric identifiers and their canonical (writer
// column) order; MetricNames, the writers and the aggregator all read
// through it, so a new metric needs exactly one entry here plus its
// Metrics field.
var metricDefs = []struct {
	name string
	get  func(Metrics) float64
}{
	{"tx_per_round", func(m Metrics) float64 { return m.TxPerRound }},
	{"intra_per_round", func(m Metrics) float64 { return m.IntraPerRound }},
	{"cross_per_round", func(m Metrics) float64 { return m.CrossPerRound }},
	{"rejected_per_round", func(m Metrics) float64 { return m.RejectedPerRound }},
	{"screened_per_round", func(m Metrics) float64 { return m.ScreenedPerRound }},
	{"recoveries_per_round", func(m Metrics) float64 { return m.RecoveriesPerRound }},
	{"fees_per_round", func(m Metrics) float64 { return m.FeesPerRound }},
	{"msgs_per_round", func(m Metrics) float64 { return m.MsgsPerRound }},
	{"bytes_per_round", func(m Metrics) float64 { return m.BytesPerRound }},
	{"ticks_per_round", func(m Metrics) float64 { return m.TicksPerRound }},
	{"dropped_per_round", func(m Metrics) float64 { return m.DroppedPerRound }},
	{"dropped_bytes_per_round", func(m Metrics) float64 { return m.DroppedBytesPerRound }},
	{"late_per_round", func(m Metrics) float64 { return m.LatePerRound }},
	{"timeouts_per_round", func(m Metrics) float64 { return m.TimeoutsPerRound }},
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

// Summarize folds a run's round reports into per-round average Metrics.
// An empty report list yields the zero Metrics.
func Summarize(reports []*sim.RoundReport) Metrics {
	var m Metrics
	if len(reports) == 0 {
		return m
	}
	for _, r := range reports {
		m.TxPerRound += float64(r.Throughput())
		m.IntraPerRound += float64(r.IntraIncluded)
		m.CrossPerRound += float64(r.CrossIncluded)
		m.RejectedPerRound += float64(r.Rejected)
		m.ScreenedPerRound += float64(r.Screened)
		m.RecoveriesPerRound += float64(len(r.Recoveries))
		m.FeesPerRound += float64(r.Fees)
		m.MsgsPerRound += float64(r.Messages)
		m.BytesPerRound += float64(r.Bytes)
		m.TicksPerRound += float64(r.Duration)
		m.DroppedPerRound += float64(r.Dropped)
		m.DroppedBytesPerRound += float64(r.DroppedBytes)
		m.LatePerRound += float64(r.Late)
		m.TimeoutsPerRound += float64(len(r.Timeouts))
	}
	n := float64(len(reports))
	m.Rounds = len(reports)
	m.TxPerRound /= n
	m.IntraPerRound /= n
	m.CrossPerRound /= n
	m.RejectedPerRound /= n
	m.ScreenedPerRound /= n
	m.RecoveriesPerRound /= n
	m.FeesPerRound /= n
	m.MsgsPerRound /= n
	m.BytesPerRound /= n
	m.TicksPerRound /= n
	m.DroppedPerRound /= n
	m.DroppedBytesPerRound /= n
	m.LatePerRound /= n
	m.TimeoutsPerRound /= n
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
		for _, def := range metricDefs {
			for i, m := range ms {
				samples[i] = def.get(m)
			}
			stats[def.name] = NewStat(samples)
		}
		cfg := point.Config
		cfg.Seed = g.Base.Seed
		pts = append(pts, Point{Index: p, Labels: point.Labels, Config: cfg, Stats: stats})
	}
	return pts
}
