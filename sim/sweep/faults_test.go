package sweep

import (
	"context"
	"strings"
	"testing"

	"cycledger/sim"
)

// TestDottedFaultAxis: "faults.loss" expands into per-point fault specs
// without touching the shared base config, and the new resilience metrics
// reflect the losses.
func TestDottedFaultAxis(t *testing.T) {
	base := testBase(t)
	g := Grid{
		Base: base,
		Axes: []Axis{{Field: "faults.loss", Values: []any{0.0, 0.1}}},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	if cells[0].Config.Faults != nil && cells[0].Config.Faults.Loss != 0 {
		t.Fatalf("point 0 faults = %+v, want loss 0", cells[0].Config.Faults)
	}
	if cells[1].Config.Faults == nil || cells[1].Config.Faults.Loss != 0.1 {
		t.Fatalf("point 1 faults = %+v, want loss 0.1", cells[1].Config.Faults)
	}
	if base.Faults != nil {
		t.Fatalf("axis expansion mutated the base config: %+v", base.Faults)
	}

	res, err := Runner{Workers: 2}.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatal("sweep incomplete")
	}
	clean := res.Points[0].Stats["dropped_per_round"]
	lossy := res.Points[1].Stats["dropped_per_round"]
	if clean.Mean != 0 {
		t.Fatalf("loss=0 point dropped %v messages per round", clean.Mean)
	}
	if lossy.Mean == 0 {
		t.Fatal("loss=0.1 point dropped nothing")
	}
}

// TestDottedFaultAxisKeepsSiblingLeaves: a dotted axis over one fault leaf
// must not clobber the base config's other fault fields.
func TestDottedFaultAxisKeepsSiblingLeaves(t *testing.T) {
	resolved := testBase(t)
	resolved.Faults = &sim.FaultsConfig{
		Loss:      0.02,
		Partition: &sim.PartitionSpec{Split: 0.5, HealTick: 100},
	}
	g := Grid{Base: resolved, Axes: []Axis{{Field: "faults.loss", Values: []any{0.0, 0.2}}}}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 0.2} {
		f := cells[i].Config.Faults
		if f == nil || f.Loss != want || f.Partition == nil || f.Partition.HealTick != 100 {
			t.Fatalf("cell %d faults = %+v, want loss %v with partition intact", i, f, want)
		}
	}
	if resolved.Faults.Loss != 0.02 {
		t.Fatalf("expansion mutated the base spec: %+v", resolved.Faults)
	}
}

// TestDottedAxisUnknownLeafRejected: typos inside the nested spec fail at
// expansion, before any simulation runs.
func TestDottedAxisUnknownLeafRejected(t *testing.T) {
	g := Grid{Base: testBase(t), Axes: []Axis{{Field: "faults.losss", Values: []any{0.1}}}}
	if _, err := g.Cells(); err == nil {
		t.Fatal("unknown dotted leaf accepted")
	}
}

// TestRetiredFaultAxisRejected: an axis over a fault form the document no
// longer has (burst loss) fails as the grid expands, and Run returns
// before any cell starts.
func TestRetiredFaultAxisRejected(t *testing.T) {
	ax, err := ParseAxis("faults.burst.loss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{Base: testBase(t), Axes: []Axis{ax}}
	if _, err := g.Cells(); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("Cells() error = %v, want an unknown field", err)
	}
	ran := 0
	res, err := Runner{Workers: 1, Progress: func(int, int) { ran++ }}.Run(context.Background(), g)
	if err == nil || res != nil || ran != 0 {
		t.Fatalf("Run = (%v, %v) after %d cells, want an error before any cell", res, err, ran)
	}
}
