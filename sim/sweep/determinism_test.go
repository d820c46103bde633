package sweep

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cycledger/sim"
)

// gridBenchBase is testBase without the testing.T plumbing, for benches.
func gridBenchBase() (sim.Config, error) {
	return sim.ParseConfig([]byte(`{"m": 2, "c": 8, "lambda": 2, "ref_size": 5, "rounds": 2, "tx_per_committee": 10, "cross_frac": 0.5, "seed": 3}`))
}

// renderAll materialises every writer's output for a result, the byte
// streams the determinism guarantee is stated over.
func renderAll(t *testing.T, res *Result) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	var csvBuf, jsonBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsonBuf, res); err != nil {
		t.Fatal(err)
	}
	out["csv"] = csvBuf.Bytes()
	out["json"] = jsonBuf.Bytes()
	md, err := Markdown(res)
	if err != nil {
		t.Fatal(err)
	}
	out["markdown"] = []byte(strings.Join(md, "\n"))
	return out
}

// TestSweepDeterministic is the engine's core guarantee: the same grid
// aggregated through 1 worker, N workers, and a shuffled cell order
// produces byte-identical CSV, JSON, and markdown output.
func TestSweepDeterministic(t *testing.T) {
	g := Grid{
		Base: testBase(t),
		Axes: []Axis{
			{Field: "m", Values: []any{2, 3}},
			{Field: "pipelined", Values: []any{false, true}},
			{Field: "aggregate_certs", Values: []any{false, true}},
		},
		Seeds: 3,
	}

	ctx := context.Background()
	baseline, err := Runner{Workers: 1}.Run(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.Complete() {
		t.Fatal("baseline sweep incomplete")
	}
	want := renderAll(t, baseline)

	workers := max(4, runtime.GOMAXPROCS(0))
	runs := map[string]func() (*Result, error){
		fmt.Sprintf("workers=%d", workers): func() (*Result, error) {
			return Runner{Workers: workers}.Run(ctx, g)
		},
		"shuffled+parallel": func() (*Result, error) {
			return Runner{Workers: workers}.RunCells(ctx, g, shuffledCells(t, g, 99))
		},
		"shuffled+serial": func() (*Result, error) {
			return Runner{Workers: 1}.RunCells(ctx, g, shuffledCells(t, g, 7))
		},
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := renderAll(t, res)
		for format, wantBytes := range want {
			if !bytes.Equal(got[format], wantBytes) {
				t.Errorf("%s: %s output differs from 1-worker baseline\ngot:\n%s\nwant:\n%s",
					name, format, got[format], wantBytes)
			}
		}
	}
}

// BenchmarkSweepWorkers measures the wall-clock effect of the worker pool
// on a multi-axis grid — the speedup the sweep engine exists for. Results
// are identical across the two settings; only elapsed time differs.
func BenchmarkSweepWorkers(b *testing.B) {
	base, err := gridBenchBase()
	if err != nil {
		b.Fatal(err)
	}
	g := Grid{
		Base:  base,
		Axes:  []Axis{{Field: "m", Values: []any{2, 3, 4}}},
		Seeds: 2,
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Runner{Workers: workers}.Run(context.Background(), g)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Complete() {
					b.Fatal("incomplete sweep")
				}
			}
		})
	}
}
