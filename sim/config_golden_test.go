package sim_test

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"cycledger/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/config.golden and testdata/runs from this build")

// TestConfigGolden pins the run document byte for byte: DefaultConfig's
// ToJSON, then every registered scenario's resolved ToJSON in List order,
// each after a "# name" line, must equal the committed golden file. Field
// names, their order and the name each value is written as are a format
// that bench overlays, sweep grids and every -config file depend on;
// regenerate the file (-update) only for a deliberate format change.
func TestConfigGolden(t *testing.T) {
	var got bytes.Buffer
	add := func(name string, c sim.Config) {
		doc, err := c.ToJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.WriteString("# " + name + "\n")
		got.Write(doc)
		got.WriteString("\n")
	}
	add("DefaultConfig", sim.DefaultConfig())
	for _, scen := range sim.List() {
		cfg, err := scen.Config()
		if err != nil {
			t.Fatalf("%s: %v", scen.Name, err)
		}
		add(scen.Name, cfg)
	}
	const path = "testdata/config.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("config documents differ from %s:\n got\n%s\nwant\n%s", path, got.Bytes(), want)
	}
}
