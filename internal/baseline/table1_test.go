package baseline

import (
	"math"
	"testing"
)

func TestTableIStructure(t *testing.T) {
	rows := TableI()
	if len(rows) != 4 {
		t.Fatalf("Table I has %d rows, want 4", len(rows))
	}
	wantOrder := []string{"Elastico", "OmniLedger", "RapidChain", "CycLedger"}
	for i, w := range wantOrder {
		if rows[i].Name != w {
			t.Fatalf("row %d = %s, want %s", i, rows[i].Name, w)
		}
	}
}

func TestTableIQualitativeColumns(t *testing.T) {
	for _, row := range TableI() {
		isCyc := row.Name == "CycLedger"
		if row.LeaderFaultOK != isCyc {
			t.Errorf("%s leader-fault efficiency = %v", row.Name, row.LeaderFaultOK)
		}
		if row.Incentives != isCyc {
			t.Errorf("%s incentives = %v", row.Name, row.Incentives)
		}
		wantBurden := "heavy"
		if isCyc {
			wantBurden = "light"
		}
		if row.ConnectionBurden != wantBurden {
			t.Errorf("%s connection burden = %s", row.Name, row.ConnectionBurden)
		}
	}
}

func TestTableIResiliency(t *testing.T) {
	rows := TableI()
	if rows[0].ResiliencyFrac != 0.25 || rows[1].ResiliencyFrac != 0.25 {
		t.Fatal("Elastico/OmniLedger resiliency wrong")
	}
	if rows[2].ResiliencyFrac != 1.0/3 || rows[3].ResiliencyFrac != 1.0/3 {
		t.Fatal("RapidChain/CycLedger resiliency wrong")
	}
}

func TestTableIFailureOrdering(t *testing.T) {
	// At the paper's parameters CycLedger's failure probability must be
	// the lowest of the four. Elastico and OmniLedger saturate at 1;
	// CycLedger and RapidChain both fail with 20·e^{-100/12} ≈ 4.81e-3
	// (within 1 %), the figure EXPERIMENTS quotes.
	const m, c, lam = 20, 100, 40
	p := map[string]float64{}
	for _, row := range TableI() {
		p[row.Name] = row.FailProb(m, c, lam)
	}
	for name, q := range p {
		if p["CycLedger"] > q {
			t.Fatalf("CycLedger %.3g worse than %s %.3g", p["CycLedger"], name, q)
		}
	}
	if p["Elastico"] != 1 || p["OmniLedger"] != 1 {
		t.Fatalf("Elastico %.3g and OmniLedger %.3g should saturate at 1", p["Elastico"], p["OmniLedger"])
	}
	for _, name := range []string{"CycLedger", "RapidChain"} {
		if math.Abs(p[name]/4.81e-3-1) > 0.01 {
			t.Fatalf("%s fails with %.4g, want ≈ 4.81e-3", name, p[name])
		}
	}
}

func TestTableIFailureClamped(t *testing.T) {
	for _, row := range TableI() {
		if p := row.FailProb(1e6, 1, 1); p < 0 || p > 1 {
			t.Fatalf("%s probability %g outside [0,1]", row.Name, p)
		}
	}
}

func TestTableIStorage(t *testing.T) {
	// At n=2000, m=20, c=100: Elastico stores O(n), far above the sharded
	// protocols; CycLedger stores m²/n + c which is close to RapidChain's c.
	s := map[string]float64{}
	for _, row := range TableI() {
		s[row.Name] = row.StorageItems(2000, 20, 100)
	}
	if s["Elastico"] <= s["CycLedger"]*5 {
		t.Fatal("Elastico storage should dwarf CycLedger's")
	}
	if want := 400.0/2000 + 100; math.Abs(s["CycLedger"]-want) > 1e-9 {
		t.Fatalf("CycLedger storage = %g, want %g", s["CycLedger"], want)
	}
	if s["RapidChain"] != 100 {
		t.Fatalf("RapidChain storage = %g, want c", s["RapidChain"])
	}
	if want := 100 + math.Log(20); s["OmniLedger"] != want {
		t.Fatalf("OmniLedger storage = %g, want c + ln m = %g", s["OmniLedger"], want)
	}
}

func TestConnectionChannelsLight(t *testing.T) {
	// The paper's "light" claim: CycLedger needs far fewer reliable
	// channels than full honest-node connectivity.
	ch := ConnectionChannels(2000, 20, 100, 40, 60)
	if ch["CycLedger"] >= ch["RapidChain"]/2 {
		t.Fatalf("CycLedger channels %d not clearly below full-mesh %d",
			ch["CycLedger"], ch["RapidChain"])
	}
	if ch["Elastico"] != 2000*1999/2 {
		t.Fatalf("full mesh count wrong: %d", ch["Elastico"])
	}
}
