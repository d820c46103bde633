package protocol

import (
	"strings"
	"testing"

	"cycledger/internal/simnet"
)

func runEngine(t *testing.T, p Params) (*Engine, []*RoundReport) {
	t.Helper()
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, reports
}

func TestEngineHonestRound(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	e, reports := runEngine(t, p)
	r := reports[0]
	if r.Throughput() == 0 {
		t.Fatal("no transactions included")
	}
	if r.IntraIncluded == 0 {
		t.Fatal("no intra-shard transactions included")
	}
	if r.CrossIncluded == 0 {
		t.Fatal("no cross-shard transactions included")
	}
	if len(r.Recoveries) != 0 {
		t.Fatalf("unexpected recoveries in honest run: %v", r.Recoveries)
	}
	if r.Fees == 0 {
		t.Fatal("no fees collected")
	}
	if r.BlockDelivered < p.TotalNodes()/2 {
		t.Fatalf("block reached only %d/%d nodes", r.BlockDelivered, p.TotalNodes())
	}
	if r.Participants != p.TotalNodes() {
		t.Fatalf("participants = %d, want %d", r.Participants, p.TotalNodes())
	}
	if e.Roster().Round != 2 {
		t.Fatalf("engine did not advance to round 2")
	}
}

func TestEngineMultiRound(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 3
	_, reports := runEngine(t, p)
	if len(reports) != 3 {
		t.Fatalf("got %d reports", len(reports))
	}
	for i, r := range reports {
		if r.Throughput() == 0 {
			t.Fatalf("round %d included nothing", i+1)
		}
	}
}

func TestEngineEd25519SchemeRound(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	p.Scheme = "ed25519"
	_, reports := runEngine(t, p)
	if reports[0].Throughput() == 0 {
		t.Fatal("no transactions included under Ed25519")
	}
}

// TestAccountingHoldsOneRound: the network's per-phase accounting is reset
// at every round start, so after each round it holds exactly that round's
// traffic, and its labels are the bare phase names, with no round number
// in them. That a reset keeps the tables for reuse is simnet's
// TestMetricsAccounting.
func TestAccountingHoldsOneRound(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 4
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	m := e.Net.Metrics()
	all := make([]simnet.NodeID, p.TotalNodes())
	for i := range all {
		all[i] = simnet.NodeID(i)
	}
	for round := 1; round <= p.Rounds; round++ {
		before := m.Total()
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
		var inTables simnet.Counter
		for _, ph := range m.Phases() {
			if strings.ContainsAny(ph, "0123456789") {
				t.Fatalf("round %d: phase label %q carries a number", round, ph)
			}
			inTables.Add(m.SentByNodes(ph, all))
		}
		if sent := m.Total().Messages - before.Messages; inTables.Messages != sent {
			t.Fatalf("round %d: per-phase tables hold %d sends, the round sent %d", round, inTables.Messages, sent)
		}
	}
}
