package protocol

import (
	"reflect"
	"slices"
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
// traffic under the Phase labels, and each round fires Hooks.PhaseStart
// once per phase, in round order. That a reset zeroes every table is
// simnet's TestMetricsAccounting.
func TestAccountingHoldsOneRound(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 4
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	var started []string
	e.SetHooks(Hooks{PhaseStart: func(_ uint64, phase string) { started = append(started, phase) }})
	m := e.Net.Metrics()
	all := make([]simnet.NodeID, p.TotalNodes())
	for i := range all {
		all[i] = simnet.NodeID(i)
	}
	for round := 1; round <= p.Rounds; round++ {
		before := m.Total()
		started = started[:0]
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(started, Phases[:]) {
			t.Fatalf("round %d: PhaseStart fired %v, want %v", round, started, Phases)
		}
		var inTables simnet.Counter
		for ph := range Phases {
			inTables.Add(m.SentByNodes(ph, all))
		}
		if sent := m.Total().Messages - before.Messages; inTables.Messages != sent {
			t.Fatalf("round %d: per-phase tables hold %d sends, the round sent %d", round, inTables.Messages, sent)
		}
	}
}

// TestRoundStateReleasedAtAppend checks that a finished round keeps nothing
// in its nodes: after every RunRound, on the sim and the live transport,
// each node's round state is the zero value and no node reaches a *Block,
// neither a decoded copy of the round block nor a referee's certified one.
func TestRoundStateReleasedAtAppend(t *testing.T) {
	if blocks := blocksIn(&Node{roundState: roundState{crBlock: &Block{}}}); blocks != 1 {
		t.Fatalf("the walk finds %d blocks in a node holding one", blocks)
	}
	for _, transport := range []string{"sim", "live"} {
		t.Run(transport, func(t *testing.T) {
			p := DefaultParams()
			p.Transport = transport
			e, err := NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= 2; round++ {
				if _, err := e.RunRound(); err != nil {
					t.Fatal(err)
				}
				for _, n := range e.nodes {
					if !reflect.ValueOf(n.roundState).IsZero() {
						t.Fatalf("round %d: node %d keeps round state", round, n.ID)
					}
					if blocks := blocksIn(n); blocks > 0 {
						t.Fatalf("round %d: node %d reaches %d blocks", round, n.ID, blocks)
					}
				}
			}
		})
	}
}

// blocksIn counts the distinct *Block values reachable from n's fields,
// leaving out its engine.
func blocksIn(n *Node) int {
	blockType := reflect.TypeFor[*Block]()
	seen := map[uintptr]bool{}
	blocks := 0
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type() == blockType {
				blocks++
			}
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := range v.NumField() {
				if v.Type() != reflect.TypeFor[Node]() || v.Type().Field(i).Name != "eng" {
					walk(v.Field(i))
				}
			}
		case reflect.Slice, reflect.Array:
			for i := range v.Len() {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(n))
	return blocks
}
