package protocol

import (
	"reflect"
	"testing"

	"cycledger/internal/ledger"
	"cycledger/internal/reputation"
)

// memberList is a list no routing produced: a spend of an input that does
// not exist, a valid payment out of a genesis output, and a spend of that
// payment's output, which only a chained (§VIII-B) evaluation can accept.
func memberList(t *testing.T, e *Engine) []*ledger.Tx {
	t.Helper()
	g := e.gen.Genesis()[0]
	in := ledger.OutPoint{Tx: g.ID(), Index: 0}
	src, ok := e.utxo.Get(in)
	if !ok {
		t.Fatal("the genesis output is not in the store")
	}
	missing := &ledger.Tx{
		Inputs:  []ledger.OutPoint{{Tx: ledger.TxID{1}, Index: 0}},
		Outputs: []ledger.Output{{Owner: src.Owner, Amount: 1}},
	}
	pay := &ledger.Tx{
		Inputs:  []ledger.OutPoint{in},
		Outputs: []ledger.Output{{Owner: src.Owner, Amount: src.Amount - 1}},
	}
	chained := &ledger.Tx{
		Inputs:  []ledger.OutPoint{{Tx: pay.ID(), Index: 0}},
		Outputs: []ledger.Output{{Owner: src.Owner, Amount: src.Amount - 2}},
	}
	return []*ledger.Tx{missing, pay, chained}
}

// TestMemberValidatesItsList: a member votes on the list it is handed, not
// on one the engine routed (§IV-C step 3). Honest and invert members
// validate it against their shard view, chained spends passing only under
// ParallelBlockGen, and leave the view as it was; lazy and yes members
// answer without validating, so their vote allocates its vector and
// nothing else, however long the list.
func TestMemberValidatesItsList(t *testing.T) {
	const (
		Y = reputation.Yes
		N = reputation.No
		U = reputation.Unknown
	)
	for _, tc := range []struct {
		name    string
		chained bool
		honest  reputation.VoteVector
	}{
		{"sequential", false, reputation.VoteVector{N, Y, N}},
		{"parallel-blockgen", true, reputation.VoteVector{N, Y, Y}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.ParallelBlockGen = tc.chained
			e, err := NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			txs := memberList(t, e)
			n := e.nodes[0]
			for vote, want := range map[VoteStrategy]reputation.VoteVector{
				VoteHonest: tc.honest,
				VoteInvert: {-tc.honest[0], -tc.honest[1], -tc.honest[2]},
				VoteLazy:   {U, U, U},
				VoteYes:    {Y, Y, Y},
			} {
				n.Behavior.Vote = vote
				if got := n.voteOnTxs(txs); !reflect.DeepEqual(got, want) {
					t.Errorf("vote strategy %d voted %v, want %v", vote, got, want)
				}
			}
			if _, ok := e.utxo.Get(txs[1].Inputs[0]); !ok {
				t.Error("validating spent the payment's input in the shared store")
			}
			if _, ok := e.utxo.Get(txs[2].Inputs[0]); ok {
				t.Error("validating added the payment's output to the shared store")
			}
		})
	}
	t.Run("lazy-and-yes-allocate-only-the-vector", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation counts are not meaningful under the race detector")
		}
		e, err := NewEngine(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		short := memberList(t, e)
		var long []*ledger.Tx
		for range 100 {
			long = append(long, short...)
		}
		n := e.nodes[0]
		for _, vote := range []VoteStrategy{VoteLazy, VoteYes} {
			n.Behavior.Vote = vote
			for _, txs := range [][]*ledger.Tx{short, long} {
				if a := testing.AllocsPerRun(10, func() { n.voteOnTxs(txs) }); a != 1 {
					t.Errorf("vote strategy %d on %d transactions: %.0f allocations, want 1 (the vote vector)", vote, len(txs), a)
				}
			}
		}
	})
}
