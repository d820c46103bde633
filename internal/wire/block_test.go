package wire_test

import (
	"fmt"
	"testing"

	"cycledger/internal/protocol"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// bigBlock is a block of n two-in, two-out transactions, with the rosters
// and the name-sorted score and reward lists a round's block carries.
func bigBlock(n int) *protocol.Block {
	b := &protocol.Block{
		Round:        7,
		Fees:         uint64(n),
		Randomness:   digestOf("rand"),
		NextReferee:  []simnet.NodeID{0, 1, 2},
		NextLeaders:  []simnet.NodeID{3, 4, 5, 6},
		NextPartials: [][]simnet.NodeID{{7, 8}, {9, 10}, {11, 12}, {13, 14}},
	}
	for i := 0; i < n; i++ {
		b.Txs = append(b.Txs, sampleTx(uint64(i)))
	}
	for i := 0; i < 16; i++ {
		b.Reputations = append(b.Reputations, protocol.Score{Name: fmt.Sprintf("node-%04d", i), Value: float64(i) / 4})
		if i%2 == 0 {
			b.Rewards = append(b.Rewards, protocol.Reward{Name: fmt.Sprintf("node-%04d", i), Amount: uint64(i)})
		}
	}
	return b
}

// TestBlockDecodeAllocations pins what decoding a certified block
// allocates. Per transaction: its input and output slices and one string
// per owner, but no Tx of its own — a list's transactions share one slab —
// and no map for the score and reward lists.
func TestBlockDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 128
	b := bigBlock(n)
	frame, err := wire.Encode(protocol.BlockMsg{Block: b})
	if err != nil {
		t.Fatal(err)
	}
	perTx := 2 + len(b.Txs[0].Outputs)
	bound := 3 + // the Block, its Txs slice and their slab
		n*perTx +
		3 + len(b.NextPartials) + // the roster lists
		1 + len(b.Reputations) + 1 + len(b.Rewards) // each list and one string per name
	got := testing.AllocsPerRun(20, func() {
		if _, _, err := wire.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if got > float64(bound) {
		t.Fatalf("decoding a %d-transaction block allocates %v times, want at most %d", n, got, bound)
	}
}
