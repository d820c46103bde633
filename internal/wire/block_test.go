package wire_test

import (
	"fmt"
	"testing"

	"cycledger/internal/ledger"
	"cycledger/internal/protocol"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// bigTxs returns n two-in, two-out transactions.
func bigTxs(n int) []*ledger.Tx {
	txs := make([]*ledger.Tx, n)
	for i := range txs {
		txs[i] = sampleTx(uint64(i))
	}
	return txs
}

// bigBlock is a block of n two-in, two-out transactions, with the rosters
// and the name-sorted score and reward lists a round's block carries.
func bigBlock(n int) *protocol.Block {
	b := &protocol.Block{
		Round:        7,
		Txs:          protocol.TxsOf(bigTxs(n)...),
		Fees:         uint64(n),
		Randomness:   digestOf("rand"),
		NextReferee:  []simnet.NodeID{0, 1, 2},
		NextLeaders:  []simnet.NodeID{3, 4, 5, 6},
		NextPartials: [][]simnet.NodeID{{7, 8}, {9, 10}, {11, 12}, {13, 14}},
	}
	var scores []protocol.Score
	var rewards []protocol.Reward
	for i := 0; i < 16; i++ {
		scores = append(scores, protocol.Score{Name: fmt.Sprintf("node-%04d", i), Value: float64(i) / 4})
		if i%2 == 0 {
			rewards = append(rewards, protocol.Reward{Name: fmt.Sprintf("node-%04d", i), Amount: uint64(i)})
		}
	}
	b.Reputations, b.Rewards = protocol.NamesOf(scores...), protocol.NamesOf(rewards...)
	return b
}

// checkScratch is what checking a transaction list allocates, whatever its
// length: the list the walk checks into, its one-entry scratch slice, the
// one Tx every entry is checked through, and that Tx's one-entry input and
// output lists.
const checkScratch = 5

// TestBlockDecodeAllocations pins what decoding a certified block
// allocates: nothing per transaction or per name, since the transaction,
// score and reward lists stay the bytes they were checked as.
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
	bound := 1 + checkScratch + // the Block, and checking its list
		3 + len(b.NextPartials) + // the roster lists
		2 // checking the score and reward lists: each one's scratch entry
	got := testing.AllocsPerRun(20, func() {
		if _, _, err := wire.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if got > float64(bound) {
		t.Fatalf("decoding a %d-transaction block allocates %v times, want at most %d", n, got, bound)
	}
}

// TestTxListDecodeAllocations is the same bound for a leader's list
// broadcast: the message, boxed for Decode's result, and checking its list.
func TestTxListDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 128
	frame, err := wire.Encode(protocol.TxListMsg{Round: 7, Committee: 1, Txs: protocol.TxsOf(bigTxs(n)...), Sig: []byte("sig")})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 1 + checkScratch
	got := testing.AllocsPerRun(20, func() {
		if _, _, err := wire.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Fatalf("decoding a %d-transaction list allocates %v times, want at most %d", n, got, bound)
	}
}
