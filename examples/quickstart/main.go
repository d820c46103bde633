// Quickstart: run three rounds of CycLedger with default parameters and
// print what happened. This is the smallest end-to-end use of the public
// sim facade — build a run from a document, consume rounds from the streaming
// iterator as they complete:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"cycledger/sim"
)

func main() {
	s, err := sim.New(sim.FromJSON([]byte(`{"rounds": 3}`))) // 4 committees × 16 nodes + 9 referees
	if err != nil {
		log.Fatal(err)
	}
	cfg := s.Config()

	fmt.Printf("CycLedger quickstart: %d nodes, %d committees, %d rounds\n\n",
		s.TotalNodes(), cfg.M, cfg.Rounds)

	var totalTx int
	var totalFees uint64
	for r, err := range s.Rounds(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: included %3d transactions (%d intra-shard, %d cross-shard), fees %d\n",
			r.Round, r.Throughput(), r.IntraIncluded, r.CrossIncluded, r.Fees)
		totalTx += r.Throughput()
		totalFees += r.Fees
	}
	fmt.Printf("\ntotal: %d transactions, %d fee units distributed by reputation\n", totalTx, totalFees)
	fmt.Printf("UTXO set now holds %d outputs worth %d\n",
		s.UTXO().Len(), s.UTXO().TotalValue())
}
