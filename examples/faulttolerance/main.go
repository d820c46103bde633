// Fault tolerance: run the protocol over a degraded network and watch it
// absorb the damage. The fault model (the run's Faults field) composes iid
// message loss with node churn that takes out a slice of the population —
// including, sooner or later, a leader seat. An observer streams what the
// protocol does about it: silence watchdogs impeach unreachable leaders
// (§V-D extended beyond provable misbehaviour), phases that cannot reach
// a quorum conclude with timeout verdicts instead of wedging the round,
// and every dropped message is accounted separately from delivered
// traffic.
//
// A second, fault-free run of the same configuration prints the baseline
// for comparison.
//
//	go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"

	"cycledger/sim"
)

func run(faulty bool) []*sim.RoundReport {
	cfg := sim.DefaultConfig()
	cfg.Rounds = 3
	cfg.Seed = 5 // a seed whose churn schedule hits leader seats
	if faulty {
		cfg.Faults = &sim.FaultsConfig{
			Loss:  0.03,
			Churn: &sim.ChurnSpec{Frac: 0.15, Period: 500, Downtime: 150},
		}
	}
	s, err := sim.New(sim.FromConfig(cfg), sim.WithObserver(sim.Funcs{
		Recovery: func(ev sim.RecoveryEvent) {
			fmt.Printf("  recovery: committee %d evicted node %d (%s) → node %d\n",
				ev.Committee, ev.Evicted, ev.Kind, ev.Successor)
		},
	}))
	if err != nil {
		log.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return reports
}

func main() {
	fmt.Println("--- degraded network: 3% message loss + 15% node churn ---")
	faulty := run(true)
	var tx, dropped, timeouts, recoveries int
	for _, r := range faulty {
		tx += r.Throughput()
		dropped += int(r.Dropped)
		timeouts += len(r.Timeouts)
		recoveries += len(r.Recoveries)
		fmt.Printf("round %d: tx=%d dropped=%d (%d bytes) timeouts=%v\n",
			r.Round, r.Throughput(), r.Dropped, r.DroppedBytes, r.Timeouts)
	}

	fmt.Println("\n--- same configuration, fault-free baseline ---")
	clean := run(false)
	var cleanTx int
	for _, r := range clean {
		cleanTx += r.Throughput()
		fmt.Printf("round %d: tx=%d dropped=%d\n", r.Round, r.Throughput(), r.Dropped)
	}

	fmt.Printf("\nfaulty network committed %d tx vs %d fault-free (%d messages lost,\n",
		tx, cleanTx, dropped)
	fmt.Printf("%d timeout verdicts, %d leader recoveries) — degradation, not failure.\n",
		timeouts, recoveries)
}
