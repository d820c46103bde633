package sim_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"cycledger/sim"
)

// TestTransportNameValidation checks the facade's transport plumbing:
// unknown names fail, the live transport resolves.
func TestTransportNameValidation(t *testing.T) {
	if _, err := sim.New(sim.FromJSON([]byte(`{"transport": "carrier-pigeon"}`))); err == nil {
		t.Error("unknown transport name accepted")
	}
	if _, err := sim.Resolve(sim.FromJSON([]byte(`{"transport": "live"}`))); err != nil {
		t.Errorf("live transport rejected by Resolve: %v", err)
	}
}

// TestSimCloseLeavesNoGoroutines is the teardown contract at the facade: a
// Sim on the live transport holds no goroutine above the pre-New baseline,
// during a two-round run (committees reshuffle between the rounds) or after
// Close, which releases nothing. One simnet lane keeps the process-wide
// worker pool out of the count. The name is kept from when a live Sim held
// one goroutine per node until Close joined them.
func TestSimCloseLeavesNoGoroutines(t *testing.T) {
	before := settledGoroutines()
	cfg := small()
	cfg.Transport = "live"
	cfg.Parallelism = 1
	cfg.Rounds = 2
	s, err := sim.New(sim.FromConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if during := runtime.NumGoroutine(); during != before {
		t.Errorf("%d goroutines before New, %d after a live run", before, during)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after := settledGoroutines(); after != before {
		t.Errorf("goroutines leaked: %d before New, %d after Close", before, after)
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// 20 ms: goroutines that a Close already joined have passed their last
// statement, but the runtime may take a moment longer to retire them, and
// an exact count needs a baseline without them.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); still < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}
