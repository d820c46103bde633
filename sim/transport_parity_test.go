package sim_test

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cycledger/sim"
)

// TestTransportParityByzantine extends the oracle check to a byzantine
// population: deviating behaviours change the message mix (equivocation,
// concealment), and every variant must still cross the live transport
// losslessly.
func TestTransportParityByzantine(t *testing.T) {
	run := func(transport string) []*sim.RoundReport {
		t.Helper()
		cfg := small()
		cfg.MaliciousFrac, cfg.CorruptLeaders = 0.2, true
		cfg.ByzantineBehavior = sim.Behavior{EquivocateIntra: true, ConcealCross: true}
		cfg.Transport = transport
		s, err := sim.New(sim.FromConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		reports, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	want := run("sim")
	got := run("live")
	if !reflect.DeepEqual(want, got) {
		t.Error("live transport diverges from the simulator under byzantine behaviours")
	}
}

// TestTransportParityAggregate extends the oracle check to aggregate
// certificates: the Agg* frames and the tree-relayed broadcasts must cross
// the live transport's wire codec losslessly and reproduce the simulator's
// reports exactly, Duration included.
func TestTransportParityAggregate(t *testing.T) {
	run := func(transport string) []*sim.RoundReport {
		t.Helper()
		cfg := small()
		cfg.AggregateCerts = true
		cfg.Transport = transport
		s, err := sim.New(sim.FromConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		reports, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	want := run("sim")
	got := run("live")
	if !reflect.DeepEqual(want, got) {
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		t.Errorf("live transport diverges from the simulator under aggregate certs\n sim:  %s\n live: %s", wantJSON, gotJSON)
	}
}

// TestTransportParityFaulted extends the oracle check to fault models: the
// simnet's serial send drain decides every message's fate before the live
// transport's carrier sees it, so iid loss plus the adaptive adversary's
// leader crashes (recoveries, silence watchdogs, dropped traffic) must
// produce identical reports on both transports.
func TestTransportParityFaulted(t *testing.T) {
	run := func(transport string) []*sim.RoundReport {
		t.Helper()
		cfg := small()
		cfg.Faults = &sim.FaultsConfig{
			Loss:     0.02,
			Adaptive: &sim.AdaptiveSpec{Budget: 4, CrashLeaders: true},
		}
		cfg.Transport = transport
		s, err := sim.New(sim.FromConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		reports, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	want := run("sim")
	got := run("live")
	if !reflect.DeepEqual(want, got) {
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		t.Errorf("live transport diverges from the simulator under faults\n sim:  %s\n live: %s", wantJSON, gotJSON)
	}
	var dropped, recoveries int
	for _, r := range want {
		dropped += int(r.Dropped)
		recoveries += len(r.Recoveries)
	}
	if dropped == 0 || recoveries == 0 {
		t.Errorf("fault model did not bite (dropped %d, recoveries %d); the parity check is vacuous", dropped, recoveries)
	}
}

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
