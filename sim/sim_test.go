package sim_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"cycledger/sim"
)

// small returns a fast topology used by the behavioural tests.
func small() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.M, cfg.C, cfg.Lambda, cfg.RefSize = 2, 6, 1, 3
	cfg.TxPerCommittee, cfg.CrossFrac = 6, 0.25
	cfg.Seed = 7
	return cfg
}

func TestRunCancellation(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		name := "sequential"
		if pipelined {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const stopAfter = 2
			var seen int
			var s *sim.Sim
			var err error
			cfg := small()
			cfg.Rounds = 1000 // would run for a very long time uncancelled
			cfg.Pipelined, cfg.Parallelism = pipelined, 2
			s, err = sim.New(sim.FromConfig(cfg),
				sim.WithObserver(sim.Funcs{Round: func(r *sim.RoundReport) {
					seen++
					if seen == stopAfter {
						cancel()
					}
				}}),
			)
			if err != nil {
				t.Fatal(err)
			}

			done := make(chan struct{})
			var reports []*sim.RoundReport
			var runErr error
			go func() {
				defer close(done)
				reports, runErr = s.Run(ctx)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatal("cancelled run did not return (deadlock?)")
			}
			if !errors.Is(runErr, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", runErr)
			}
			if len(reports) != stopAfter {
				t.Fatalf("completed %d rounds before stopping, want %d", len(reports), stopAfter)
			}
		})
	}
}

func TestRunPreCancelled(t *testing.T) {
	cfg := small()
	cfg.Rounds = 3
	s, err := sim.New(sim.FromConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if len(reports) != 0 {
		t.Fatalf("pre-cancelled run completed %d rounds, want 0", len(reports))
	}
}

func TestRoundsIteratorResume(t *testing.T) {
	cfg := small()
	cfg.Rounds = 3
	s, err := sim.New(sim.FromConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Pull one round, then break.
	for r, err := range s.Rounds(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if r.Round != 1 {
			t.Fatalf("first yielded round = %d, want 1", r.Round)
		}
		break
	}
	if got := len(s.Reports()); got != 1 {
		t.Fatalf("after break: %d reports, want 1", got)
	}

	// Resuming continues from round 2 and finishes the run.
	var rounds []uint64
	for r, err := range s.Rounds(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, r.Round)
	}
	if len(rounds) != 2 || rounds[0] != 2 || rounds[1] != 3 {
		t.Fatalf("resumed rounds = %v, want [2 3]", rounds)
	}

	// A finished run yields nothing more.
	for range s.Rounds(ctx) {
		t.Fatal("iterator yielded past the configured rounds")
	}
}

func TestObserverStream(t *testing.T) {
	scen, ok := sim.Lookup("leader-fault")
	if !ok {
		t.Fatal("leader-fault scenario not registered")
	}
	var phases []string
	var roundsSeen, recoveries int
	s, err := scen.New(sim.WithObserver(sim.Funcs{
		Phase:    func(_ uint64, phase string) { phases = append(phases, phase) },
		Round:    func(r *sim.RoundReport) { roundsSeen++ },
		Recovery: func(ev sim.RecoveryEvent) { recoveries++ },
	}))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if roundsSeen != len(reports) {
		t.Fatalf("OnRound fired %d times for %d rounds", roundsSeen, len(reports))
	}
	want := []string{"config", "semicommit", "intra", "inter", "score", "select", "block"}
	if len(phases) != len(want) {
		t.Fatalf("observed phases %v, want %v", phases, want)
	}
	for i, ph := range want {
		if phases[i] != ph {
			t.Fatalf("phase[%d] = %q, want %q (all: %v)", i, phases[i], ph, phases)
		}
	}
	var totalRecoveries int
	for _, r := range reports {
		totalRecoveries += len(r.Recoveries)
	}
	if totalRecoveries == 0 {
		t.Fatal("leader-fault scenario produced no recoveries")
	}
	if recoveries != totalRecoveries {
		t.Fatalf("OnRecovery fired %d times, reports carry %d recoveries", recoveries, totalRecoveries)
	}
}

// TestObserverRunsOnCallerGoroutine: every observer callback fires on the
// goroutine that calls Run, on either transport, while message handlers
// run on the simnet lanes. The CI race job adds a second witness: a
// callback fired from a simnet lane would race on the unsynchronised
// counter.
func TestObserverRunsOnCallerGoroutine(t *testing.T) {
	for _, transport := range []string{"sim", "live"} {
		t.Run(transport, func(t *testing.T) {
			cfg := small()
			cfg.Rounds = 2
			cfg.Pipelined, cfg.Parallelism = true, 2
			cfg.Transport = transport
			caller := goroutineID()
			var events, elsewhere int
			fire := func() {
				events++
				if goroutineID() != caller {
					elsewhere++
				}
			}
			s, err := sim.New(sim.FromConfig(cfg), sim.WithObserver(sim.Funcs{
				Phase: func(uint64, string) { fire() },
				Round: func(*sim.RoundReport) { fire() },
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if events == 0 {
				t.Fatal("no observer events fired")
			}
			if elsewhere != 0 {
				t.Fatalf("%d of %d observer events fired off the goroutine calling Run", elsewhere, events)
			}
		})
	}
}

// goroutineID returns the calling goroutine's number, the second field of
// its stack trace's header line ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}
