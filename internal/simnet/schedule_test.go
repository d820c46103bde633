package simnet

import (
	"math/rand"
	"testing"
)

func TestAdaptiveCrashMuteCutSemantics(t *testing.T) {
	a := NewSchedule()
	a.Crash(1, 10, 20)
	a.Mute(2, 0, 50)
	a.Cut([]NodeID{3}, []NodeID{4, 5}, 30, 60)

	if a.Down(9, 1) || !a.Down(10, 1) || !a.Down(19, 1) || a.Down(20, 1) {
		t.Fatal("crash window [10,20) wrong")
	}
	if a.Down(15, 2) {
		t.Fatal("muted node reported crashed")
	}
	if !a.Fate(15, 2, 1).Drop || a.Fate(55, 2, 1).Drop {
		t.Fatal("mute window [0,50) wrong")
	}
	if a.Fate(15, 1, 2).Drop {
		t.Fatal("messages TO a muted node must deliver")
	}
	if !a.Fate(40, 3, 4).Drop || !a.Fate(40, 3, 5).Drop {
		t.Fatal("cut 3→{4,5} did not drop inside its window")
	}
	if a.Fate(40, 4, 3).Drop || a.Fate(40, 3, 6).Drop {
		t.Fatal("cut dropped a direction or destination outside its rule")
	}
	if a.Fate(29, 3, 4).Drop || a.Fate(60, 3, 4).Drop {
		t.Fatal("cut active outside [30,60)")
	}
	// Nodes past the last with directives, and negative IDs (an external
	// sender), have none.
	if a.Down(15, 0) || a.Down(15, 6) || a.Down(15, -1) || a.Fate(40, 6, 4).Drop || a.Fate(40, -1, 4).Drop {
		t.Fatal("a node without directives is faulted")
	}
}

func TestAdaptiveCloseOpenRetiresDirectives(t *testing.T) {
	a := NewSchedule()
	a.Crash(1, 10, 0) // open-ended
	a.Mute(2, 10, 0)
	a.Cut([]NodeID{3}, []NodeID{4}, 10, 0)
	if !a.Down(1000, 1) || !a.Fate(1000, 2, 0).Drop || !a.Fate(1000, 3, 4).Drop {
		t.Fatal("open-ended directives inactive")
	}
	a.CloseOpen(100)
	// Times before the close boundary still see the directive (purity of
	// re-evaluation); times at or after it see the directive retired.
	if !a.Down(99, 1) || a.Down(100, 1) {
		t.Fatal("CloseOpen did not end the crash window at the boundary")
	}
	if a.Fate(100, 2, 0).Drop || a.Fate(100, 3, 4).Drop {
		t.Fatal("CloseOpen did not retire mute/cut directives")
	}
	// A closed window stays closed; new directives append cleanly.
	a.Crash(1, 200, 0)
	if a.Down(150, 1) || !a.Down(250, 1) {
		t.Fatal("re-crash after CloseOpen wrong")
	}
}

// TestScheduleCrashEveryAndSharedCuts: a periodic crash cycles with its
// offset and survives CloseOpen; one Cut call covers every listed sender.
func TestScheduleCrashEveryAndSharedCuts(t *testing.T) {
	s := NewSchedule()
	s.CrashEvery(1, 30, 100, 20) // down while (now+30) mod 100 < 20
	s.Cut([]NodeID{2, 3}, []NodeID{4}, 0, 0)
	for now, want := range map[Time]bool{0: false, 69: false, 70: true, 89: true, 90: false, 170: true, 190: false} {
		if got := s.Down(now, 1); got != want {
			t.Fatalf("Down(%d, 1) = %v, want %v", now, got, want)
		}
	}
	if !s.Fate(5, 2, 4).Drop || !s.Fate(5, 3, 4).Drop || s.Fate(5, 4, 2).Drop || s.Fate(5, 2, 3).Drop {
		t.Fatal("cut {2,3}→{4} wrong")
	}
	s.CloseOpen(100)
	if !s.Down(170, 1) {
		t.Fatal("CloseOpen ended a periodic crash")
	}
	if s.Fate(100, 2, 4).Drop || !s.Fate(99, 3, 4).Drop {
		t.Fatal("CloseOpen did not end the shared cut at its boundary")
	}
}

func TestAdaptiveEmptyPlanIsNoFaults(t *testing.T) {
	a := NewSchedule()
	if a.Down(5, 1) || a.Fate(5, 0, 1).Drop || a.Fate(5, 0, 1).Delay != 0 {
		t.Fatal("empty schedule injected a fault")
	}
}

// TestAdaptiveDeterminismShuffledRegistration drives raw broadcast
// traffic under a schedule and checks the run is byte-identical
// across worker-pool parallelism AND node registration order — the same
// fingerprint contract the scale suite pins for the fault-free core.
func TestAdaptiveDeterminismShuffledRegistration(t *testing.T) {
	const nodes = 24
	run := func(par int, shuffleSeed int64) (Time, uint64, Counter, Counter) {
		n := New(DefaultLatency(), 99)
		n.SetParallelism(par)
		a := NewSchedule()
		a.Crash(3, 20, 50)
		a.Mute(5, 0, 0)
		a.Cut([]NodeID{7}, []NodeID{1, 2}, 10, 45)
		n.SetFaults(a)
		order := make([]NodeID, nodes)
		for i := range order {
			order[i] = NodeID(i)
		}
		if shuffleSeed != 0 {
			rand.New(rand.NewSource(shuffleSeed)).Shuffle(nodes, func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
		}
		for _, id := range order {
			id := id
			n.Register(id, func(ctx *Context, msg Message) {
				if ctx.Now() < 60 {
					ctx.Broadcast([]NodeID{(id + 1) % nodes, (id + 5) % nodes}, "G", nil, 3)
				}
			})
		}
		for id := NodeID(0); id < nodes; id++ {
			n.Send(id, id, "G", nil, 3)
		}
		n.RunUntilIdle()
		return n.Now(), n.delivered, n.Metrics().DroppedTotal(), n.Metrics().Total()
	}
	t0, d0, x0, c0 := run(1, 0)
	for _, alt := range [][2]int64{{4, 0}, {0, 0}, {1, 777}, {4, 555}} {
		tA, dA, xA, cA := run(int(alt[0]), alt[1])
		if tA != t0 || dA != d0 || xA != x0 || cA != c0 {
			t.Fatalf("adaptive run diverged at par=%d shuffle=%d: (%d,%d,%v,%v) vs (%d,%d,%v,%v)",
				alt[0], alt[1], tA, dA, xA, cA, t0, d0, x0, c0)
		}
	}
	if x0.Messages == 0 {
		t.Fatal("adaptive plan dropped nothing")
	}
}
