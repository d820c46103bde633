package simnet

import (
	"cmp"
	"runtime"
	"sync"
	"testing"
)

func TestSendDeliver(t *testing.T) {
	n := New(DefaultLatency(), 1)
	var got []Message
	n.Register(2, func(ctx *Context, msg Message) { got = append(got, msg) })
	n.Send(1, 2, "PING", "hello", 5)
	n.RunUntilIdle()
	if len(got) != 1 || got[0].Payload.(string) != "hello" || got[0].From != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestDelayWithinBound(t *testing.T) {
	lat := DefaultLatency()
	n := New(lat, 2)
	var deliveredAt Time
	n.Register(2, func(ctx *Context, msg Message) { deliveredAt = ctx.Now() })
	n.Send(1, 2, "PING", nil, 0)
	n.RunUntilIdle()
	if deliveredAt < 1 || deliveredAt > lat.Delta {
		t.Fatalf("delivered at %d, want within (0, %d]", deliveredAt, lat.Delta)
	}
}

func TestLinkClassification(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	lat.Classify = func(from, to NodeID) LinkClass {
		switch {
		case from == 1 && to == 2:
			return LinkIntra
		case from == 1 && to == 3:
			return LinkKey
		default:
			return LinkPartial
		}
	}
	n := New(lat, 3)
	times := map[NodeID]Time{}
	for _, id := range []NodeID{2, 3, 4} {
		id := id
		n.Register(id, func(ctx *Context, msg Message) { times[id] = ctx.Now() })
	}
	n.Send(1, 2, "A", nil, 0)
	n.Send(1, 3, "B", nil, 0)
	n.Send(1, 4, "C", nil, 0)
	n.RunUntilIdle()
	if times[2] != lat.Delta || times[3] != lat.Gamma || times[4] != lat.PartialMax {
		t.Fatalf("delivery times %v, want Δ=%d Γ=%d partial=%d", times, lat.Delta, lat.Gamma, lat.PartialMax)
	}
}

func TestHandlerSendChains(t *testing.T) {
	n := New(DefaultLatency(), 4)
	hops := 0
	n.Register(1, func(ctx *Context, msg Message) {
		hops++
		if hops < 5 {
			ctx.Send(2, "HOP", nil, 0)
		}
	})
	n.Register(2, func(ctx *Context, msg Message) {
		ctx.Send(1, "HOP", nil, 0)
	})
	n.Send(0, 1, "HOP", nil, 0)
	n.RunUntilIdle()
	if hops != 5 {
		t.Fatalf("hops = %d, want 5", hops)
	}
}

func TestTimers(t *testing.T) {
	n := New(DefaultLatency(), 5)
	var fired []Time
	n.Register(1, func(ctx *Context, msg Message) {
		ctx.After(7, func(c *Context) { fired = append(fired, c.Now()) })
	})
	n.Send(0, 1, "GO", nil, 0)
	n.RunUntilIdle()
	if len(fired) != 1 {
		t.Fatalf("timer fired %d times", len(fired))
	}
}

func TestDownNodeDropsTraffic(t *testing.T) {
	n := New(DefaultLatency(), 6)
	delivered := 0
	n.Register(1, func(ctx *Context, msg Message) { delivered++ })
	const rejoin = 100
	n.SetFaults(crash(1, 0, rejoin))
	n.Send(0, 1, "PING", nil, 0)
	n.RunUntilIdle()
	if delivered != 0 {
		t.Fatal("down node received a message")
	}
	n.After(0, rejoin, func(*Context) {})
	n.RunUntilIdle()
	n.Send(0, 1, "PING", nil, 0)
	n.RunUntilIdle()
	if delivered != 1 {
		t.Fatal("recovered node did not receive")
	}
}

func TestUnregisteredDestinationIgnored(t *testing.T) {
	n := New(DefaultLatency(), 7)
	n.Send(0, 99, "PING", nil, 0)
	n.RunUntilIdle() // must not panic
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		n := New(DefaultLatency(), 42)
		var log []Time
		var mu sync.Mutex
		for id := NodeID(0); id < 20; id++ {
			id := id
			n.Register(id, func(ctx *Context, msg Message) {
				mu.Lock()
				log = append(log, ctx.Now())
				mu.Unlock()
				if ctx.Now() < 200 {
					ctx.Send((id+1)%20, "RING", nil, 1)
				}
			})
		}
		n.Send(0, 0, "RING", nil, 1)
		n.RunUntilIdle()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestParallelismDeterminism(t *testing.T) {
	// The same seed must give identical metrics at parallelism 1, 8 and 0
	// (GOMAXPROCS lanes), and when the lane count changes between runs
	// (1 → 4 → 2, switching every 15 ticks while traffic is in flight).
	run := func(pars ...int) (uint64, uint64) {
		n := New(DefaultLatency(), 99)
		n.SetParallelism(pars[0])
		if want := cmp.Or(pars[0], runtime.GOMAXPROCS(0)); len(n.lanes) != want {
			t.Fatalf("parallelism %d runs %d lanes, want %d", pars[0], len(n.lanes), want)
		}
		// Branching factor 2 doubles traffic every hop; keep the horizon
		// short so the event count stays in the tens of thousands.
		for id := NodeID(0); id < 50; id++ {
			id := id
			n.Register(id, func(ctx *Context, msg Message) {
				if ctx.Now() < 40 {
					ctx.Broadcast([]NodeID{(id + 1) % 50, (id + 2) % 50}, "GOSSIP", nil, 3)
				}
			})
		}
		for id := NodeID(0); id < 50; id++ {
			n.Send(id, id, "GOSSIP", nil, 3)
		}
		for i, par := range pars[1:] {
			n.Run(Time(15 * (i + 1)))
			n.SetParallelism(par)
		}
		n.RunUntilIdle()
		return n.delivered, n.Metrics().Total().Bytes
	}
	d1, b1 := run(1)
	if d1 == 0 {
		t.Fatal("nothing delivered")
	}
	for _, pars := range [][]int{{8}, {0}, {1, 4, 2}} {
		if d, b := run(pars...); d != d1 || b != b1 {
			t.Fatalf("lanes %v diverged: (%d,%d) vs (%d,%d)", pars, d1, b1, d, b)
		}
	}
}

func TestRunUntilBound(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n := New(lat, 8)
	count := 0
	n.Register(1, func(ctx *Context, msg Message) {
		count++
		ctx.Send(1, "LOOP", nil, 0) // self-loop every Δ ticks forever
	})
	n.Send(1, 1, "LOOP", nil, 0)
	n.Run(100)
	if count != 10 {
		t.Fatalf("processed %d events by t=100 with Δ=10, want 10", count)
	}
	if n.Pending() == 0 {
		t.Fatal("bounded run drained the queue")
	}
}

func TestMetricsAccounting(t *testing.T) {
	n := New(DefaultLatency(), 9)
	recv := 0
	n.Register(2, func(ctx *Context, msg Message) { recv++ })
	m := n.Metrics()
	m.SetPhase(1)
	n.Send(1, 2, "X", nil, 100)
	n.RunUntilIdle()
	m.SetPhase(2)
	n.Send(1, 2, "Y", nil, 50)
	n.Send(1, 2, "Y", nil, 50)
	n.RunUntilIdle()

	if c := m.SentByNodes(1, []NodeID{1}); c.Messages != 1 || c.Bytes != 100 {
		t.Fatalf("label 1 sent = %+v", c)
	}
	if c := m.SentByNodes(2, []NodeID{1, 2}); c.Messages != 2 || c.Bytes != 100 {
		t.Fatalf("label 2 sent = %+v", c)
	}
	if c := m.SentByNodes(2, []NodeID{2}); c != (Counter{}) {
		t.Fatalf("receiver charged %+v sent traffic", c)
	}
	if recv != 3 {
		t.Fatalf("delivered %d, want 3", recv)
	}
	if tot := m.Total(); tot.Messages != 3 || tot.Bytes != 200 {
		t.Fatalf("total = %+v", tot)
	}
	if c := m.PhaseDropped(2); c != (Counter{}) {
		t.Fatalf("label 2 dropped = %+v on a fault-free network", c)
	}
	for _, ph := range []int{0, 3} {
		if c := m.SentByNodes(ph, []NodeID{1, 2}); c != (Counter{}) {
			t.Fatalf("label %d, never sent under, reads %+v", ph, c)
		}
	}

	// A reset zeroes the tables in place: the same two labels again, round
	// after round, hold what the first round held.
	held := heldCounters(m)
	for round := 0; round < 3; round++ {
		m.ResetPhases()
		for ph := range 3 {
			if c := m.SentByNodes(ph, []NodeID{1, 2}); c != (Counter{}) {
				t.Fatalf("label %d reads %+v after ResetPhases", ph, c)
			}
		}
		for _, ph := range []int{1, 2} {
			m.SetPhase(ph)
			n.Send(1, 2, "X", nil, 10)
			n.RunUntilIdle()
		}
		if got := heldCounters(m); got != held {
			t.Fatalf("reset %d: %d per-phase counters held, %d before", round+1, got, held)
		}
	}
	if c := m.SentByNodes(1, []NodeID{1}); c.Messages != 1 || c.Bytes != 10 {
		t.Fatalf("label 1 sent = %+v after ResetPhases", c)
	}
}

// heldCounters counts the per-(phase, node) counters m holds, in use or
// zeroed: what its per-phase accounting retains.
func heldCounters(m *Metrics) int {
	n := 0
	for _, t := range m.tables {
		n += cap(t.sent)
	}
	return n
}

func TestBroadcastHelper(t *testing.T) {
	n := New(DefaultLatency(), 11)
	recv := map[NodeID]int{}
	for id := NodeID(2); id <= 4; id++ {
		id := id
		n.Register(id, func(ctx *Context, msg Message) { recv[id]++ })
	}
	n.Register(1, func(ctx *Context, msg Message) {
		ctx.Broadcast([]NodeID{2, 3, 4}, "B", nil, 1)
	})
	n.Send(0, 1, "GO", nil, 0)
	n.RunUntilIdle()
	for id := NodeID(2); id <= 4; id++ {
		if recv[id] != 1 {
			t.Fatalf("node %d received %d", id, recv[id])
		}
	}
}
