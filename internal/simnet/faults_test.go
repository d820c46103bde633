package simnet

import (
	"fmt"
	"reflect"
	"testing"
)

// echoNet builds a network where every node in [0, n) records deliveries.
func echoNet(lat Latency, seed int64, n int) (*Network, map[NodeID]int) {
	net := New(lat, seed)
	recv := map[NodeID]int{}
	for id := NodeID(0); id < NodeID(n); id++ {
		id := id
		net.Register(id, func(ctx *Context, msg Message) { recv[id]++ })
	}
	return net, recv
}

// crash returns a schedule holding one crash window.
func crash(node NodeID, from, to Time) *Schedule {
	s := NewSchedule()
	s.Crash(node, from, to)
	return s
}

// partition returns a schedule cutting a from b both ways in [from, to).
func partition(a, b []NodeID, from, to Time) *Schedule {
	s := NewSchedule()
	s.Cut(a, b, from, to)
	s.Cut(b, a, from, to)
	return s
}

// TestNoFaultsByteIdentical: installing an observer that never acts — an
// empty Schedule, a send audit, or both — changes nothing at any lane
// count: every run is event-for-event identical to the bare one-lane run,
// with the same delivery times and tags and the same totals.
func TestNoFaultsByteIdentical(t *testing.T) {
	type delivery struct {
		at  Time
		tag string
	}
	type outcome struct {
		log   [][]delivery // per node, in delivery order
		total Counter
	}
	run := func(t *testing.T, faults Faults, audit bool, par int) outcome {
		n := New(DefaultLatency(), 1234)
		n.SetParallelism(par)
		if faults != nil {
			n.SetFaults(faults)
		}
		audited := 0
		if audit {
			n.SetSendAudit(func(Message) { audited++ })
		}
		const nodes = 10
		log := make([][]delivery, nodes) // a node's slice is written by its lane only
		for id := NodeID(0); id < nodes; id++ {
			id := id
			n.Register(id, func(ctx *Context, msg Message) {
				log[id] = append(log[id], delivery{ctx.Now(), msg.Tag})
				if ctx.Now() < 100 {
					tag := "RING"
					if id%2 == 1 {
						tag = "HOP"
					}
					ctx.Send((id+1)%nodes, tag, nil, 7)
				}
			})
		}
		for id := NodeID(0); id < nodes; id += 3 {
			n.Send(id, id, "RING", nil, 7)
		}
		n.RunUntilIdle()
		m := n.Metrics()
		if audit && uint64(audited) != m.Total().Messages {
			t.Fatalf("audit saw %d sends, metrics %d", audited, m.Total().Messages)
		}
		return outcome{log, m.Total()}
	}
	want := run(t, nil, false, 1)
	if want.total.Messages == 0 {
		t.Fatal("the reference run sent nothing")
	}
	for _, c := range []struct {
		name   string
		faults func() Faults
		audit  bool
	}{
		{"nil", func() Faults { return nil }, false},
		{"empty-schedule", func() Faults { return NewSchedule() }, false},
		{"audit", func() Faults { return nil }, true},
		{"audit+empty-schedule", func() Faults { return NewSchedule() }, true},
	} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", c.name, par), func(t *testing.T) {
				got := run(t, c.faults(), c.audit, par)
				if got.total != want.total {
					t.Fatalf("Total() = %+v, want %+v", got.total, want.total)
				}
				if !reflect.DeepEqual(got.log, want.log) {
					t.Fatalf("deliveries %v, want %v", got.log, want.log)
				}
			})
		}
	}
}

func TestLossDropsAndAccounts(t *testing.T) {
	n, recv := echoNet(DefaultLatency(), 5, 2)
	n.SetFaults(NewLoss(1, 99)) // drop everything
	n.Metrics().SetPhase(1)
	for i := 0; i < 20; i++ {
		n.Send(0, 1, "X", nil, 10)
	}
	n.RunUntilIdle()
	if recv[1] != 0 {
		t.Fatalf("lossy link delivered %d messages", recv[1])
	}
	// Sender charged, and the phase's dropped counter.
	if c := n.Metrics().SentByNodes(1, []NodeID{0}); c.Messages != 20 || c.Bytes != 200 {
		t.Fatalf("sent = %+v, want 20 msgs / 200 bytes", c)
	}
	if c := n.Metrics().PhaseDropped(1); c.Messages != 20 || c.Bytes != 200 {
		t.Fatalf("dropped = %+v, want 20 msgs / 200 bytes", c)
	}
	if c := n.Metrics().DroppedTotal(); c.Messages != 20 || c.Bytes != 200 {
		t.Fatalf("dropped total = %+v", c)
	}
}

func TestLossPartial(t *testing.T) {
	n, recv := echoNet(DefaultLatency(), 6, 2)
	n.SetFaults(NewLoss(0.5, 7))
	const sent = 400
	for i := 0; i < sent; i++ {
		n.Send(0, 1, "X", nil, 1)
	}
	n.RunUntilIdle()
	if recv[1] == 0 || recv[1] == sent {
		t.Fatalf("p=0.5 loss delivered %d of %d", recv[1], sent)
	}
	if dropped := n.Metrics().DroppedTotal().Messages; uint64(recv[1])+dropped != sent {
		t.Fatalf("delivered %d + dropped %d ≠ %d", recv[1], dropped, sent)
	}
}

func TestLagDelaysBeyondBound(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n := New(lat, 8)
	var at Time
	n.Register(1, func(ctx *Context, msg Message) { at = ctx.Now() })
	n.SetFaults(NewLag(1, 25, 3)) // every message held 25 ticks extra
	n.Send(0, 1, "X", nil, 4)
	n.RunUntilIdle()
	if want := lat.Delta + 25; at != want {
		t.Fatalf("lagged delivery at %d, want %d", at, want)
	}
	if c := n.Metrics().LateTotal(); c.Messages != 1 || c.Bytes != 4 {
		t.Fatalf("late total = %+v", c)
	}
}

func TestPartitionHeals(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 9, 4)
	// {0,1} vs {2,3}, healing at t=50.
	n.SetFaults(partition([]NodeID{0, 1}, []NodeID{2, 3}, 0, 50))

	n.Send(0, 1, "IN", nil, 1)  // same side: delivered
	n.Send(0, 2, "OUT", nil, 1) // across the cut: dropped
	n.RunUntilIdle()
	if recv[1] != 1 || recv[2] != 0 {
		t.Fatalf("pre-heal recv = %v", recv)
	}

	// After the heal tick the cut is gone.
	n.After(0, 60, func(ctx *Context) { ctx.Send(2, "OUT", nil, 1) })
	n.RunUntilIdle()
	if recv[2] != 1 {
		t.Fatalf("post-heal recv = %v", recv)
	}
}

func TestPartitionUnlistedNodesFormImplicitGroup(t *testing.T) {
	n, recv := echoNet(DefaultLatency(), 10, 4)
	n.SetFaults(partition([]NodeID{0}, []NodeID{1, 2, 3}, 0, 0)) // never heals
	n.Send(1, 2, "X", nil, 1)                                    // same side: delivered
	n.Send(0, 3, "X", nil, 1)                                    // across: dropped
	n.RunUntilIdle()
	if recv[2] != 1 || recv[3] != 0 {
		t.Fatalf("recv = %v", recv)
	}
}

func TestChurnCrashAndRejoin(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 11, 2)
	n.SetFaults(crash(1, 5, 40))

	// Delivered at t=Δ=10 while node 1 is down → dropped at delivery.
	n.Send(0, 1, "X", nil, 1)
	// Sent from inside the down window → never transmitted.
	n.After(0, 20, func(ctx *Context) {})
	n.RunUntilIdle()
	if recv[1] != 0 {
		t.Fatalf("down node received %d", recv[1])
	}
	if c := n.Metrics().DroppedTotal(); c.Messages != 1 {
		t.Fatalf("dropped = %+v, want 1 (the delivery into the window)", c)
	}

	// After rejoin the node receives again.
	n.After(0, 50, func(ctx *Context) { ctx.Send(1, "X", nil, 1) })
	n.RunUntilIdle()
	if recv[1] != 1 {
		t.Fatalf("rejoined node received %d", recv[1])
	}
}

func TestChurnCrashedSenderTransmitsNothing(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 12, 2)
	n.Metrics().SetPhase(1)
	n.SetFaults(crash(0, 0, 0)) // down forever
	n.Send(0, 1, "X", nil, 1)
	n.RunUntilIdle()
	if recv[1] != 0 {
		t.Fatal("message from a crashed sender was delivered")
	}
	if c := n.Metrics().SentByNodes(1, []NodeID{0}); c.Messages != 0 {
		t.Fatalf("crashed sender charged %+v sent traffic", c)
	}
	// Timers owned by a crashed node do not fire.
	fired := false
	n.After(0, 3, func(ctx *Context) { fired = true })
	n.RunUntilIdle()
	if fired {
		t.Fatal("timer fired on a crashed node")
	}
}

func TestCompositeMerges(t *testing.T) {
	n, recv := echoNet(DefaultLatency(), 13, 3)
	n.SetFaults(Composite{
		NewLoss(1, 1), // drops everything
		crash(2, 0, 0),
	})
	n.Send(0, 1, "X", nil, 1)
	n.RunUntilIdle()
	if recv[1] != 0 {
		t.Fatal("composite did not apply the loss layer")
	}
	f := Composite{crash(2, 0, 0)}
	if !f.Down(10, 2) || f.Down(10, 1) {
		t.Fatal("composite Down wrong")
	}
}

func TestFaultDeterminismAcrossParallelism(t *testing.T) {
	// The faulty engine must stay byte-deterministic at any worker count.
	run := func(par int) (uint64, Counter, Counter) {
		n := New(DefaultLatency(), 77)
		n.SetParallelism(par)
		s := crash(3, 30, 90)
		s.Crash(7, 10, 0)
		s.CrashEvery(11, 4, 25, 10)
		n.SetFaults(Composite{NewLoss(0.2, 5), s})
		for id := NodeID(0); id < 30; id++ {
			id := id
			n.Register(id, func(ctx *Context, msg Message) {
				if ctx.Now() < 60 {
					ctx.Broadcast([]NodeID{(id + 1) % 30, (id + 2) % 30}, "G", nil, 3)
				}
			})
		}
		for id := NodeID(0); id < 30; id++ {
			n.Send(id, id, "G", nil, 3)
		}
		n.RunUntilIdle()
		return n.delivered, n.Metrics().DroppedTotal(), n.Metrics().Total()
	}
	d1, x1, c1 := run(1)
	d8, x8, c8 := run(8)
	if d1 != d8 || x1 != x8 || c1 != c8 {
		t.Fatalf("faulty run diverged across parallelism: (%d,%v,%v) vs (%d,%v,%v)", d1, x1, c1, d8, x8, c8)
	}
	if x1.Messages == 0 {
		t.Fatal("no drops under a 20% loss model")
	}
}

func TestOneWayPartitionAsymmetry(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 21, 4)
	// 0,1 → 2,3 dropped from t=0 until t=50; the reverse always delivers.
	s := NewSchedule()
	s.Cut([]NodeID{0, 1}, []NodeID{2, 3}, 0, 50)
	n.SetFaults(s)

	n.Send(0, 2, "A2B", nil, 1) // cut direction: dropped
	n.Send(2, 0, "B2A", nil, 1) // reverse: delivered
	n.Send(0, 1, "IN", nil, 1)  // within the src group: delivered
	n.Send(2, 3, "IN", nil, 1)  // within the dst group: delivered
	n.RunUntilIdle()
	if recv[2] != 0 {
		t.Fatalf("cut direction delivered %d messages", recv[2])
	}
	if recv[0] != 1 || recv[1] != 1 || recv[3] != 1 {
		t.Fatalf("non-cut directions: recv = %v", recv)
	}
	if c := n.Metrics().DroppedTotal(); c.Messages != 1 {
		t.Fatalf("dropped = %+v, want 1", c)
	}

	// After the heal tick the cut direction delivers too.
	n.After(0, 60, func(ctx *Context) { ctx.Send(2, "A2B", nil, 1) })
	n.RunUntilIdle()
	if recv[2] != 1 {
		t.Fatalf("post-heal recv = %v", recv)
	}
}

func TestOneWayPartitionStartTick(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 22, 2)
	s := NewSchedule()
	s.Cut([]NodeID{0}, []NodeID{1}, 30, 60)
	n.SetFaults(s)
	n.Send(0, 1, "EARLY", nil, 1)                                      // before the cut starts: delivered
	n.After(0, 40, func(ctx *Context) { ctx.Send(1, "MID", nil, 1) })  // inside: dropped
	n.After(0, 70, func(ctx *Context) { ctx.Send(1, "LATE", nil, 1) }) // after heal: delivered
	n.RunUntilIdle()
	if dropped := n.Metrics().DroppedTotal().Messages; recv[1] != 2 || dropped != 1 {
		t.Fatalf("recv=%d dropped=%d, want 2 delivered / 1 dropped", recv[1], dropped)
	}
}

func TestGrayFailureReceivesButNeverSends(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 23, 3)
	n.Metrics().SetPhase(1)
	s := NewSchedule()
	s.Mute(1, 0, 0)
	n.SetFaults(s)

	// Deliveries TO the gray node proceed; its timers fire.
	n.Send(0, 1, "IN", nil, 5)
	fired := false
	n.After(1, 3, func(ctx *Context) { fired = true })
	// Everything FROM the gray node is lost in flight.
	n.Send(1, 2, "OUT", nil, 7)
	n.Send(1, 0, "OUT", nil, 7)
	n.RunUntilIdle()

	if recv[1] != 1 {
		t.Fatalf("gray node received %d, want 1 (gray ≠ crashed)", recv[1])
	}
	if !fired {
		t.Fatal("gray node's timer did not fire")
	}
	if recv[0] != 0 || recv[2] != 0 {
		t.Fatalf("gray node's sends were delivered: recv = %v", recv)
	}
	// Accounting: the gray node's traffic is charged sent + dropped.
	if c := n.Metrics().SentByNodes(1, []NodeID{1}); c.Messages != 2 || c.Bytes != 14 {
		t.Fatalf("gray sent = %+v, want 2 msgs / 14 bytes", c)
	}
	if c := n.Metrics().PhaseDropped(1); c.Messages != 2 || c.Bytes != 14 {
		t.Fatalf("dropped = %+v, want 2 msgs / 14 bytes", c)
	}
}

func TestLaggedMessageToCrashedNodeIsDroppedNotLate(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 14, 2)
	n.SetFaults(Composite{
		NewLag(1, 30, 3), // every message held 30 ticks extra
		crash(1, 0, 0),   // dest down forever
	})
	n.Send(0, 1, "X", nil, 4)
	n.RunUntilIdle()
	if recv[1] != 0 {
		t.Fatal("crashed node received a message")
	}
	if c := n.Metrics().LateTotal(); c.Messages != 0 {
		t.Fatalf("undelivered message counted late: %+v", c)
	}
	if c := n.Metrics().DroppedTotal(); c.Messages != 1 {
		t.Fatalf("dropped total = %+v, want 1", c)
	}
}
