package transport_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cycledger/internal/simnet"
	"cycledger/internal/transport"
)

// note is a pointer-typed toy payload: a transport that passed it by
// reference instead of across the codec would hand the receiver the
// sender's own pointer.
type note struct{ text string }

// testCodec serialises the toy payloads these tests use (nil, string and
// *note), keeping the transport tests independent of the production wire
// codec.
type testCodec struct{}

func (testCodec) AppendEncode(buf []byte, v any) ([]byte, error) {
	switch s := v.(type) {
	case nil:
		return append(buf, 0), nil
	case string:
		buf = append(buf, 1)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
		return append(buf, s...), nil
	case *note:
		buf = append(buf, 2)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.text)))
		return append(buf, s.text...), nil
	}
	return nil, fmt.Errorf("testCodec: unregistered type %T", v)
}

func (testCodec) Decode(data []byte) (any, int, error) {
	if len(data) < 1 {
		return nil, 0, fmt.Errorf("testCodec: empty buffer")
	}
	switch data[0] {
	case 0:
		return nil, 1, nil
	case 1, 2:
		if len(data) < 5 {
			return nil, 0, fmt.Errorf("testCodec: truncated length")
		}
		n := int(binary.BigEndian.Uint32(data[1:]))
		if n > len(data)-5 {
			return nil, 0, fmt.Errorf("testCodec: truncated string")
		}
		if data[0] == 2 {
			return &note{text: string(data[5 : 5+n])}, 5 + n, nil
		}
		return string(data[5 : 5+n]), 5 + n, nil
	}
	return nil, 0, fmt.Errorf("testCodec: unknown tag %d", data[0])
}

// newLive builds a network with the live carrier installed on it.
func newLive(lat simnet.Latency, seed int64) (*simnet.Network, *transport.Live) {
	net := simnet.New(lat, seed)
	return net, transport.NewLive(testCodec{}, net)
}

// observed is what runScenario's own handlers and send audit saw, beside
// the network's ledger: events per phase, sends per tag (the audit runs on
// the serial send path), and deliveries per phase and node (a node's
// handler writes only its own entries).
type observed struct {
	counts [2]uint64
	tags   map[string]simnet.Counter
	recv   [2][5]simnet.Counter
}

// runScenario drives a small ping/pong/timer workload: jittered delays,
// handler-issued sends and timers, a phase change, an external timer, a
// modeled nil-payload broadcast, and a node that crashes between the
// phases — every behaviour the live carrier must reproduce. faults are the
// layers under the crash.
func runScenario(tr *simnet.Network, faults simnet.Composite) *observed {
	const n = 5
	obs := &observed{tags: map[string]simnet.Counter{}}
	phase := 0
	peers := make([]simnet.NodeID, n)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	if len(faults) > 0 {
		tr.SetFaults(faults)
	}
	tr.SetSendAudit(func(msg simnet.Message) {
		c := obs.tags[msg.Tag]
		c.Add(simnet.Counter{Messages: 1, Bytes: uint64(msg.Size)})
		obs.tags[msg.Tag] = c
	})
	for i := 0; i < n; i++ {
		tr.Register(peers[i], func(ctx *simnet.Context, msg simnet.Message) {
			obs.recv[phase][ctx.Node].Add(simnet.Counter{Messages: 1, Bytes: uint64(msg.Size)})
			switch msg.Tag {
			case "PING":
				ctx.Send(msg.From, "PONG", "pong:"+msg.Payload.(string), 9)
			case "PONG":
				if ctx.Node == 0 {
					ctx.After(3, func(c *simnet.Context) {
						c.Broadcast(peers[1:], "TICK", nil, 17)
					})
				}
			}
		})
	}
	tr.Metrics().SetPhase(1)
	for i := 1; i < n; i++ {
		tr.Send(0, peers[i], "PING", fmt.Sprintf("hello-%d", i), 5+i)
	}
	obs.counts[0] = tr.RunUntilIdle()

	tr.Metrics().SetPhase(2)
	phase = 1
	crash := simnet.NewSchedule()
	crash.Crash(3, tr.Now(), 0)
	tr.SetFaults(append(simnet.Composite{crash}, faults...))
	tr.Send(1, 0, "PING", "again", 10)
	tr.Send(1, 3, "PING", "to-the-dead", 11)
	tr.After(2, 7, func(c *simnet.Context) { c.Send(0, "PING", "from-timer", 12) })
	obs.counts[1] = tr.RunUntilIdle()
	return obs
}

// TestLiveMatchesSimnet is the oracle-parity check at the transport
// level: the same seeded scenario on the simulator and on the live
// transport must agree on virtual time, event counts, every ledger view —
// sends per phase and node, drops per phase, totals — and what the
// scenario's handlers and audit counted, deliveries and tags.
func TestLiveMatchesSimnet(t *testing.T) {
	const seed = 42
	lat := simnet.DefaultLatency()

	sim := simnet.New(lat, seed)
	net, live := newLive(lat, seed)

	want := snapshot(sim, runScenario(sim, nil))
	got := snapshot(net, runScenario(net, nil))
	if want != got {
		t.Errorf("live diverges from the simulator\n sim:\n%s live:\n%s", want, got)
	}
	if err := live.Err(); err != nil {
		t.Error(err)
	}
	if sim.Metrics().DroppedTotal().Messages == 0 {
		t.Error("scenario produced no drops; the down-node path went unexercised")
	}
}

// snapshot renders everything a run leaves observable on a transport —
// virtual time, every ledger view, and, when obs is not nil, what the
// scenario observed itself — so two runs compare with one string equality.
func snapshot(tr *simnet.Network, obs *observed) string {
	var b strings.Builder
	m := tr.Metrics()
	fmt.Fprintf(&b, "now %d total %+v dropped %+v late %+v\n",
		tr.Now(), m.Total(), m.DroppedTotal(), m.LateTotal())
	for phase := range 3 { // runFanout sends under label 0, runScenario under 1 and 2
		fmt.Fprintf(&b, "%d dropped %+v\n", phase, m.PhaseDropped(phase))
		for id := simnet.NodeID(0); id < 5; id++ {
			fmt.Fprintf(&b, "%d/%d sent %+v\n", phase, id, m.SentByNodes(phase, []simnet.NodeID{id}))
		}
	}
	if obs != nil {
		fmt.Fprintf(&b, "observed %+v\n", *obs)
	}
	return b.String()
}

// TestLiveMatchesSimnetFaulted is the parity check under a fault model:
// iid loss, beyond-bound lag and a crash/rejoin window are applied by the
// shared scheduler before the live transport's carrier sees a message, so
// both transports must agree on every observable, late and dropped
// traffic included.
func TestLiveMatchesSimnetFaulted(t *testing.T) {
	const seed = 42
	lat := simnet.DefaultLatency()
	// Each network gets its own instance: Loss and Lag own RNG state.
	none := func() simnet.Composite { return nil }
	faulted := func() simnet.Composite {
		churn := simnet.NewSchedule()
		churn.Crash(4, 5, 18)
		return simnet.Composite{simnet.NewLoss(0.05, 9), simnet.NewLag(0.3, 25, 10), churn}
	}
	for _, tc := range []struct {
		name   string
		faults func() simnet.Composite
	}{{"fault-free", none}, {"faulted", faulted}} {
		t.Run(tc.name, func(t *testing.T) {
			sim := simnet.New(lat, seed)
			net, live := newLive(lat, seed)
			simFaults := tc.faults()
			want := snapshot(sim, runScenario(sim, simFaults))
			got := snapshot(net, runScenario(net, tc.faults()))
			if want != got {
				t.Errorf("live diverges from the simulator\n sim:\n%s live:\n%s", want, got)
			}
			if simFaults != nil && (sim.Metrics().LateTotal().Messages == 0 || sim.Metrics().DroppedTotal().Messages < 2) {
				t.Errorf("fault model did not bite: late %+v dropped %+v", sim.Metrics().LateTotal(), sim.Metrics().DroppedTotal())
			}
			if err := live.Err(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLivePayloadIsolation checks that a payload reaches its handler only
// through the codec: a pointer sent over the live transport arrives as a
// different pointer with equal contents, so the scheduler's event never
// carried it.
func TestLivePayloadIsolation(t *testing.T) {
	net, _ := newLive(simnet.DefaultLatency(), 1)
	var got *note
	net.Register(0, func(ctx *simnet.Context, msg simnet.Message) { got = msg.Payload.(*note) })
	sent := &note{text: "by value"}
	net.Send(1, 0, "NOTE", sent, 13)
	net.RunUntilIdle()
	if got == nil {
		t.Fatal("handler never ran")
	}
	if got == sent {
		t.Fatal("handler received the sender's own pointer: the payload bypassed the link")
	}
	if *got != *sent {
		t.Fatalf("payload changed in flight: sent %+v, got %+v", *sent, *got)
	}
}

// TestLiveSendAudit checks the audit hook observes live sends with the
// declared size, before delivery.
func TestLiveSendAudit(t *testing.T) {
	net, _ := newLive(simnet.DefaultLatency(), 1)
	net.Register(0, func(ctx *simnet.Context, msg simnet.Message) {})
	var seen []simnet.Message
	net.SetSendAudit(func(m simnet.Message) { seen = append(seen, m) })
	net.Send(1, 0, "PING", "x", 6)
	net.RunUntilIdle()
	if len(seen) != 1 || seen[0].Tag != "PING" || seen[0].Size != 6 {
		t.Fatalf("audit saw %v", seen)
	}
}

// countingCodec is testCodec counting its AppendEncode calls, all of which
// come from the serial send drain.
type countingCodec struct {
	testCodec
	encodes *int
}

func (c countingCodec) AppendEncode(buf []byte, v any) ([]byte, error) {
	*c.encodes++
	return c.testCodec.AppendEncode(buf, v)
}

// crashAfter takes one node down for good once n sends have been decided
// by the serial drain. The count makes Down impure, which the Faults
// contract forbids a real model; it is what lets a test stop a sender in
// the middle of one fan-out, and on one lane it is as deterministic as the
// run.
type crashAfter struct {
	node    simnet.NodeID
	n       int
	decided int
}

func (f *crashAfter) Fate(simnet.Time, simnet.NodeID, simnet.NodeID) simnet.Fate {
	f.decided++
	return simnet.Fate{}
}

func (f *crashAfter) Down(_ simnet.Time, node simnet.NodeID) bool {
	return node == f.node && f.decided >= f.n
}

// runFanout drives two broadcasts from node 0 to tos — a string at tick 1,
// a *note at tick 3 — each answered by every recipient with a two-way
// broadcast of its own, and returns what each handler was handed, in
// delivery order. Node 0 has a handler, and so has every node of tos below
// 6; a higher one has none.
func runFanout(net *simnet.Network, tos []simnet.NodeID, faults simnet.Faults) []string {
	var log []string
	if faults != nil {
		net.SetFaults(faults)
	}
	for _, id := range append([]simnet.NodeID{0}, tos...) {
		if id >= 6 {
			continue
		}
		net.Register(id, func(ctx *simnet.Context, msg simnet.Message) {
			text, _ := msg.Payload.(string)
			if n, ok := msg.Payload.(*note); ok {
				text = "*" + n.text
			}
			log = append(log, fmt.Sprintf("%d<-%d %s %q %d", ctx.Node, msg.From, msg.Tag, text, msg.Size))
			if msg.Tag == "CAST" {
				ctx.Broadcast([]simnet.NodeID{0, tos[0]}, "ACK", "ack:"+text, 9+len(text))
			}
		})
	}
	net.After(0, 1, func(c *simnet.Context) { c.Broadcast(tos, "CAST", "first", 10) })
	net.After(0, 3, func(c *simnet.Context) { c.Broadcast(tos, "CAST", &note{text: "second"}, 11) })
	net.RunUntilIdle()
	return log
}

// TestLiveFanoutEncodesOnce is the carrier's side of "a broadcast is
// serialised once", counted: every Context.Broadcast costs one AppendEncode
// however many nodes it reaches, and still exactly one when its first copy
// never reached the carrier (lost to Fate), when a copy is addressed to a
// node with no handler (the "unattached" cases, named from when such a
// node had no process either), when the sender goes down part-way
// through, or when a recipient is down by the time its copy arrives. Each
// run must match the simulator in everything observable, payloads
// included.
func TestLiveFanoutEncodesOnce(t *testing.T) {
	lat := simnet.DefaultLatency()
	peers := []simnet.NodeID{1, 2, 3, 4}
	for _, tc := range []struct {
		name   string
		tos    []simnet.NodeID
		faults func() simnet.Faults
		// broadcasts with at least one copy framed
		broadcasts int
		dropped    uint64
	}{
		{name: "fault-free", tos: peers, faults: func() simnet.Faults { return nil }, broadcasts: 2 + 8},
		{name: "unattached-first", tos: []simnet.NodeID{7, 1, 2, 3}, faults: func() simnet.Faults { return nil }, broadcasts: 2 + 6},
		{name: "unattached-middle", tos: []simnet.NodeID{1, 7, 2, 3}, faults: func() simnet.Faults { return nil }, broadcasts: 2 + 6},
		// The link 0→1 carries the first copy of both of node 0's broadcasts.
		{name: "first-copy-lost", tos: peers, faults: func() simnet.Faults {
			cut := simnet.NewSchedule()
			cut.Cut([]simnet.NodeID{0}, peers[:1], 0, 0)
			return cut
		}, broadcasts: 2 + 6, dropped: 2},
		// Node 0 stops for good after two copies of its first broadcast; the
		// acknowledgements addressed to it die at delivery.
		{name: "sender-down-midway", tos: peers, faults: func() simnet.Faults {
			return &crashAfter{node: 0, n: 2}
		}, broadcasts: 1 + 2, dropped: 2},
		// Node 3 is down from tick 2: every copy sent to it is discarded.
		{name: "destination-down", tos: peers, faults: func() simnet.Faults {
			crash := simnet.NewSchedule()
			crash.Crash(3, 2, 0)
			return crash
		}, broadcasts: 2 + 6, dropped: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := simnet.New(lat, 7)
			want := runFanout(sim, tc.tos, tc.faults())

			var encodes int
			net := simnet.New(lat, 7)
			live := transport.NewLive(countingCodec{encodes: &encodes}, net)
			got := runFanout(net, tc.tos, tc.faults())

			if !slices.Equal(want, got) {
				t.Errorf("handlers saw different messages\n sim:  %q\n live: %q", want, got)
			}
			if a, b := snapshot(sim, nil), snapshot(net, nil); a != b {
				t.Errorf("live diverges from the simulator\n sim:\n%s live:\n%s", a, b)
			}
			if d := sim.Metrics().DroppedTotal().Messages; d != tc.dropped {
				t.Errorf("%d messages dropped, want %d: the scenario is not the one described", d, tc.dropped)
			}
			if encodes != tc.broadcasts {
				t.Errorf("%d AppendEncode calls for %d broadcasts", encodes, tc.broadcasts)
			}
			if err := live.Err(); err != nil {
				t.Error(err)
			}
		})
	}
}
