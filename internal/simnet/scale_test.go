package simnet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// The paper-scale topologies used by the determinism tests: committees of
// 97 plus a 60-member referee set (the paper's c=97, RefSize=60), with the
// §III-B link classes. scaleComs = 200 is the 10× cell (m=20 stepped ×10);
// scaleBigComs = 1000 is the 50× ceiling cell (~97k nodes), gated behind
// CYCLEDGER_SCALE_BIG because a full drain takes minutes.
const (
	scaleComs    = 200
	scaleBigComs = 1000
	scaleCSize   = 97
	scaleRef     = 60
	scaleTotal   = scaleComs*scaleCSize + scaleRef
)

// scaleClassifier builds the link classifier for a coms-committee
// topology: committee member 0 is the "leader", 1..3 the "partial set".
func scaleClassifier(coms int) func(from, to NodeID) LinkClass {
	body := NodeID(coms * scaleCSize)
	return func(from, to NodeID) LinkClass {
		fRef, tRef := from >= body, to >= body
		if fRef && tRef {
			return LinkIntra
		}
		if !fRef && !tRef && int(from)/scaleCSize == int(to)/scaleCSize {
			return LinkIntra
		}
		fKey := fRef || int(from)%scaleCSize < 4
		tKey := tRef || int(to)%scaleCSize < 4
		if fKey && tKey {
			return LinkKey
		}
		return LinkPartial
	}
}

// runScaleGossip builds a coms-committee network, seeds committee-shaped
// gossip, drains it, and returns a fingerprint over every observable the
// determinism contract covers: clock, delivery counts, totals, and the
// full per-node sent counters and received tallies.
func runScaleGossip(t *testing.T, coms, parallelism int, shuffleReg bool) string {
	t.Helper()
	total := coms*scaleCSize + scaleRef
	lat := Latency{Delta: 10, Gamma: 40, PartialMax: 100, Classify: scaleClassifier(coms)}
	n := New(lat, 42)
	n.SetParallelism(parallelism)

	recv := make([]Counter, total) // a node's entry is written by its lane only
	handler := func(id NodeID) Handler {
		return func(ctx *Context, msg Message) {
			recv[id].add(msg.Size)
			if msg.Size <= 1 {
				return
			}
			// Deterministic fan-out to two pseudo-random peers.
			for j := 0; j < 2; j++ {
				to := NodeID((int(id)*31 + j*7919 + msg.Size*131) % total)
				ctx.Send(to, "gossip", nil, msg.Size-1)
			}
			if msg.Size == 3 {
				ctx.After(Time(int(id)%7+1), func(c *Context) {
					c.Send(NodeID((int(c.Node)+1)%total), "timer", nil, 1)
				})
			}
		}
	}

	ids := make([]NodeID, total)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	if shuffleReg {
		rand.New(rand.NewSource(99)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	for _, id := range ids {
		n.Register(id, handler(id))
	}

	// Every leader seeds a depth-6 wave into its committee and a
	// cross-committee wave to the next leader.
	for k := 0; k < coms; k++ {
		leader := NodeID(k * scaleCSize)
		n.Send(leader, leader+1, "seed", nil, 6)
		n.Send(leader, NodeID(((k+1)%coms)*scaleCSize), "seed", nil, 5)
	}
	n.RunUntilIdle()

	h := fnv.New64a()
	fmt.Fprintf(h, "t=%d delivered=%d dropped=%v total=%v late=%v;",
		n.Now(), n.delivered, n.Metrics().DroppedTotal(), n.Metrics().Total(), n.Metrics().LateTotal())
	for id := NodeID(0); id < NodeID(total); id++ {
		s := n.Metrics().SentByNodes(0, []NodeID{id})
		r := recv[id]
		if s.Messages|s.Bytes|r.Messages|r.Bytes != 0 {
			fmt.Fprintf(h, "%d:%d,%d,%d,%d;", id, s.Messages, s.Bytes, r.Messages, r.Bytes)
		}
	}
	return fmt.Sprintf("%x (delivered=%d)", h.Sum64(), n.delivered)
}

// TestScaleDeterminism10x: at the 10× paper-scale topology, a seeded run
// is byte-identical at parallelism 1, parallelism GOMAXPROCS, and with
// the node registration order shuffled.
func TestScaleDeterminism10x(t *testing.T) {
	if testing.Short() {
		t.Skip("10×-scale topology in -short mode")
	}
	sequential := runScaleGossip(t, scaleComs, 1, false)
	parallel := runScaleGossip(t, scaleComs, runtime.GOMAXPROCS(0), false)
	shuffled := runScaleGossip(t, scaleComs, runtime.GOMAXPROCS(0), true)
	if sequential != parallel {
		t.Errorf("parallel run diverged:\n par=1: %s\n par=N: %s", sequential, parallel)
	}
	if sequential != shuffled {
		t.Errorf("shuffled-registration run diverged:\n ordered:  %s\n shuffled: %s", sequential, shuffled)
	}
}

// TestScaleDeterminism50x is the scale-ceiling equivalence gate: the
// ~97k-node topology (m=1000, c=97, RefSize=60) must be byte-identical at
// parallelism 1, parallelism GOMAXPROCS, and with shuffled registration.
// Gated behind CYCLEDGER_SCALE_BIG=1 (the CI scale-big job sets it); the
// three full drains take minutes on a laptop.
func TestScaleDeterminism50x(t *testing.T) {
	if os.Getenv("CYCLEDGER_SCALE_BIG") == "" {
		t.Skip("50×-scale cell disabled; set CYCLEDGER_SCALE_BIG=1 to run")
	}
	if testing.Short() {
		t.Skip("50×-scale topology in -short mode")
	}
	sequential := runScaleGossip(t, scaleBigComs, 1, false)
	parallel := runScaleGossip(t, scaleBigComs, runtime.GOMAXPROCS(0), false)
	shuffled := runScaleGossip(t, scaleBigComs, runtime.GOMAXPROCS(0), true)
	if sequential != parallel {
		t.Errorf("parallel run diverged:\n par=1: %s\n par=N: %s", sequential, parallel)
	}
	if sequential != shuffled {
		t.Errorf("shuffled-registration run diverged:\n ordered:  %s\n shuffled: %s", sequential, shuffled)
	}
}

// TestEventPoolReuseRace exercises event and Context recycling under
// maximum parallelism — the -race CI job runs it to prove a pooled
// object is never touched by a worker after the single-threaded path
// reclaimed it. The expected delivery count pins the semantics.
func TestEventPoolReuseRace(t *testing.T) {
	lat := DefaultLatency()
	n := New(lat, 7)
	n.SetParallelism(8)
	const nodes = 64
	for i := 0; i < nodes; i++ {
		id := NodeID(i)
		n.Register(id, func(ctx *Context, msg Message) {
			if msg.Size <= 1 {
				return
			}
			ctx.Send(NodeID((int(id)+1)%nodes), "ring", nil, msg.Size-1)
			ctx.After(1, func(c *Context) {
				c.Send(NodeID((int(c.Node)+2)%nodes), "hop", nil, 1)
			})
		})
	}
	const depth = 50
	for i := 0; i < nodes; i++ {
		n.Send(NodeID(i), NodeID((i+1)%nodes), "ring", nil, depth)
	}
	n.RunUntilIdle()
	// Each seed spawns a depth-long chain; every chain hop past size 1
	// also schedules one timer which sends one more message.
	wantMsgs := uint64(nodes * (depth + (depth - 1)))
	wantTimers := uint64(nodes * (depth - 1))
	if got := n.delivered; got != wantMsgs+wantTimers {
		t.Fatalf("delivered %d events, want %d", got, wantMsgs+wantTimers)
	}
	if got := n.Metrics().Total().Messages; got != wantMsgs {
		t.Fatalf("sent %d messages, want %d", got, wantMsgs)
	}
}

// TestPhasesIncludeDroppedOnly: a phase label whose only traffic was lost
// (here a message delivered to a crashed node while label 2 was active)
// reads that loss, and the label it was sent under reads the send.
func TestPhasesIncludeDroppedOnly(t *testing.T) {
	n := New(DefaultLatency(), 3)
	n.Register(0, func(*Context, Message) {})
	n.Register(1, func(*Context, Message) {})
	n.SetFaults(crash(1, 0, 0))
	n.Metrics().SetPhase(1)
	n.Send(0, 1, "doomed", nil, 9)
	n.Metrics().SetPhase(2)
	n.RunUntilIdle()
	if c := n.Metrics().PhaseDropped(2); c.Messages != 1 || c.Bytes != 9 {
		t.Fatalf("PhaseDropped(2) = %+v, want 1 msg / 9 bytes", c)
	}
	if c := n.Metrics().SentByNodes(1, []NodeID{0}); c.Messages != 1 || c.Bytes != 9 {
		t.Fatalf("SentByNodes(1) = %+v, want 1 msg / 9 bytes", c)
	}
}

// TestSendAccountingAllocatesNothing: Network.send's accounting — each send
// charged to its sender under the current phase, each Fate drop to the
// phase, a step's late deliveries to the total — allocates nothing once a
// round's phase tables exist, round after round.
func TestSendAccountingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	n := New(DefaultLatency(), 17)
	n.SetFaults(Composite{NewLoss(0.3, 3), NewLag(0.3, 20, 4)})
	for id := NodeID(0); id < 2; id++ {
		n.Register(id, func(*Context, Message) {})
	}
	m := n.Metrics()
	round := func() {
		m.ResetPhases()
		for _, phase := range []int{0, 3, 6} {
			m.SetPhase(phase)
			for from := NodeID(0); from < 8; from++ {
				n.Send(from, from%2, "x", nil, 40)
			}
			n.RunUntilIdle()
		}
	}
	round() // grow the phase tables, the event pool and the queue
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a round of sends allocates %.1f times in accounting and delivery", allocs)
	}
	if m.DroppedTotal().Messages == 0 || m.LateTotal().Messages == 0 {
		t.Fatalf("faults did not bite: dropped %+v, late %+v", m.DroppedTotal(), m.LateTotal())
	}
}

// TestSetDownRecoveryWithFaultsNoSkipAlloc: with a fault model installed
// the dead-destination pre-pass always runs, but the skip buffer is
// reused — steady-state Steps still allocate nothing once warm.
func TestSetDownRecoveryWithFaultsNoSkipAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	n := New(DefaultLatency(), 13)
	n.SetFaults(NewLoss(0, 1)) // installed but lossless: pre-pass active every Step
	bounce := func(ctx *Context, msg Message) {
		if msg.Size > 1 {
			ctx.Send(msg.From, "pong", nil, msg.Size-1)
		}
	}
	n.Register(0, bounce)
	n.Register(1, bounce)
	for i := 0; i < 400; i++ {
		n.Send(0, 1, "ping", nil, 4)
		n.RunUntilIdle()
	}
	allocs := testing.AllocsPerRun(100, func() {
		n.Send(0, 1, "ping", nil, 4)
		n.RunUntilIdle()
	})
	if allocs > 0 {
		t.Fatalf("steady-state Step with idle fault model allocates %.1f/run, want 0", allocs)
	}
}

// TestAdaptiveSteadyStateNoAlloc: an ACTIVE Schedule — crash, mute, and
// directed-cut windows all in force while traffic flows — must
// not break the steady-state zero-allocation property. Fate and Down are
// pure window lookups and every effect goes through the lanes' reusable
// effect buffers and the event free list, so a warm network under attack
// allocates nothing. The same holds with no schedule installed, and at
// four lanes, where a tick whose events span lanes runs on the worker pool.
func TestAdaptiveSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	for _, c := range []struct {
		name     string
		schedule bool
		par      int
	}{
		{"schedule/par=1", true, 1},
		{"schedule/par=4", true, 4},
		{"none/par=1", false, 1},
		{"none/par=4", false, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := New(DefaultLatency(), 17)
			n.SetParallelism(c.par)
			if c.schedule {
				a := NewSchedule()
				a.Crash(2, 1, 0)                      // node 2 down for the whole run
				a.Mute(3, 1, 0)                       // node 3 gray: sends dropped, timers fire
				a.Cut([]NodeID{0}, []NodeID{4}, 1, 0) // directed 0→4 cut
				n.SetFaults(a)
			}
			bounce := func(ctx *Context, msg Message) {
				if msg.Size > 1 {
					ctx.Send(msg.From, "pong", nil, msg.Size-1)
				}
			}
			for id := NodeID(0); id < 5; id++ {
				n.Register(id, bounce)
			}
			drive := func() {
				n.Send(0, 1, "ping", nil, 4) // healthy bounce pair
				n.Send(0, 2, "ping", nil, 2) // into the crash window: dropped on delivery
				n.Send(3, 1, "ping", nil, 2) // from the muted node: dropped at send
				n.Send(0, 4, "ping", nil, 2) // across the cut: dropped at send
				n.RunUntilIdle()
			}
			for i := 0; i < 400; i++ {
				drive()
			}
			if c.schedule && n.Metrics().DroppedTotal().Messages == 0 {
				t.Fatal("adversary dropped nothing; the fault windows are not active")
			}
			allocs := testing.AllocsPerRun(100, drive)
			if allocs > 0 {
				t.Fatalf("steady-state Step allocates %.1f/run, want 0", allocs)
			}
		})
	}
}
