// Package simnet is a deterministic discrete-event network simulator
// implementing the paper's network model (§III-B): synchronous links with
// delay bound Δ inside a committee, synchronous links with a larger bound Γ
// among key members (leaders, partial sets, referee members), and
// partially-synchronous links everywhere else. The adversary's power to
// reorder honest messages (§III-C) is modelled by per-message delay jitter
// within the synchrony bound, derived from the seed and the message's
// scheduling key by a pure hash (DrawKeyed) — no shared RNG stream, so any
// number of worker lanes can compute delays independently.
//
// The simulator is the measurement substrate for Table II: it accounts
// sent messages and bytes per (phase, node), which the protocol layer
// aggregates per role, and lost traffic per phase.
//
// A pluggable fault model (SetFaults) can additionally drop messages in
// flight, delay them beyond the synchrony bound, or crash and rejoin nodes
// on a schedule — see the Faults interface and the Loss, Lag, Schedule,
// and Composite implementations. A model that never acts gives the same
// run as no model.
//
// The scheduler keeps one clock, one calendar queue and one event free
// list, and only the goroutine driving the Network touches them (see
// ARCHITECTURE.md, "One queue; lanes run handlers"). A step pops one tick's
// batch in (ks, kc) scheduling-key order, gives every event its seq,
// decides which events run, and hands each worker lane the events of the
// nodes it owns; lanes only run handlers, recording their effects. After
// the execution barrier the driving goroutine applies the effects in batch
// order — timers pushed, sends routed through send, the one function that
// routes every message, external or handler-made, fault model or not.
// Determinism is carried by the scheduling key — a pure function of the
// event's causal origin — so a seeded run produces identical results at
// any lane count and any registration order. Steady-state message traffic
// allocates nothing.
package simnet

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Time is virtual simulation time, in abstract ticks.
type Time int64

// NodeID identifies a simulated node.
type NodeID int32

// Message is a delivered protocol message.
type Message struct {
	From    NodeID
	To      NodeID
	Tag     string // protocol tag, e.g. "PROPOSE"; also the metrics key
	Payload any
	Size    int // abstract wire size in bytes, for traffic accounting
}

// Handler processes one delivered message. All sends and timers must go
// through ctx so parallel execution stays deterministic.
type Handler func(ctx *Context, msg Message)

// LinkClass is the synchrony class of a link, per §III-B.
type LinkClass int

const (
	// LinkIntra is a well-connected intra-committee link (delay ≤ Δ).
	LinkIntra LinkClass = iota
	// LinkKey connects two key members across committees (delay ≤ Γ).
	LinkKey
	// LinkPartial is any other link: partially synchronous.
	LinkPartial
)

// Latency configures per-class delay bounds. Every message on a class-X
// link is delivered after a delay drawn uniformly from [1, bound(X)] —
// the adversary choosing the schedule within the synchrony bound.
type Latency struct {
	Delta         Time // Δ: intra-committee bound
	Gamma         Time // Γ: key-member bound (Γ ≥ Δ in the paper)
	PartialMax    Time // worst-case partial-synchrony delay used in simulation
	Classify      func(from, to NodeID) LinkClass
	Deterministic bool // if true, always use the full bound (no jitter)
}

// DefaultLatency returns the bounds used throughout the benchmarks:
// Δ = 10, Γ = 40, partial max = 100, with all links intra unless a
// classifier is installed.
func DefaultLatency() Latency {
	return Latency{Delta: 10, Gamma: 40, PartialMax: 100}
}

func (l Latency) bound(from, to NodeID) Time {
	class := LinkIntra
	if l.Classify != nil {
		class = l.Classify(from, to)
	}
	switch class {
	case LinkIntra:
		return l.Delta
	case LinkKey:
		return l.Gamma
	default:
		return l.PartialMax
	}
}

// mix64 is the splitmix64 finalizer: a fast invertible hash whose output
// bits all depend on all input bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// DrawKeyed derives the delivery delay for a message on the (from, to)
// link: uniform in [1, bound], or exactly the bound when the model is
// Deterministic. The draw is a pure hash of (seed, ks, kc) — the run seed
// and the message's scheduling key — so any goroutine can compute it
// without touching shared RNG state (same seed, same key, same delay).
func (l Latency) DrawKeyed(seed, ks uint64, kc uint32, from, to NodeID) Time {
	b := l.bound(from, to)
	if b < 1 {
		b = 1
	}
	if l.Deterministic {
		return b
	}
	x := mix64(seed ^ ks*0x9E3779B97F4A7C15 ^ (uint64(kc)+1)*0xD6E8FEB86659FD93)
	return Time(x%uint64(b)) + 1
}

type eventKind uint8

const (
	evMessage eventKind = iota
	evTimer
)

// event is one scheduled delivery, ordered by its tick and its scheduling
// key (ks, kc), assigned at creation: ks is the seq of the event that
// produced it (or a fresh counter value for external Send/After, with
// kc = 0) and kc is the index among that producer's effects. An event's
// seq is drawn from the same counter when its tick is popped: the step
// takes one value per batch position, in (ks, kc) order, skipped events
// included. The key is a pure function of causal origin — independent of
// which lane ran the producer and of the real-time interleaving of lanes —
// and globally unique, because every counter value seeds the keys of
// exactly one event's effects. While it waits in a calendar slot, next
// links it to the slot's following event.
type event struct {
	at   Time
	ks   uint64
	kc   uint32
	kind eventKind
	late bool   // held beyond the synchrony bound by the fault model
	node NodeID // destination (message) or owner (timer)
	next *event // the next event of its calendar slot (nil outside one)
	// msg.Payload is, with a Carrier installed, the frame Ship made of the
	// payload (nil if it made none).
	msg Message
	fn  func(*Context)
}

// eventHeap orders events by (at, ks, kc). It backs the calendar queue's
// far-future overflow and serves as the ordering oracle in tests.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return keyLess(h[i], h[j]) < 0
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// lane is one execution shard of a tick's batch: the batch positions of
// the events its nodes own, and the one reusable Context their handlers
// write effects into. While the lanes execute, a lane is touched only by
// the worker running it; the driving goroutine fills pos before and reads
// and empties ctx.out after, so no locks are needed.
type lane struct {
	pos []int32 // batch positions this lane runs this tick, ascending
	ctx Context // every effect its events produced this tick, in order
}

// span locates one batch event's effects: the lane that ran it (-1 if it
// did not run) and the range of that lane's effect buffer it wrote.
type span struct {
	lane   int32
	lo, hi int32
}

// Network is the simulator instance.
type Network struct {
	latency   Latency
	seed      uint64 // raw seed fed to DrawKeyed
	now       Time
	ctr       uint64        // unified key/sequence counter (see event)
	handlers  []Handler     // indexed by NodeID
	faults    Faults        // nil = fault-free
	sendAudit func(Message) // optional per-send assertion hook (size audits in tests)
	carrier   Carrier       // nil = payloads ride in the event (the simulator proper)
	carried   bool          // the carrier framed a message of the current run of same sends
	metrics   *Metrics
	delivered uint64

	q      *calQueue
	freeEv []*event // event pool
	batch  []*event // the current tick's events, key-sorted by popBatch
	spans  []span   // the current tick's effects, per batch position
	lanes  []*lane
	stepWG sync.WaitGroup
}

// New creates a network with the given latency model and seed.
func New(latency Latency, seed int64) *Network {
	h := latency.PartialMax
	if latency.Gamma > h {
		h = latency.Gamma
	}
	if latency.Delta > h {
		h = latency.Delta
	}
	return &Network{
		latency: latency,
		seed:    uint64(seed),
		metrics: new(Metrics),
		// Cover the protocol's timer horizon (up to 4Γ phase guards and 6Δ
		// watchdog sweeps) so only fault-model lag overflows to the heap.
		q:     newCalQueue(4*h + 64),
		lanes: []*lane{{}},
	}
}

// SetParallelism sets the worker-lane count. k ≤ 0 selects GOMAXPROCS.
// Lanes hold nothing between steps — every pending event is in the one
// queue — so it may be called at any point between runs.
func (n *Network) SetParallelism(k int) {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	for len(n.lanes) < k {
		n.lanes = append(n.lanes, &lane{})
	}
	n.lanes = n.lanes[:k]
}

// Register installs the handler for a node. Re-registering replaces it
// (used when a node changes role between rounds).
func (n *Network) Register(id NodeID, h Handler) {
	if id < 0 {
		panic("simnet: Register with negative NodeID")
	}
	for int(id) >= len(n.handlers) {
		n.handlers = append(n.handlers, nil)
	}
	n.handlers[id] = h
}

func (n *Network) handlerOf(id NodeID) Handler {
	if id >= 0 && int(id) < len(n.handlers) {
		return n.handlers[id]
	}
	return nil
}

// newEvent takes an event from the free list (or allocates the first
// time).
func (n *Network) newEvent() *event {
	if k := len(n.freeEv) - 1; k >= 0 {
		ev := n.freeEv[k]
		n.freeEv[k] = nil
		n.freeEv = n.freeEv[:k]
		return ev
	}
	return &event{}
}

func (n *Network) freeEvent(ev *event) {
	*ev = event{} // drop payload/fn references before pooling
	n.freeEv = append(n.freeEv, ev)
}

// SetFaults installs a fault model (nil removes it). Install before
// traffic starts; the model is read without synchronisation during runs.
func (n *Network) SetFaults(f Faults) { n.faults = f }

// SetSendAudit installs a hook observing every message at the moment it is
// sent, before fault fates or delays are drawn. Tests use it to cross-check
// each Send's declared Size against wire.Size; nil removes the hook. The
// hook must not re-enter the Network.
func (n *Network) SetSendAudit(fn func(Message)) { n.sendAudit = fn }

// Carrier moves message payloads between nodes as bytes: the live
// transport installs one so that every payload crosses its codec while the
// Network keeps the clock, the queue, the delay draw, the fault model and
// the accounting. With a carrier installed the payload an event holds is
// the frame Ship made of the message's payload, and its delivery hands the
// frame to Deliver.
type Carrier interface {
	// Ship returns the frame that carries msg, or nil if it cannot make
	// one. It is called from the serial send path (see Faults), after the
	// audit, crash and Fate checks. A message without a frame still
	// advances the clock and the delivery count, but no handler runs for
	// it.
	//
	// same reports that msg differs from the last message this carrier
	// framed only in its destination — a later destination of one
	// Broadcast — so the carrier may return that frame again. A
	// broadcast's earlier copies that never reached the carrier (lost to
	// Fate, sent while the sender was down, or not framed) do not count:
	// the first copy it frames has same false.
	Ship(msg Message, same bool) any
	// Deliver runs h for node ctx.Node on the message that msg carries:
	// msg is the event's message, its Payload the frame Ship returned.
	// Lanes call it concurrently, never twice at once for one node.
	Deliver(ctx *Context, msg Message, h Handler)
}

// SetCarrier installs the payload carrier (nil restores in-event payloads).
// Install before traffic starts.
func (n *Network) SetCarrier(c Carrier) { n.carrier = c }

// Metrics exposes the traffic accounting.
func (n *Network) Metrics() *Metrics { return n.metrics }

// Now returns the current virtual time.
func (n *Network) Now() Time { return n.now }

// Down reports whether the installed fault model has the node down now;
// false without a model.
func (n *Network) Down(id NodeID) bool { return n.faults != nil && n.faults.Down(n.now, id) }

// Send enqueues a message from outside any handler (e.g. test drivers and
// round orchestration) under a fresh scheduling key. The key is consumed
// only if the message is scheduled — one lost to the fault model leaves the
// counter untouched.
func (n *Network) Send(from, to NodeID, tag string, payload any, size int) {
	if n.send(Message{From: from, To: to, Tag: tag, Payload: payload, Size: size}, n.ctr, 0, false) {
		n.ctr++
	}
}

// Broadcast is Send to each destination in turn, known to carry one
// payload (see Context.Broadcast).
func (n *Network) Broadcast(from NodeID, tos []NodeID, tag string, payload any, size int) {
	for i, to := range tos {
		if n.send(Message{From: from, To: to, Tag: tag, Payload: payload, Size: size}, n.ctr, 0, i > 0) {
			n.ctr++
		}
	}
}

// After schedules fn on the given node after delay d.
func (n *Network) After(node NodeID, d Time, fn func(*Context)) {
	ev := n.newEvent()
	ev.at, ev.ks, ev.kind, ev.node, ev.fn = n.now+max(d, 1), n.nextKey(), evTimer, node, fn
	n.q.push(ev)
}

// nextKey consumes one counter value for an externally created event's
// scheduling key (kc = 0). Handler effects never consume the counter at
// creation — they are keyed by their producer's seq, which the step drew
// from the same counter — so keys stay globally unique.
func (n *Network) nextKey() uint64 {
	k := n.ctr
	n.ctr++
	return k
}

// send is the one send path: external Sends, and every handler send as
// its step applies its effects. It runs on the driving goroutine only, in
// key order within a step, which is the contract Faults documents: audit,
// crashed-sender check, accounting, Fate, then the keyed delay draw and the
// push into the queue. It reports whether the message was scheduled. same
// marks a send that is the previous call's but for its destination (see
// effect): only the carrier is told, and only if it framed an earlier copy
// of this run.
func (n *Network) send(msg Message, ks uint64, kc uint32, same bool) bool {
	if !same {
		n.carried = false
	}
	if n.sendAudit != nil {
		n.sendAudit(msg)
	}
	if n.Down(msg.From) {
		return false // a crashed sender transmits nothing
	}
	n.metrics.recordSend(msg)
	var extra Time
	if n.faults != nil {
		fate := n.faults.Fate(n.now, msg.From, msg.To)
		if fate.Drop {
			n.metrics.recordDrops(Counter{Messages: 1, Bytes: uint64(msg.Size)})
			return false
		}
		extra = fate.Delay
	}
	d := n.latency.DrawKeyed(n.seed, ks, kc, msg.From, msg.To)
	ev := n.newEvent()
	// Late is tallied at delivery, not here: a lagged message that dies at
	// a crashed destination counts as dropped, never as late.
	ev.at, ev.ks, ev.kc, ev.kind, ev.node, ev.late, ev.msg = n.now+d+extra, ks, kc, evMessage, msg.To, extra > 0, msg
	if n.carrier != nil {
		ev.msg.Payload = n.carrier.Ship(msg, n.carried)
		n.carried = n.carried || ev.msg.Payload != nil
	}
	n.q.push(ev)
	return true
}

// Context is the effect buffer handed to handlers. Handlers must route all
// sends and timers through it; after the tick's lanes have run, the driving
// goroutine applies the effects in batch order and, per event, in the order
// the handler produced them, keyed by (producer seq, effect index).
type Context struct {
	Node NodeID
	now  Time
	out  []effect
}

type effect struct {
	isTimer bool
	// same: this send is the effect before it but for its destination —
	// set by Broadcast, the one place that knows — so a carrier can
	// serialise a fan-out once. It changes nothing else about the send.
	same bool
	// msg is the message a send carries; a timer's holds only From, the
	// node it fires on.
	msg   Message
	delay Time
	fn    func(*Context)
}

// Now returns the virtual time of the current delivery.
func (c *Context) Now() Time { return c.now }

// Send transmits a message from the handling node.
func (c *Context) Send(to NodeID, tag string, payload any, size int) {
	c.out = append(c.out, effect{msg: Message{From: c.Node, To: to, Tag: tag, Payload: payload, Size: size}})
}

// Broadcast sends the same message to each destination: Send in a loop,
// except that a payload carrier is told the copies carry one value (see
// Carrier.Ship).
func (c *Context) Broadcast(tos []NodeID, tag string, payload any, size int) {
	for i, to := range tos {
		c.out = append(c.out, effect{same: i > 0, msg: Message{From: c.Node, To: to, Tag: tag, Payload: payload, Size: size}})
	}
}

// After schedules fn on this node after d ticks.
func (c *Context) After(d Time, fn func(*Context)) {
	c.out = append(c.out, effect{isTimer: true, msg: Message{From: c.Node}, delay: d, fn: fn})
}

// stepAt runs the step at tick t, the queue's earliest. On the driving
// goroutine it pops the tick's batch in key order, gives every event its
// seq (base + its batch position), decides which events run and hands each
// to its node's lane (node mod lanes); the lanes run the handlers; then,
// back on the driving goroutine, the batch is freed and every event's
// effects apply in batch order, keyed (seq, effect index) — timers pushed,
// sends through send. Freeing the batch first lets its events carry their
// effects, so the event pool grows to the queue's peak and no further.
func (n *Network) stepAt(t Time) {
	n.now = t
	n.batch = n.q.popBatch(t, n.batch[:0])
	n.spans = slices.Grow(n.spans[:0], len(n.batch))[:len(n.batch)]
	base := n.ctr
	n.ctr += uint64(len(n.batch))
	var drops, late Counter
	k, active := len(n.lanes), 0
	for i, ev := range n.batch {
		n.spans[i].lane = -1
		if !n.runs(ev, &drops) {
			continue
		}
		if ev.late {
			late.add(ev.msg.Size)
		}
		l := int(ev.node) % k
		if l < 0 {
			l += k
		}
		ln := n.lanes[l]
		if len(ln.pos) == 0 {
			active++
		}
		ln.pos = append(ln.pos, int32(i))
		n.spans[i].lane = int32(l)
	}

	if active > 1 {
		n.dispatch(active)
	} else {
		for _, ln := range n.lanes {
			if len(ln.pos) > 0 {
				n.execLane(ln)
			}
		}
	}

	for _, ev := range n.batch {
		n.freeEvent(ev)
	}
	for i, sp := range n.spans {
		if sp.lane < 0 {
			continue
		}
		seq, out := base+uint64(i), n.lanes[sp.lane].ctx.out[sp.lo:sp.hi]
		for idx := range out {
			ef := &out[idx]
			if !ef.isTimer {
				n.send(ef.msg, seq, uint32(idx), ef.same)
				continue
			}
			ch := n.newEvent()
			ch.at, ch.ks, ch.kc, ch.kind, ch.node, ch.fn = t+max(ef.delay, 1), seq, uint32(idx), evTimer, ef.msg.From, ef.fn
			n.q.push(ch)
		}
	}
	for _, ln := range n.lanes {
		clear(ln.ctx.out) // drop payload references, keep capacity
		ln.ctx.out = ln.ctx.out[:0]
		ln.pos = ln.pos[:0]
	}
	n.delivered += uint64(len(n.batch))
	n.metrics.recordDrops(drops)
	n.metrics.recordLate(late)
}

// runs reports whether a popped event executes. An event whose node the
// fault model has down does not, and a message to it counts in drops;
// nor does a message to a node without a handler, or one the carrier made
// no frame for.
func (n *Network) runs(ev *event, drops *Counter) bool {
	if n.Down(ev.node) {
		if ev.kind == evMessage {
			drops.add(ev.msg.Size)
		}
		return false
	}
	return ev.kind == evTimer || n.handlerOf(ev.node) != nil && (n.carrier == nil || ev.msg.Payload != nil)
}

// execLane runs one lane's events in batch order — the one executor. The
// handler (or timer) fires with the lane's Context, a message through the
// carrier's Deliver when one is installed, and the effects it records are
// the event's span of the lane's buffer. Runs on pool workers; it writes
// only the lane and the spans of the lane's batch positions.
func (n *Network) execLane(ln *lane) {
	ctx := &ln.ctx
	ctx.now = n.now
	for _, i := range ln.pos {
		ev, sp := n.batch[i], &n.spans[i]
		sp.lo = int32(len(ctx.out))
		ctx.Node = ev.node
		switch {
		case ev.kind == evTimer:
			ev.fn(ctx)
		case n.carrier != nil:
			n.carrier.Deliver(ctx, ev.msg, n.handlers[ev.node])
		default:
			n.handlers[ev.node](ctx, ev.msg)
		}
		sp.hi = int32(len(ctx.out))
	}
}

// Run processes events until the queue is empty or virtual time would
// exceed `until` (0 means no limit). It returns the number of events
// popped: messages handed to a handler, messages to a node without one,
// timers, and events skipped because their node was down.
func (n *Network) Run(until Time) uint64 {
	start := n.delivered
	for {
		t, ok := n.q.peek()
		if !ok || (until > 0 && t > until) {
			break
		}
		n.stepAt(t)
	}
	return n.delivered - start
}

// RunUntilIdle drains the event queue completely.
func (n *Network) RunUntilIdle() uint64 { return n.Run(0) }

// Pending returns the number of queued events (for tests).
func (n *Network) Pending() int { return n.q.len() }

// String summarises the simulator state.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{t=%d, pending=%d, delivered=%d}", n.now, n.Pending(), n.delivered)
}
