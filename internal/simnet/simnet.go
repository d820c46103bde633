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
// The scheduler is lane-sharded for the ROADMAP's 10k–100k-node scale
// ceiling (see ARCHITECTURE.md, "Lane-sharded scheduler"). Every worker
// lane owns a calendar queue, an event free list, and one reusable Context;
// a macro-step pops each lane's tick batch in parallel, renumbers the
// merged batch once on the driving goroutine, executes lanes in parallel
// with timers pushed lane-locally and sends held, then drains the held
// sends serially in key order through send — the one function that routes
// every message, external or handler-made, fault model or not.
// Determinism is carried by the scheduling key (ks, kc) — a pure function
// of the event's causal origin — which every lane layout sorts identically,
// so a seeded run produces identical results at any parallelism level and
// any registration order. Steady-state message traffic allocates nothing.
package simnet

import (
	"fmt"
	"runtime"
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

type eventKind int

const (
	evMessage eventKind = iota
	evTimer
)

// event is one scheduled delivery. Two orderings coexist:
//
//   - (ks, kc) is the scheduling key, assigned at creation: ks is the
//     final seq of the event that produced it (or a fresh counter value
//     for external Send/After, with kc = 0) and kc is the index among
//     that producer's effects. The key is a pure function of causal
//     origin — independent of which lane pushed the event and of the
//     real-time interleaving of lanes — and globally unique, because
//     every counter value seeds the keys of exactly one event's effects.
//   - seq is the final execution sequence, assigned when the event's tick
//     batch is renumbered on the driving goroutine in merged (at, ks, kc)
//     order. It exists so the event's own effects can be keyed.
type event struct {
	at   Time
	ks   uint64
	seq  uint64
	kc   uint32
	kind eventKind
	node NodeID // destination (message) or owner (timer)
	late bool   // held beyond the synchrony bound by the fault model
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

// xmsg is one handler send held by the lane that produced it until the
// serial drain routes it (see send): a value record (never a pooled
// pointer) so event structs stay inside their owning lane's free list.
type xmsg struct {
	ks   uint64
	kc   uint32
	same bool // a held send that is the previous one but for its destination (see effect)
	msg  Message
}

// lane is one scheduler shard: a calendar queue, pools, batch scratch, and
// held sends, all owned by one worker lane. During a macro-step a
// lane's state is touched only by the worker running that lane (or by the
// driving goroutine in the serial phases), so no locks are needed.
type lane struct {
	q       *calQueue
	batch   []*event // current tick's events, key-sorted by popBatch
	skip    []bool
	anySkip bool
	nextAt  Time // earliest pending tick, refreshed by minTick
	hasNext bool
	// drops and late are this step's dead-destination drops and
	// beyond-bound deliveries; stepAt adds them to the Metrics ledger.
	drops   Counter
	late    Counter
	freeEv  []*event // lane-local event pool
	execCtx Context  // the lane's one reusable effect buffer
	held    []xmsg   // sends awaiting the serial drain, ascending by key
}

func newLane(horizon Time) *lane {
	return &lane{q: newCalQueue(horizon)}
}

// newEvent takes an event from the lane's free list (or allocates the
// first time). Events return to the list of the lane that delivered them.
func (ln *lane) newEvent() *event {
	if k := len(ln.freeEv) - 1; k >= 0 {
		ev := ln.freeEv[k]
		ln.freeEv[k] = nil
		ln.freeEv = ln.freeEv[:k]
		return ev
	}
	return &event{}
}

func (ln *lane) freeEvent(ev *event) {
	*ev = event{} // drop payload/fn references before pooling
	ln.freeEv = append(ln.freeEv, ev)
}

// nodeSlot is the dense per-node table entry: the handler plus the
// worker-lane assignment precomputed at Register/SetParallelism time, so
// a step needs no per-batch map or order slice to group events.
type nodeSlot struct {
	h    Handler
	lane int32
}

// Network is the simulator instance.
type Network struct {
	latency     Latency
	seed        uint64 // raw seed fed to DrawKeyed
	now         Time
	ctr         uint64        // unified key/sequence counter (see event)
	slots       []nodeSlot    // handler + lane per node, indexed by NodeID
	faults      Faults        // nil = fault-free
	sendAudit   func(Message) // optional per-send assertion hook (size audits in tests)
	carrier     Carrier       // nil = payloads ride in the event (the simulator proper)
	carried     bool          // the carrier framed a message of the current run of same sends
	metrics     *Metrics
	parallelism int
	delivered   uint64
	horizon     Time

	lanes   []*lane
	heads   []int    // merge cursors (renumber, drainHeld)
	moved   []*event // SetParallelism redistribution scratch
	stepWG  sync.WaitGroup
	lastPop int // previous batch size, steers pooled-vs-inline pop
}

// poolCutoff is the batch size below which a macro-step runs its phases
// inline on the driving goroutine instead of dispatching the worker pool:
// for a handful of events, the pool barriers cost more than the work.
const poolCutoff = 64

// New creates a network with the given latency model and seed.
func New(latency Latency, seed int64) *Network {
	h := latency.PartialMax
	if latency.Gamma > h {
		h = latency.Gamma
	}
	if latency.Delta > h {
		h = latency.Delta
	}
	n := &Network{
		latency: latency,
		seed:    uint64(seed),
		metrics: NewMetrics(),
		// Cover the protocol's timer horizon (up to 4Γ phase guards and 6Δ
		// watchdog sweeps) so only fault-model lag overflows to the heap.
		horizon:     4*h + 64,
		parallelism: 1,
	}
	n.lanes = []*lane{newLane(n.horizon)}
	return n
}

// SetParallelism sets the worker-lane count. k ≤ 0 selects GOMAXPROCS.
// Lane assignments of already registered nodes are recomputed and pending
// events are redistributed across the new lane layout (their scheduling
// keys travel with them, so the merged order — and therefore the run — is
// unchanged), so call order against Register and traffic does not matter.
func (n *Network) SetParallelism(k int) {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k == n.parallelism && len(n.lanes) == k {
		return
	}
	n.moved = n.moved[:0]
	for _, ln := range n.lanes {
		n.moved = ln.q.drain(n.moved)
	}
	n.parallelism = k
	for len(n.lanes) < k {
		n.lanes = append(n.lanes, newLane(n.horizon))
	}
	n.lanes = n.lanes[:k]
	for _, ln := range n.lanes {
		ln.q.reset(n.now)
	}
	for id := range n.slots {
		n.slots[id].lane = int32(id % k)
	}
	for i, ev := range n.moved {
		n.lanes[n.laneFor(ev.node, k)].q.push(ev)
		n.moved[i] = nil
	}
	n.moved = n.moved[:0]
}

// Register installs the handler for a node. Re-registering replaces it
// (used when a node changes role between rounds). The node's worker lane
// is precomputed here: a stable modulo hash of the ID, so routing an
// event to its lane is a single indexed lookup.
func (n *Network) Register(id NodeID, h Handler) {
	if id < 0 {
		panic("simnet: Register with negative NodeID")
	}
	for int(id) >= len(n.slots) {
		n.slots = append(n.slots, nodeSlot{lane: int32(len(n.slots) % n.parallelism)})
	}
	n.slots[id].h = h
}

func (n *Network) handlerOf(id NodeID) Handler {
	if id >= 0 && int(id) < len(n.slots) {
		return n.slots[id].h
	}
	return nil
}

// laneFor returns the node's worker lane under the given lane count —
// the precomputed slot value on the hot path, the same modulo hash for
// unregistered IDs.
func (n *Network) laneFor(id NodeID, lanes int) int {
	if id >= 0 && int(id) < len(n.slots) {
		return int(n.slots[id].lane)
	}
	l := int(id) % lanes
	if l < 0 {
		l += lanes
	}
	return l
}

// laneOf returns the lane that owns the node's events.
func (n *Network) laneOf(id NodeID) *lane {
	return n.lanes[n.laneFor(id, len(n.lanes))]
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

// Delivered returns how many events have been popped at their tick so
// far: messages handed to a handler, messages to a node without one,
// timers, and events skipped because their node was down.
func (n *Network) Delivered() uint64 { return n.delivered }

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
	if d < 1 {
		d = 1
	}
	ln := n.laneOf(node)
	ev := ln.newEvent()
	ev.at, ev.ks, ev.kind, ev.node, ev.fn = n.now+d, n.nextKey(), evTimer, node, fn
	ln.q.push(ev)
}

// nextKey consumes one counter value for an externally created event's
// scheduling key (kc = 0). Handler effects never consume the counter at
// creation — they are keyed by their producer's seq, which the renumber
// pass drew from the same counter — so keys stay globally unique.
func (n *Network) nextKey() uint64 {
	k := n.ctr
	n.ctr++
	return k
}

// send is the one send path: external Sends, and every handler send via
// drainHeld. It runs on the driving goroutine only, in key order within a
// step, which is the contract Faults documents: audit, crashed-sender
// check, accounting, Fate, then the keyed delay draw and the push into the
// destination's lane. It reports whether the message was scheduled. same
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
	dl := n.laneOf(msg.To)
	ev := dl.newEvent()
	// Late is tallied at delivery, not here: a lagged message that dies at
	// a crashed destination counts as dropped, never as late.
	ev.at, ev.ks, ev.kc, ev.kind, ev.node, ev.late, ev.msg = n.now+d+extra, ks, kc, evMessage, msg.To, extra > 0, msg
	if n.carrier != nil {
		ev.msg.Payload = n.carrier.Ship(msg, n.carried)
		n.carried = n.carried || ev.msg.Payload != nil
	}
	dl.q.push(ev)
	return true
}

// cursors returns one zeroed merge cursor per lane (reused scratch).
func (n *Network) cursors() []int {
	if cap(n.heads) < len(n.lanes) {
		n.heads = make([]int, len(n.lanes))
	}
	heads := n.heads[:len(n.lanes)]
	clear(heads)
	return heads
}

// drainHeld routes the sends the lanes held back during execution, on the
// driving goroutine, in merged (ks, kc) order. Each lane's list is already
// ascending (a lane executes its batch in key order), and one producer's
// sends are contiguous in it, so the merge picks a lane per producer.
func (n *Network) drainHeld() {
	heads := n.cursors()
	for {
		var best *xmsg
		bi := -1
		for i, ln := range n.lanes {
			if heads[i] < len(ln.held) {
				x := &ln.held[heads[i]]
				if best == nil || x.ks < best.ks {
					best, bi = x, i
				}
			}
		}
		if best == nil {
			break
		}
		held, ks := n.lanes[bi].held, best.ks
		h := heads[bi]
		for ; h < len(held) && held[h].ks == ks; h++ {
			n.send(held[h].msg, ks, held[h].kc, held[h].same)
		}
		heads[bi] = h
	}
	for _, ln := range n.lanes {
		clear(ln.held) // drop payload references, keep capacity
		ln.held = ln.held[:0]
	}
}

// Context is the per-delivery effect buffer handed to handlers. Handlers
// must route all sends and timers through it; the executing lane applies
// the effects in the order the handler produced them, keyed by
// (producer seq, effect index).
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
	same  bool
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
	c.out = append(c.out, effect{isTimer: true, delay: d, fn: fn})
}

// minTick refreshes every lane's earliest pending tick and returns the
// cross-lane minimum — the serial reduction that replaced the old global
// peek. O(lanes) slice-header scans per macro-step.
func (n *Network) minTick() (Time, bool) {
	t := Time(-1)
	for _, ln := range n.lanes {
		lt, ok := ln.q.peek()
		ln.nextAt, ln.hasNext = lt, ok
		if ok && (t < 0 || lt < t) {
			t = lt
		}
	}
	return t, t >= 0
}

// stepAt runs the macro-step at tick t (which minTick reported as the
// cross-lane earliest): parallel per-lane pop, serial renumber, parallel
// execution, the serial drain of the held sends, and the serial counter
// fold.
func (n *Network) stepAt(t Time) {
	n.now = t

	// Pop: every lane with events at t pops and key-sorts its batch,
	// running the dead-destination pre-pass (skip flags + the lane's drop
	// counter) as it goes. Pooled only when the previous batch suggests
	// the sort work dwarfs the barrier cost.
	if n.parallelism > 1 && n.lastPop >= poolCutoff {
		n.dispatch(phasePop)
	} else {
		for _, ln := range n.lanes {
			if ln.hasNext && ln.nextAt == t {
				n.popLane(ln)
			}
		}
	}

	// Serial barrier: assign final seqs in merged (ks, kc) order — the one
	// canonical order every lane layout produces — so the keys of every
	// event's effects are independent of parallelism.
	total := n.renumber()
	n.lastPop = total

	// Execute: timers push into the lane's own calendar queue; sends are
	// held for the drain.
	if n.parallelism > 1 && total > 1 {
		n.dispatch(phaseExec)
	} else {
		for _, ln := range n.lanes {
			if len(ln.batch) > 0 {
				n.execLane(ln)
			}
		}
	}

	// Serial drain: every held send goes through send in (ks, kc) order.
	n.drainHeld()

	// Serial fold: batch sizes and the lanes' lost and late traffic.
	for _, ln := range n.lanes {
		if len(ln.batch) > 0 {
			n.delivered += uint64(len(ln.batch))
			ln.batch = ln.batch[:0]
		}
		n.metrics.recordDrops(ln.drops)
		n.metrics.recordLate(ln.late)
		ln.drops, ln.late = Counter{}, Counter{}
	}
}

// popLane pops one lane's tick batch and runs the dead-destination
// pre-pass: events owned by a node that is down per the fault model's
// crash schedule are flagged, and skipped messages are counted in the
// lane's drops. Runs on pool workers; touches only lane-owned state plus
// the pure Faults.Down.
func (n *Network) popLane(ln *lane) {
	ln.batch = ln.q.popBatch(n.now, ln.batch[:0])
	ln.anySkip = false
	if n.faults == nil {
		return
	}
	if cap(ln.skip) < len(ln.batch) {
		ln.skip = make([]bool, len(ln.batch))
	}
	ln.skip = ln.skip[:len(ln.batch)]
	for i, ev := range ln.batch {
		s := n.faults.Down(n.now, ev.node)
		ln.skip[i] = s
		if s {
			ln.anySkip = true
			if ev.kind == evMessage {
				ln.drops.add(ev.msg.Size)
			}
		}
	}
}

// renumber assigns final seqs to the popped batch in merged (ks, kc)
// order via an L-way merge over the key-sorted lane batches. Returns the
// batch total.
func (n *Network) renumber() int {
	total, active := 0, 0
	var single *lane
	for _, ln := range n.lanes {
		if len(ln.batch) > 0 {
			total += len(ln.batch)
			active++
			single = ln
		}
	}
	if total == 0 {
		return 0
	}
	if active == 1 {
		for _, ev := range single.batch {
			ev.seq = n.ctr
			n.ctr++
		}
		return total
	}
	heads := n.cursors()
	for done := 0; done < total; done++ {
		var best *event
		bi := -1
		for i, ln := range n.lanes {
			if heads[i] < len(ln.batch) {
				ev := ln.batch[heads[i]]
				if best == nil || keyLess(ev, best) < 0 {
					best, bi = ev, i
				}
			}
		}
		best.seq = n.ctr
		n.ctr++
		heads[bi]++
	}
	return total
}

// execLane runs one lane's batch — the one executor. The handler (or
// timer) fires with the lane's reusable Context — a message through the
// carrier's Deliver when one is installed — then its effects apply in order,
// keyed (producer seq, effect index): timers push into this lane's
// calendar queue from this lane's free list; sends are appended to the
// lane's held list for drainHeld. Runs on pool workers; all state touched
// is lane-owned.
func (n *Network) execLane(ln *lane) {
	ctx := &ln.execCtx
	t := n.now
	carrier := n.carrier
	for i, ev := range ln.batch {
		if ln.anySkip && ln.skip[i] {
			ln.freeEvent(ev)
			continue
		}
		ctx.Node, ctx.now = ev.node, t
		switch ev.kind {
		case evMessage:
			h := n.handlerOf(ev.node)
			if h == nil || (carrier != nil && ev.msg.Payload == nil) {
				ln.freeEvent(ev)
				continue
			}
			if ev.late {
				ln.late.add(ev.msg.Size)
			}
			if carrier != nil {
				carrier.Deliver(ctx, ev.msg, h)
			} else {
				h(ctx, ev.msg)
			}
		case evTimer:
			ev.fn(ctx)
		}
		pseq, node := ev.seq, ev.node
		ln.freeEvent(ev) // may be recycled for a child immediately below
		for idx := range ctx.out {
			ef := &ctx.out[idx]
			if ef.isTimer {
				d := ef.delay
				if d < 1 {
					d = 1
				}
				ch := ln.newEvent()
				ch.at, ch.ks, ch.kc, ch.kind, ch.node, ch.fn = t+d, pseq, uint32(idx), evTimer, node, ef.fn
				ln.q.push(ch)
				continue
			}
			ln.held = append(ln.held, xmsg{ks: pseq, kc: uint32(idx), same: ef.same, msg: ef.msg})
		}
		clear(ctx.out)
		ctx.out = ctx.out[:0]
	}
}

// Run processes events until the queue is empty or virtual time would
// exceed `until` (0 means no limit). It returns the number of events
// processed (see Delivered).
func (n *Network) Run(until Time) uint64 {
	start := n.delivered
	for {
		t, ok := n.minTick()
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
func (n *Network) Pending() int {
	total := 0
	for _, ln := range n.lanes {
		total += ln.q.len()
	}
	return total
}

// String summarises the simulator state.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{t=%d, pending=%d, delivered=%d}", n.now, n.Pending(), n.delivered)
}
