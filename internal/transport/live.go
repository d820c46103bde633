package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"cycledger/internal/simnet"
)

// Live runs one committee population as real concurrent processes: every
// registered node is a goroutine, and every message payload crosses
// between them only as codec-encoded bytes over a Mesh link. It is the
// simulator plus a payload carrier: the embedded Sim — the same
// *simnet.Network every other run uses — owns virtual time, the event
// queue, scheduling keys, the keyed delay draw, the fault model, crashed
// nodes and all traffic accounting, and Live implements simnet.Carrier to
// move what the scheduler no longer holds. The result is the simulator's
// exact event schedule — identical RoundReports, virtual durations
// included, under any fault model — produced by real message passing,
// because there is one scheduler, not two kept in step.
//
// Mechanics of one message: the Network's serial send drain decides the
// message will be delivered (audit, crash and Fate checks, delay draw) and
// calls Ship with its scheduling key; Ship encodes the frame and hands it
// to the (from → to) link's write pump, and the queued event keeps only
// From/To/Tag/Size. The destination's read loop decodes frames as they
// arrive and files them in the node's inbox under the key. When the
// Network later executes the delivery, Deliver passes the lane's Context
// to the node's goroutine, which claims exactly that payload (blocking
// briefly if the bytes are still in flight) and runs the handler; the lane
// then applies the buffered effects as it would for any handler. A
// delivery that dies at a down destination is Discarded, so inboxes never
// leak. Timers stay in-process — closures cannot be serialised — but run
// on their node's goroutine too (Fire).
//
// SetParallelism is the Network's: worker lanes bound how many nodes run
// at once within a tick. A codec or link failure is a programming error
// (the codec is fuzz-hardened and the mesh in-process), so the delivery
// panics with the underlying error rather than silently diverging from
// the simulator.
type Live struct {
	Sim
	codec Codec
	mesh  Mesh

	nodes  map[simnet.NodeID]*liveNode
	links  map[linkKey]chan []byte // sender-side end of each ordered node pair
	wg     sync.WaitGroup          // every goroutine Live starts: nodes, pumps, read loops
	closed bool
}

// NewLive builds a live transport over the given mesh, scheduled by a
// fresh simnet.Network with the given latency model and seed.
func NewLive(codec Codec, mesh Mesh, lat simnet.Latency, seed int64) *Live {
	l := &Live{
		Sim:   *NewSim(lat, seed),
		codec: codec,
		mesh:  mesh,
		nodes: make(map[simnet.NodeID]*liveNode),
		links: make(map[linkKey]chan []byte),
	}
	l.Network.SetCarrier(l)
	return l
}

// LiveFactory returns a Factory building an in-memory live transport
// (PipeMesh links) with the given codec.
func LiveFactory(codec Codec) Factory {
	return func(lat simnet.Latency, seed int64) (Transport, error) {
		return NewLive(codec, NewPipeMesh(), lat, seed), nil
	}
}

type linkKey struct{ from, to simnet.NodeID }

// liveNode is one registered node: its goroutine, the channel pair a lane
// hands it deliveries over, and the inbox where read loops file decoded
// payloads by scheduling key.
type liveNode struct {
	id    simnet.NodeID
	work  chan job
	done  chan error
	inbox inbox
}

// job is one delivery for a node goroutine: a timer (fn) or the message
// filed under key (h), filling the executing lane's ctx.
type job struct {
	ctx *simnet.Context
	fn  func(*simnet.Context)
	h   simnet.Handler
	key msgKey
}

var errClosed = errors.New("transport: live transport closed")

// inbox is a node's arrival buffer: decoded messages keyed by the
// scheduling key of their delivery event. take blocks until the frame for
// its key has crossed the link (or the inbox is poisoned by a link
// failure).
type inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs map[msgKey]simnet.Message
	err  error
}

func (ib *inbox) init() {
	ib.cond = sync.NewCond(&ib.mu)
	ib.msgs = make(map[msgKey]simnet.Message)
}

func (ib *inbox) put(key msgKey, msg simnet.Message) {
	ib.mu.Lock()
	ib.msgs[key] = msg
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

func (ib *inbox) poison(err error) {
	ib.mu.Lock()
	if ib.err == nil {
		ib.err = err
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

func (ib *inbox) take(key msgKey) (simnet.Message, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if msg, ok := ib.msgs[key]; ok {
			delete(ib.msgs, key)
			return msg, nil
		}
		if ib.err != nil {
			return simnet.Message{}, ib.err
		}
		ib.cond.Wait()
	}
}

// Register installs the handler for a node on the Network, creating the
// node's goroutine, inbox, and mesh listener on first registration.
func (l *Live) Register(id simnet.NodeID, h simnet.Handler) {
	l.Network.Register(id, h)
	if _, ok := l.nodes[id]; ok {
		return
	}
	n := &liveNode{id: id, work: make(chan job), done: make(chan error)}
	n.inbox.init()
	l.nodes[id] = n
	l.mesh.Listen(id, func(conn io.ReadCloser) {
		l.wg.Add(1)
		go l.runReadLoop(conn, n)
	})
	l.wg.Add(1)
	go l.runNode(n)
}

// runNode is a node's process: run each delivery a lane hands over — a
// timer, or the handler on the payload claimed from the inbox — and report
// back when the lane's Context is filled.
func (l *Live) runNode(n *liveNode) {
	defer l.wg.Done()
	for j := range n.work {
		if j.fn != nil {
			j.fn(j.ctx)
			n.done <- nil
			continue
		}
		msg, err := n.inbox.take(j.key)
		if err == nil {
			j.h(j.ctx, msg)
		}
		n.done <- err
	}
}

// run hands one job to the node's goroutine and waits for it.
func (l *Live) run(n *liveNode, j job) {
	n.work <- j
	if err := <-n.done; err != nil {
		panic(fmt.Errorf("transport: live delivery failed: %w", err))
	}
}

// Ship implements simnet.Carrier: encode the frame and queue it on the
// (from → to) link. Called from the Network's serial send drain only.
func (l *Live) Ship(ks uint64, kc uint32, msg simnet.Message) bool {
	dst := l.nodes[msg.To]
	if dst == nil {
		return false
	}
	frame, err := appendFrame(nil, l.codec, msgKey{ks, kc}, msg)
	if err != nil {
		panic(err)
	}
	l.linkTo(msg.From, dst) <- frame
	return true
}

// Deliver implements simnet.Carrier: the destination's goroutine claims
// the payload shipped under (ks, kc) and runs h on it.
func (l *Live) Deliver(ctx *simnet.Context, ks uint64, kc uint32, h simnet.Handler) {
	l.run(l.nodes[ctx.Node], job{ctx: ctx, h: h, key: msgKey{ks, kc}})
}

// Fire implements simnet.Carrier: the timer runs on its node's goroutine
// (inline for a node that was never registered and so has none).
func (l *Live) Fire(ctx *simnet.Context, fn func(*simnet.Context)) {
	n := l.nodes[ctx.Node]
	if n == nil {
		fn(ctx)
		return
	}
	l.run(n, job{ctx: ctx, fn: fn})
}

// Discard implements simnet.Carrier: the frame was (or will be) filed in
// the inbox; claim and drop it so entries never leak.
func (l *Live) Discard(ks uint64, kc uint32, to simnet.NodeID) {
	l.nodes[to].inbox.take(msgKey{ks, kc})
}

// runReadLoop drains one inbound connection: hello, then frames, each
// decoded and filed in the node's inbox. Close-induced read errors end
// the loop quietly; a decode failure poisons the inbox, which surfaces as
// a panic at the next delivery.
func (l *Live) runReadLoop(conn io.ReadCloser, n *liveNode) {
	defer l.wg.Done()
	defer conn.Close()
	if _, err := readHello(conn); err != nil {
		return
	}
	for {
		key, msg, err := readFrame(conn, l.codec, n.id)
		if err != nil {
			if !benignReadError(err) {
				n.inbox.poison(err)
			}
			return
		}
		n.inbox.put(key, msg)
	}
}

// benignReadError reports whether a read-loop error is an ordinary
// connection teardown rather than a protocol failure.
func benignReadError(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe)
}

// linkTo returns the (from → dst) link: a frame channel drained by a
// dedicated pump goroutine (started, and the link dialed, on first use), so
// the send drain never blocks on a rendezvous pipe write.
func (l *Live) linkTo(from simnet.NodeID, dst *liveNode) chan<- []byte {
	k := linkKey{from, dst.id}
	if ch, ok := l.links[k]; ok {
		return ch
	}
	// Buffered so the drain can run a burst ahead of the pump (a handler's
	// broadcast is at most one frame per link); beyond that it waits.
	ch := make(chan []byte, 64)
	l.links[k] = ch
	l.wg.Add(1)
	go l.runPump(from, dst, ch)
	return ch
}

// runPump owns one link's sending end: dial, hello, then write frames
// until the channel closes. After any failure it keeps draining so the
// send drain never blocks on a dead link; the failure is reported through
// the destination's inbox.
func (l *Live) runPump(from simnet.NodeID, dst *liveNode, frames <-chan []byte) {
	defer l.wg.Done()
	w, werr := l.mesh.Dial(from, dst.id)
	if werr == nil {
		defer w.Close()
		werr = writeHello(w, from)
	}
	for b := range frames {
		if werr == nil {
			_, werr = w.Write(b)
		}
		if werr != nil && !benignReadError(werr) {
			dst.inbox.poison(werr)
		}
	}
}

// Close tears down pumps, links, read loops and node goroutines and waits
// for them to exit. Safe to call twice; the transport must not be used
// afterwards.
func (l *Live) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	for _, ch := range l.links {
		close(ch)
	}
	err := l.mesh.Close()
	for _, n := range l.nodes {
		close(n.work)
		n.inbox.poison(errClosed)
	}
	l.wg.Wait()
	return err
}

var (
	_ Transport      = (*Live)(nil)
	_ simnet.Carrier = (*Live)(nil)
)
