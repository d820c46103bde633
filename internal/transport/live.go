package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cycledger/internal/simnet"
)

// Live runs one committee population as real concurrent processes: every
// attached node is a goroutine, and every message payload crosses between
// them only as a codec-encoded frame. It is a payload carrier and nothing
// more: the *simnet.Network it is installed on — the same one every other
// run uses — owns virtual time, the event queue, scheduling keys, the
// keyed delay draw, the fault model, crashed nodes and all traffic
// accounting, and Live implements simnet.Carrier to move what the
// scheduler no longer holds. The result is the simulator's exact event
// schedule — identical RoundReports, virtual durations included, under any
// fault model — produced by real message passing, because there is one
// scheduler, not two kept in step.
//
// Mechanics of one message: the Network's serial send drain decides the
// message will be delivered (audit, crash and Fate checks, delay draw) and
// calls Ship with its scheduling key; Ship files a frame (see frame.go) in
// the destination's mailbox under the key — a header of the recipient's
// own beside the payload's encoding — and the queued event keeps only
// From/To/Tag/Size. A payload is encoded once per fan-out: when the
// scheduler says a message carries the payload of the one before it (a
// Context.Broadcast), Ship files the body it already holds under the new
// header instead of walking the value again, and nobody writes to a body
// after that first encoding. When the Network later executes the delivery,
// Deliver passes the lane's Context and the key to the node's goroutine,
// which claims exactly that frame, parses it and decodes the body there —
// every node decodes for itself; only the bytes are shared — and runs the
// handler; the lane then applies the buffered effects as it would for any
// handler. A delivery that dies at a down destination is Discarded, so
// mailboxes never leak. Timers stay in-process — closures cannot be
// serialised — but run on their node's goroutine too (Fire).
//
// A mailbox needs no lock: the Network separates the phases that touch it
// with barriers. Ship runs on the driving goroutine after a tick's
// execution barrier (the serial send drain, see simnet.Faults), Discard on
// the lane that owns the node during the pop phase, and the claim on the
// node's goroutine while that same lane waits in Deliver.
//
// The Network's worker lanes bound how many nodes run at once within a
// tick. A payload that fails to encode is not shipped, and a frame that
// is missing, fails to parse or answers another key runs no handler; the
// first such failure, naming the node and the key, is kept for Err, and
// the engine ends the round with it at its next stage boundary rather
// than report a run that silently diverged from the simulator.
type Live struct {
	codec Codec
	body  []byte // the encoding in the frame Ship filed last

	nodes  map[simnet.NodeID]*liveNode
	wg     sync.WaitGroup // the node goroutines, one per attached node
	closed bool

	err atomic.Pointer[error] // the first send or delivery that failed; lanes deliver concurrently
}

// NewLive builds a live carrier and installs it on net, which must be
// idle. It starts no goroutine until a node is attached.
func NewLive(codec Codec, net *simnet.Network) *Live {
	l := &Live{
		codec: codec,
		nodes: make(map[simnet.NodeID]*liveNode),
	}
	net.SetCarrier(l)
	return l
}

// liveNode is one attached node: its goroutine, the channel pair a lane
// hands it deliveries over, the mailbox of frames shipped to it, keyed by
// the scheduling key of their delivery event, and the tags it has seen
// (parseFrame's intern).
type liveNode struct {
	id      simnet.NodeID
	work    chan job
	done    chan error
	mailbox map[msgKey]frame
	tags    map[string]string
}

// job is one delivery for a node goroutine: a timer (fn) or the message
// whose frame is filed under key (h), filling the executing lane's ctx.
type job struct {
	ctx *simnet.Context
	fn  func(*simnet.Context)
	h   simnet.Handler
	key msgKey
}

// Attach gives node id its mailbox and goroutine; attaching a node twice is
// a no-op. Messages shipped to a node that was never attached run no
// handler, like messages to a node the Network has no handler for.
func (l *Live) Attach(id simnet.NodeID) {
	if _, ok := l.nodes[id]; ok {
		return
	}
	n := &liveNode{
		id:      id,
		work:    make(chan job),
		done:    make(chan error),
		mailbox: make(map[msgKey]frame),
		tags:    make(map[string]string),
	}
	l.nodes[id] = n
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for j := range n.work {
			n.done <- n.exec(l.codec, j)
		}
	}()
}

// exec runs one job on the node's goroutine: a timer, or the handler on
// the message decoded from the frame claimed under j.key.
func (n *liveNode) exec(codec Codec, j job) error {
	if j.fn != nil {
		j.fn(j.ctx)
		return nil
	}
	f, ok := n.mailbox[j.key]
	if !ok {
		return errors.New("no frame in the mailbox")
	}
	delete(n.mailbox, j.key)
	key, msg, err := parseFrame(f, codec, n.id, n.tags)
	if err != nil {
		return err
	}
	if key != j.key {
		return fmt.Errorf("frame answers key (%d, %d)", key.ks, key.kc)
	}
	j.h(j.ctx, msg)
	return nil
}

// run hands one job to the node's goroutine, waits for it and returns its
// failure, which it also records for Err.
func (l *Live) run(n *liveNode, j job) error {
	n.work <- j
	err := <-n.done
	if err != nil {
		err = fmt.Errorf("transport: live delivery to node %d under key (%d, %d): %w", n.id, j.key.ks, j.key.kc, err)
		l.err.CompareAndSwap(nil, &err)
	}
	return err
}

// Err returns the first send or delivery that failed, or nil: a payload
// that did not encode, or a frame that was missing, did not parse or
// answered another key. The message it carried ran no handler.
func (l *Live) Err() error {
	if p := l.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Ship implements simnet.Carrier: file a header of the destination's own
// in its mailbox, beside the payload's encoding. A payload that does not
// encode is recorded for Err and not shipped.
func (l *Live) Ship(ks uint64, kc uint32, msg simnet.Message, same bool) bool {
	dst := l.nodes[msg.To]
	if dst == nil {
		return false
	}
	key := msgKey{ks, kc}
	f, err := l.frameFor(key, msg, same)
	if err != nil {
		err = fmt.Errorf("transport: live send from node %d to node %d under key (%d, %d): %w", msg.From, msg.To, ks, kc, err)
		l.err.CompareAndSwap(nil, &err)
		return false
	}
	dst.mailbox[key] = f
	return true
}

// frameFor builds the frame that carries msg under key. The body is encoded
// here unless the payload is the same as in the frame built last, whose
// body then serves again — in a buffer of its own, sized from the declared
// size (the encoding's length for every serialised message) so that it is
// filled without regrowth.
func (l *Live) frameFor(key msgKey, msg simnet.Message, same bool) (frame, error) {
	if !same {
		body, err := l.codec.AppendEncode(make([]byte, 0, max(msg.Size, 0)), msg.Payload)
		if err != nil {
			return frame{}, fmt.Errorf("encoding %s payload %T: %w", msg.Tag, msg.Payload, err)
		}
		l.body = body
	}
	head, err := encodeHeader(key, msg, l.body)
	return frame{head: head, body: l.body}, err
}

// Deliver implements simnet.Carrier: the destination's goroutine claims
// the frame shipped under (ks, kc), decodes it and runs h on the message.
// A frame that fails is recorded for Err.
func (l *Live) Deliver(ctx *simnet.Context, ks uint64, kc uint32, h simnet.Handler) {
	l.run(l.nodes[ctx.Node], job{ctx: ctx, h: h, key: msgKey{ks, kc}})
}

// Fire implements simnet.Carrier: the timer runs on its node's goroutine
// (inline for a node that was never attached and so has none).
func (l *Live) Fire(ctx *simnet.Context, fn func(*simnet.Context)) {
	n := l.nodes[ctx.Node]
	if n == nil {
		fn(ctx)
		return
	}
	l.run(n, job{ctx: ctx, fn: fn})
}

// Discard implements simnet.Carrier: drop the frame no delivery will
// claim, so mailboxes never leak.
func (l *Live) Discard(ks uint64, kc uint32, to simnet.NodeID) {
	delete(l.nodes[to].mailbox, msgKey{ks, kc})
}

// Close stops the node goroutines and waits for them to exit. Safe to
// call twice; the Network must not run afterwards.
func (l *Live) Close() {
	if l.closed {
		return
	}
	l.closed = true
	for _, n := range l.nodes {
		close(n.work)
	}
	l.wg.Wait()
}

var _ simnet.Carrier = (*Live)(nil)
