package transport

import (
	"fmt"
	"sync/atomic"

	"cycledger/internal/simnet"
)

// Live makes every message payload cross between nodes as a codec-encoded
// frame. It is a payload carrier and nothing more: the *simnet.Network it
// is installed on — the same one every other run uses — owns virtual time,
// the event queue, scheduling keys, the keyed delay draw, the fault model,
// crashed nodes and all traffic accounting, and Live implements
// simnet.Carrier at the two places a payload crosses a link. The result
// is the simulator's exact event schedule — identical RoundReports,
// virtual durations included, under any fault model — with no payload
// passed by reference, because there is one scheduler, not two kept in
// step.
//
// Mechanics of one message: the Network's serial send drain decides the
// message will be delivered (audit, crash and Fate checks, delay draw)
// and calls Ship, which encodes the message into a frame (see frame.go)
// that rides in the delivery event in place of the payload. A payload is
// encoded once per fan-out: when the scheduler says a message is the one
// before it but for its destination (a Broadcast), Ship returns the frame
// it already made instead of walking the value again. When the Network
// executes the delivery, the lane that runs it calls Deliver, which parses
// the frame, checks that its header agrees with the event, decodes the
// body — every node decodes for itself; only the bytes are shared — and
// runs the handler. Timers stay in-process, as on the simulator: closures
// cannot be serialised.
//
// A payload that fails to encode gets no frame, and a frame that fails to
// parse or disagrees with its delivery runs no handler; the first such
// failure, naming the nodes, is kept for Err, and the engine ends the
// round with it at its next stage boundary rather than report a run that
// silently diverged from the simulator.
type Live struct {
	codec Codec
	last  any // the frame Ship made last, for the later copies of its fan-out

	err atomic.Pointer[error] // the first send or delivery that failed; lanes deliver concurrently
}

// NewLive builds a live carrier and installs it on net, which must be
// idle.
func NewLive(codec Codec, net *simnet.Network) *Live {
	l := &Live{codec: codec}
	net.SetCarrier(l)
	return l
}

// Err returns the first send or delivery that failed, or nil: a payload
// that did not encode, or a frame that did not parse or disagreed with its
// delivery. The message it carried ran no handler.
func (l *Live) Err() error {
	if p := l.err.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records err for Err unless an earlier failure is already kept.
func (l *Live) fail(err error) {
	l.err.CompareAndSwap(nil, &err)
}

// Ship implements simnet.Carrier: encode msg into its frame, or, for a
// later copy of one fan-out, return the frame made for the first. A
// payload that does not encode is recorded for Err and gets no frame.
func (l *Live) Ship(msg simnet.Message, same bool) any {
	if same {
		return l.last
	}
	f, err := encodeFrame(l.codec, msg)
	if err != nil {
		l.fail(fmt.Errorf("transport: live send from node %d to node %d: %w", msg.From, msg.To, err))
		return nil
	}
	l.last = f
	return l.last
}

// Deliver implements simnet.Carrier: parse the frame msg carries, check
// that its header agrees with msg, decode the payload for this receiver
// and run h on it. The tag h sees is the event's, so no delivery allocates
// a string. A frame that fails is recorded for Err and runs no handler.
func (l *Live) Deliver(ctx *simnet.Context, msg simnet.Message, h simnet.Handler) {
	payload, err := l.open(msg)
	if err != nil {
		l.fail(fmt.Errorf("transport: live delivery to node %d from node %d: %w", msg.To, msg.From, err))
		return
	}
	msg.Payload = payload
	h(ctx, msg)
}

// open parses the frame msg carries and returns its payload.
func (l *Live) open(msg simnet.Message) (any, error) {
	f, _ := msg.Payload.([]byte) // only Ship fills it; a nil frame fails to parse
	hd, payload, err := parseFrame(f, l.codec)
	if err != nil {
		return nil, err
	}
	if hd.from != msg.From || string(hd.tag) != msg.Tag || hd.size != msg.Size {
		return nil, fmt.Errorf("frame header (from node %d, %s, %d bytes) disagrees with its %s delivery of %d bytes",
			hd.from, hd.tag, hd.size, msg.Tag, msg.Size)
	}
	return payload, nil
}

var _ simnet.Carrier = (*Live)(nil)
