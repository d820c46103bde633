package transport

import "cycledger/internal/simnet"

// MaxFrame is the frame length cap, for the fuzz seeds.
const MaxFrame = maxFrame

// Buffered returns how many frames sit unclaimed in node mailboxes: zero
// whenever the transport is idle, or a mailbox leaked.
func (l *Live) Buffered() int {
	total := 0
	for _, n := range l.nodes {
		total += len(n.mailbox)
	}
	return total
}

// EncodeFrame builds the frame for msg under (ks, kc), as a Ship that had
// not met the payload before does.
func EncodeFrame(codec Codec, ks uint64, kc uint32, msg simnet.Message) (head, body []byte, err error) {
	f, err := (&Live{codec: codec}).frameFor(msgKey{ks, kc}, msg, false)
	return f.head, f.body, err
}

// ParseFrame is parseFrame with a fresh tag intern.
func ParseFrame(head, body []byte, codec Codec, to simnet.NodeID) (ks uint64, kc uint32, msg simnet.Message, err error) {
	key, msg, err := parseFrame(frame{head, body}, codec, to, make(map[string]string))
	return key.ks, key.kc, msg, err
}

// CorruptFrames applies fn to the two parts of every frame waiting in node
// id's mailbox. The body is the slice the frame holds, shared with every
// other recipient of the same broadcast.
func (l *Live) CorruptFrames(id simnet.NodeID, fn func(head, body []byte)) {
	for _, f := range l.nodes[id].mailbox {
		fn(f.head, f.body)
	}
}

// Claim delivers every frame waiting in node id's mailbox to h, outside any
// run, and returns the first of those deliveries to fail.
func (l *Live) Claim(id simnet.NodeID, h simnet.Handler) error {
	n := l.nodes[id]
	for key := range n.mailbox {
		if err := l.run(n, job{ctx: &simnet.Context{Node: id}, h: h, key: key}); err != nil {
			return err
		}
	}
	return nil
}
