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

// EncodeFrame is encodeFrame for the external test package.
func EncodeFrame(codec Codec, ks uint64, kc uint32, msg simnet.Message) ([]byte, error) {
	return encodeFrame(codec, msgKey{ks, kc}, msg)
}

// ParseFrame is parseFrame with a fresh tag intern.
func ParseFrame(frame []byte, codec Codec, to simnet.NodeID) (ks uint64, kc uint32, msg simnet.Message, err error) {
	key, msg, err := parseFrame(frame, codec, to, make(map[string]string))
	return key.ks, key.kc, msg, err
}

// CorruptFrames applies fn to every frame waiting in node id's mailbox.
func (l *Live) CorruptFrames(id simnet.NodeID, fn func(frame []byte)) {
	for _, frame := range l.nodes[id].mailbox {
		fn(frame)
	}
}
