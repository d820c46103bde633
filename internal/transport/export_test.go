package transport

import "cycledger/internal/simnet"

// MaxFrame is the frame length cap, for the fuzz seeds.
const MaxFrame = maxFrame

// EncodeFrame builds the frame for msg, as a Ship that had not met the
// payload before does.
func EncodeFrame(codec Codec, msg simnet.Message) ([]byte, error) {
	return encodeFrame(codec, msg)
}

// ParseFrame parses frame into the message it carries, which has no
// destination: the frame does not name one.
func ParseFrame(frame []byte, codec Codec) (simnet.Message, error) {
	h, payload, err := parseFrame(frame, codec)
	return simnet.Message{From: h.from, Tag: string(h.tag), Payload: payload, Size: h.size}, err
}
