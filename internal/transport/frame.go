package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"cycledger/internal/simnet"
)

// maxFrame bounds a single frame: the codec's own 1 MiB message cap plus
// generous header room. A length prefix beyond it is refused before
// anything is sized from it.
const maxFrame = 2 << 20

// A frame is one byte string, the message as a link would carry it:
//
//	[u32 length][u32 from][u16 tagLen][tag][u32 declared size][body]
//
// where the body is the codec's encoding of the payload and the length
// prefix counts everything after itself. The destination is not in the
// frame, so every recipient of one broadcast gets the same frame. The
// declared size travels separately from the encoding because the
// simulation's traffic model sizes a few modeled messages (PVSS beacon
// shares) analytically rather than by serialisation.
//
// A frame is written once, by the Ship that made it, and is immutable from
// then on: the recipients' lanes read it concurrently, and what each
// decodes from it may alias it (see package wire) for as long as the
// decoded value lives.

// Sizes of the layout's fixed parts.
const (
	framePrefix = 4     // length prefix
	frameHeader = 4 + 2 // from, tag length
	frameSize   = 4     // declared size
)

// header is what a frame says of the message it carries, beside the
// payload: the fields its delivery must agree with.
type header struct {
	from simnet.NodeID
	tag  []byte
	size int
}

// encodeFrame builds the frame that carries msg. A field the layout cannot
// carry is an error, never a truncation: the frame would parse as some
// other message.
func encodeFrame(codec Codec, msg simnet.Message) ([]byte, error) {
	if len(msg.Tag) > math.MaxUint16 {
		return nil, fmt.Errorf("tag of %d bytes does not fit its u16 length", len(msg.Tag))
	}
	if msg.Size < 0 || msg.Size > math.MaxInt32 {
		return nil, fmt.Errorf("declared size %d of %s does not fit a non-negative i32", msg.Size, msg.Tag)
	}
	// The declared size is the encoding's length for every serialised
	// message, so the frame is filled without regrowth.
	f := make([]byte, framePrefix, framePrefix+frameHeader+len(msg.Tag)+frameSize+min(msg.Size, maxFrame))
	f = binary.BigEndian.AppendUint32(f, uint32(msg.From))
	f = binary.BigEndian.AppendUint16(f, uint16(len(msg.Tag)))
	f = append(f, msg.Tag...)
	f = binary.BigEndian.AppendUint32(f, uint32(msg.Size))
	f, err := codec.AppendEncode(f, msg.Payload)
	if err != nil {
		return nil, fmt.Errorf("encoding %s payload %T: %w", msg.Tag, msg.Payload, err)
	}
	binary.BigEndian.PutUint32(f, uint32(len(f)-framePrefix))
	return f, nil
}

// parseFrame parses one whole frame held in memory, returning its header
// and the decoded payload. The payload is decoded from f in place and may
// alias it; the header's tag is a slice of f.
func parseFrame(f []byte, codec Codec) (header, any, error) {
	fail := func(err error) (header, any, error) { return header{}, nil, err }
	if len(f) < framePrefix+frameHeader {
		return fail(fmt.Errorf("frame of %d bytes is shorter than its fixed header", len(f)))
	}
	n := binary.BigEndian.Uint32(f)
	if n > maxFrame {
		return fail(fmt.Errorf("frame length %d exceeds cap %d", n, maxFrame))
	}
	if int(n) != len(f)-framePrefix {
		return fail(fmt.Errorf("frame declares %d bytes but holds %d", n, len(f)-framePrefix))
	}
	h := header{from: simnet.NodeID(binary.BigEndian.Uint32(f[framePrefix:]))}
	tagLen := int(binary.BigEndian.Uint16(f[framePrefix+4:]))
	rest := f[framePrefix+frameHeader:]
	if len(rest) < tagLen+frameSize {
		return fail(fmt.Errorf("frame of %d bytes ends inside its %d-byte tag and declared size", len(f), tagLen))
	}
	h.tag = rest[:tagLen]
	h.size = int(int32(binary.BigEndian.Uint32(rest[tagLen:])))
	if h.size < 0 {
		return fail(fmt.Errorf("%s frame has negative declared size %d", h.tag, h.size))
	}
	body := rest[tagLen+frameSize:]
	payload, used, err := codec.Decode(body)
	if err != nil {
		return fail(fmt.Errorf("decoding %s payload: %w", h.tag, err))
	}
	if used != len(body) {
		return fail(fmt.Errorf("%s payload decoded %d of %d bytes", h.tag, used, len(body)))
	}
	return h, payload, nil
}
