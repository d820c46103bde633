package transport

import (
	"encoding/binary"
	"fmt"

	"cycledger/internal/simnet"
)

// maxFrame bounds a single frame: the codec's own 1 MiB message cap plus
// generous header room. A length prefix beyond it is refused before
// anything is sized from it.
const maxFrame = 2 << 20

// Frame layout, after the u32 length prefix (which counts the bytes that
// follow it):
//
//	[u64 ks][u32 kc][u32 from][u16 tagLen][tag][u32 declared size][payload encoding]
//
// (ks, kc) is the scheduling key of the message's delivery event — the
// frame is filed in the destination's mailbox under it, and the delivery,
// which carries the same key, checks it claimed exactly its frame. The
// declared size travels separately from the encoding because the
// simulation's traffic model sizes a few modeled messages (PVSS beacon
// shares) analytically rather than by serialisation.

// Sizes of the layout's fixed parts.
const (
	framePrefix = 4             // length prefix
	frameHeader = 8 + 4 + 4 + 2 // key, from, tag length
	frameSize   = 4             // declared size
)

// msgKey is a delivery event's scheduling key, the mailbox index.
type msgKey struct {
	ks uint64
	kc uint32
}

// encodeFrame builds the frame for key carrying msg, with the payload
// encoded by codec, in one buffer of its own. The buffer is sized from the
// declared size, which is the encoding's length for every serialised
// message, so it is filled without regrowth.
func encodeFrame(codec Codec, key msgKey, msg simnet.Message) ([]byte, error) {
	buf := make([]byte, framePrefix, framePrefix+frameHeader+len(msg.Tag)+frameSize+max(msg.Size, 0))
	buf = binary.BigEndian.AppendUint64(buf, key.ks)
	buf = binary.BigEndian.AppendUint32(buf, key.kc)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(msg.From)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(msg.Tag)))
	buf = append(buf, msg.Tag...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(msg.Size)))
	buf, err := codec.AppendEncode(buf, msg.Payload)
	if err != nil {
		return nil, fmt.Errorf("encoding %s payload %T: %w", msg.Tag, msg.Payload, err)
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-framePrefix))
	return buf, nil
}

// parseFrame parses one whole frame held in memory and destined to node
// `to`, returning the key it answers and the reconstructed message. The
// tag of an accepted frame is interned in tags (a node sees a few dozen
// distinct ones), so a frame costs no string allocation.
func parseFrame(frame []byte, codec Codec, to simnet.NodeID, tags map[string]string) (msgKey, simnet.Message, error) {
	fail := func(err error) (msgKey, simnet.Message, error) { return msgKey{}, simnet.Message{}, err }
	if len(frame) < framePrefix {
		return fail(fmt.Errorf("frame of %d bytes is shorter than its length prefix", len(frame)))
	}
	n := binary.BigEndian.Uint32(frame)
	if n > maxFrame {
		return fail(fmt.Errorf("frame length %d exceeds cap %d", n, maxFrame))
	}
	body := frame[framePrefix:]
	if int(n) != len(body) {
		return fail(fmt.Errorf("frame declares %d bytes but holds %d", n, len(body)))
	}
	if len(body) < frameHeader {
		return fail(fmt.Errorf("frame of %d bytes is shorter than its header", len(body)))
	}
	key := msgKey{ks: binary.BigEndian.Uint64(body), kc: binary.BigEndian.Uint32(body[8:])}
	from := simnet.NodeID(int32(binary.BigEndian.Uint32(body[12:])))
	tagLen := int(binary.BigEndian.Uint16(body[16:]))
	if len(body) < frameHeader+tagLen+frameSize {
		return fail(fmt.Errorf("frame truncated inside its %d-byte tag", tagLen))
	}
	rawTag := body[frameHeader : frameHeader+tagLen]
	size := int(int32(binary.BigEndian.Uint32(body[frameHeader+tagLen:])))
	enc := body[frameHeader+tagLen+frameSize:]
	payload, used, err := codec.Decode(enc)
	if err != nil {
		return fail(fmt.Errorf("decoding %s payload: %w", rawTag, err))
	}
	if used != len(enc) {
		return fail(fmt.Errorf("%s payload decoded %d of %d bytes", rawTag, used, len(enc)))
	}
	tag, ok := tags[string(rawTag)] // a map index by converted bytes does not allocate
	if !ok {
		tag = string(rawTag)
		tags[tag] = tag
	}
	return key, simnet.Message{From: from, To: to, Tag: tag, Payload: payload, Size: size}, nil
}
