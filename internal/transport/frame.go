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

// A frame is two byte strings, filed side by side in the destination's
// mailbox. The header belongs to one recipient:
//
//	[u32 length][u64 ks][u32 kc][u32 from][u16 tagLen][tag][u32 declared size]
//
// and the body is the codec's encoding of the payload. The length prefix
// counts everything after itself, header remainder and body together —
// the two laid end to end are the frame as one link would carry it.
//
// (ks, kc) is the scheduling key of the message's delivery event — the
// frame is filed under it, and the delivery, which carries the same key,
// checks it claimed exactly its frame. The declared size travels separately
// from the encoding because the simulation's traffic model sizes a few
// modeled messages (PVSS beacon shares) analytically rather than by
// serialisation.
//
// Who may touch what: a header is written once by Ship and read once by
// the node that claims it. A body is written once, by the Ship that first
// met the payload, and is immutable from then on: every later copy of the
// same broadcast files the same slice under its own header, so the
// recipients' goroutines read it concurrently, and what each decodes from
// it may alias it (see package wire) for as long as the decoded value
// lives.

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

// frame is one mailbox entry: a recipient's header and the body it shares
// with the other recipients of the broadcast.
type frame struct {
	head, body []byte
}

// encodeHeader builds the header that files body under key as msg. A field
// the layout cannot carry is an error, never a truncation: the frame would
// parse as some other message.
func encodeHeader(key msgKey, msg simnet.Message, body []byte) ([]byte, error) {
	if len(msg.Tag) > math.MaxUint16 {
		return nil, fmt.Errorf("tag of %d bytes does not fit its u16 length", len(msg.Tag))
	}
	if msg.Size < 0 || msg.Size > math.MaxInt32 {
		return nil, fmt.Errorf("declared size %d of %s does not fit a non-negative i32", msg.Size, msg.Tag)
	}
	n := frameHeader + len(msg.Tag) + frameSize
	head := make([]byte, 0, framePrefix+n)
	head = binary.BigEndian.AppendUint32(head, uint32(n+len(body)))
	head = binary.BigEndian.AppendUint64(head, key.ks)
	head = binary.BigEndian.AppendUint32(head, key.kc)
	head = binary.BigEndian.AppendUint32(head, uint32(int32(msg.From)))
	head = binary.BigEndian.AppendUint16(head, uint16(len(msg.Tag)))
	head = append(head, msg.Tag...)
	head = binary.BigEndian.AppendUint32(head, uint32(msg.Size))
	return head, nil
}

// parseFrame parses one whole frame held in memory and destined to node
// `to`, returning the key it answers and the reconstructed message. The
// tag of an accepted frame is interned in tags (a node sees a few dozen
// distinct ones), so a frame costs no string allocation. The payload is
// decoded from f.body in place and may alias it.
func parseFrame(f frame, codec Codec, to simnet.NodeID, tags map[string]string) (msgKey, simnet.Message, error) {
	fail := func(err error) (msgKey, simnet.Message, error) { return msgKey{}, simnet.Message{}, err }
	if len(f.head) < framePrefix {
		return fail(fmt.Errorf("frame header of %d bytes is shorter than its length prefix", len(f.head)))
	}
	n := binary.BigEndian.Uint32(f.head)
	if n > maxFrame {
		return fail(fmt.Errorf("frame length %d exceeds cap %d", n, maxFrame))
	}
	head := f.head[framePrefix:]
	if int(n) != len(head)+len(f.body) {
		return fail(fmt.Errorf("frame declares %d bytes but holds %d of header and %d of body", n, len(head), len(f.body)))
	}
	if len(head) < frameHeader {
		return fail(fmt.Errorf("frame header of %d bytes is shorter than its fixed part", len(head)))
	}
	key := msgKey{ks: binary.BigEndian.Uint64(head), kc: binary.BigEndian.Uint32(head[8:])}
	from := simnet.NodeID(int32(binary.BigEndian.Uint32(head[12:])))
	tagLen := int(binary.BigEndian.Uint16(head[16:]))
	if len(head) != frameHeader+tagLen+frameSize {
		return fail(fmt.Errorf("frame header of %d bytes does not end with its %d-byte tag and declared size", len(head), tagLen))
	}
	rawTag := head[frameHeader : frameHeader+tagLen]
	size := int(int32(binary.BigEndian.Uint32(head[frameHeader+tagLen:])))
	if size < 0 {
		return fail(fmt.Errorf("%s frame has negative declared size %d", rawTag, size))
	}
	payload, used, err := codec.Decode(f.body)
	if err != nil {
		return fail(fmt.Errorf("decoding %s payload: %w", rawTag, err))
	}
	if used != len(f.body) {
		return fail(fmt.Errorf("%s payload decoded %d of %d bytes", rawTag, used, len(f.body)))
	}
	tag, ok := tags[string(rawTag)] // a map index by converted bytes does not allocate
	if !ok {
		tag = string(rawTag)
		tags[tag] = tag
	}
	return key, simnet.Message{From: from, To: to, Tag: tag, Payload: payload, Size: size}, nil
}
