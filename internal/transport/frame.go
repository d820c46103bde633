package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"cycledger/internal/simnet"
)

// maxFrame bounds a single link frame: the codec's own 1 MiB message cap
// plus generous header room. A length prefix beyond it poisons the link
// instead of driving a giant allocation.
const maxFrame = 2 << 20

// Frame layout, after the u32 length prefix (which counts the bytes that
// follow it):
//
//	[u64 ks][u32 kc][u32 from][u16 tagLen][tag][u32 declared size][payload encoding]
//
// (ks, kc) is the scheduling key of the message's delivery event — the
// receiver files the decoded message under it so the delivery, which
// carries the same key, can claim exactly its payload. The declared size
// travels separately from the encoding because the simulation's traffic
// model sizes a few modeled messages (PVSS beacon shares) analytically
// rather than by serialisation.

// msgKey is a delivery event's scheduling key, the inbox index.
type msgKey struct {
	ks uint64
	kc uint32
}

// appendFrame builds one message frame for key carrying msg, with the
// payload encoded by codec.
func appendFrame(buf []byte, codec Codec, key msgKey, msg simnet.Message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length prefix, patched below
	buf = binary.BigEndian.AppendUint64(buf, key.ks)
	buf = binary.BigEndian.AppendUint32(buf, key.kc)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(msg.From)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(msg.Tag)))
	buf = append(buf, msg.Tag...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(msg.Size)))
	buf, err := codec.AppendEncode(buf, msg.Payload)
	if err != nil {
		return nil, fmt.Errorf("transport: encoding %s payload %T: %w", msg.Tag, msg.Payload, err)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf, nil
}

// readFrame reads one message frame destined to node `to`, returning the
// key it answers and the reconstructed message.
func readFrame(r io.Reader, codec Codec, to simnet.NodeID) (msgKey, simnet.Message, error) {
	fail := func(err error) (msgKey, simnet.Message, error) { return msgKey{}, simnet.Message{}, err }
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return fail(err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxFrame {
		return fail(fmt.Errorf("transport: frame length %d exceeds cap %d", n, maxFrame))
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return fail(err)
	}
	const hdr = 8 + 4 + 4 + 2 // key, from, tag length
	if len(body) < hdr {
		return fail(fmt.Errorf("transport: frame of %d bytes is shorter than its header", len(body)))
	}
	key := msgKey{ks: binary.BigEndian.Uint64(body), kc: binary.BigEndian.Uint32(body[8:])}
	from := simnet.NodeID(int32(binary.BigEndian.Uint32(body[12:])))
	tagLen := int(binary.BigEndian.Uint16(body[16:]))
	if len(body) < hdr+tagLen+4 {
		return fail(fmt.Errorf("transport: frame truncated inside its %d-byte tag", tagLen))
	}
	tag := string(body[hdr : hdr+tagLen])
	size := int(int32(binary.BigEndian.Uint32(body[hdr+tagLen:])))
	enc := body[hdr+tagLen+4:]
	payload, used, err := codec.Decode(enc)
	if err != nil {
		return fail(fmt.Errorf("transport: decoding %s payload: %w", tag, err))
	}
	if used != len(enc) {
		return fail(fmt.Errorf("transport: %s payload decoded %d of %d bytes", tag, used, len(enc)))
	}
	return key, simnet.Message{From: from, To: to, Tag: tag, Payload: payload, Size: size}, nil
}

// writeHello sends the connection's opening frame naming the dialing
// node; it is the first write on every mesh connection.
func writeHello(w io.Writer, from simnet.NodeID) error {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(int32(from)))
	_, err := w.Write(buf[:])
	return err
}

// readHello consumes the opening frame and returns the dialing node.
func readHello(r io.Reader) (simnet.NodeID, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return simnet.NodeID(int32(binary.BigEndian.Uint32(buf[:]))), nil
}
