package transport_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cycledger/internal/simnet"
	"cycledger/internal/transport"
)

// framePair is a frame's two parts: one recipient's header and the payload
// encoding it may share with other recipients.
type framePair struct{ head, body []byte }

// validFrames is one well-formed frame per payload family of the test
// codec — modeled (nil), string and pointer — under distinct keys, tags
// and declared sizes.
func validFrames(t testing.TB) []framePair {
	var frames []framePair
	for i, msg := range []simnet.Message{
		{From: 1, Tag: "TICK", Payload: nil, Size: 17},
		{From: 2, Tag: "PING", Payload: "hello", Size: 10},
		{From: -3, Tag: "", Payload: &note{text: "by value"}, Size: 13},
	} {
		head, body, err := transport.EncodeFrame(testCodec{}, uint64(i)<<40|7, uint32(i), msg)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, framePair{head, body})
	}
	return frames
}

// relength returns a copy of head (at least its four-byte prefix long)
// whose length prefix counts exactly the header bytes after it plus body.
func relength(head, body []byte) []byte {
	head = bytes.Clone(head)
	binary.BigEndian.PutUint32(head, uint32(len(head)-4+len(body)))
	return head
}

// FuzzParseFrame feeds the frame parser arbitrary header and body bytes.
// It must never panic, must size nothing from a length it has not checked
// against the bytes it holds, and must accept only canonical frames:
// whatever pair it accepts re-encodes to exactly that pair. The seeds cover
// each payload family; a cut at every boundary of the header and inside the
// body, and a byte too many on either, each with the prefix stale and with
// it patched to agree; bytes moved across the split with the total intact;
// a prefix over the cap, a prefix disagreeing with the bytes held, a tag
// length running past the end, and a negative declared size.
func FuzzParseFrame(f *testing.F) {
	const to = simnet.NodeID(9)
	for _, fr := range validFrames(f) {
		head, body := fr.head, fr.body
		if _, _, _, err := transport.ParseFrame(head, body, testCodec{}, to); err != nil {
			f.Fatalf("well-formed frame refused: %v", err)
		}
		f.Add(head, body)
		tagLen := int(binary.BigEndian.Uint16(head[20:]))
		for _, cut := range []int{0, 2, 4, 12, 16, 20, 22, 22 + tagLen, len(head) - 1} {
			f.Add(head[:cut], body)
			if cut >= 4 {
				f.Add(relength(head[:cut], body), body)
			}
		}
		for _, b := range [][]byte{nil, body[:len(body)-1], append(slices.Clip(body), 0)} {
			f.Add(head, b)
			f.Add(relength(head, b), b)
		}
		long := append(slices.Clip(head), 0)
		f.Add(long, body)
		f.Add(relength(long, body), body)
		f.Add(append(slices.Clip(head), body[0]), body[1:])
		f.Add(head[:len(head)-1], append([]byte{head[len(head)-1]}, body...))
		short := bytes.Clone(head)
		binary.BigEndian.PutUint32(short, uint32(len(head)+len(body)-5))
		f.Add(short, body)
		over := bytes.Clone(head)
		binary.BigEndian.PutUint32(over, transport.MaxFrame+1)
		f.Add(over, body)
		longTag := bytes.Clone(head)
		binary.BigEndian.PutUint16(longTag[20:], 0xFFFF)
		f.Add(longTag, body)
		negative := bytes.Clone(head)
		negative[len(head)-4] |= 0x80
		f.Add(negative, body)
	}
	f.Fuzz(func(t *testing.T, head, body []byte) {
		ks, kc, msg, err := transport.ParseFrame(head, body, testCodec{}, to)
		if err != nil {
			return
		}
		if len(head)+len(body) > 4+transport.MaxFrame {
			t.Fatalf("accepted a %d-byte frame over the %d cap", len(head)+len(body), transport.MaxFrame)
		}
		if msg.To != to {
			t.Fatalf("frame parsed for node %d came back addressed to %d", to, msg.To)
		}
		if msg.Size < 0 {
			t.Fatalf("accepted a frame declaring %d bytes", msg.Size)
		}
		againHead, againBody, err := transport.EncodeFrame(testCodec{}, ks, kc, msg)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(againHead, head) || !bytes.Equal(againBody, body) {
			t.Fatalf("accepted a non-canonical frame\n in:  %x | %x\n out: %x | %x", head, body, againHead, againBody)
		}
	})
}

// TestFrameFieldsOutOfRange checks that a field the layout cannot carry is
// an error naming it on both sides, never a truncation: a tag one byte past
// its u16 length used to encode as a frame with an empty tag, and a
// negative declared size used to reach the handler.
func TestFrameFieldsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  simnet.Message
		want string
	}{
		{"tag", simnet.Message{Tag: strings.Repeat("T", 1<<16), Payload: "x", Size: 6}, "tag of 65536 bytes"},
		{"size", simnet.Message{Tag: "PING", Payload: "x", Size: -6}, "declared size -6"},
	} {
		t.Run("encode/"+tc.name, func(t *testing.T) {
			_, _, err := transport.EncodeFrame(testCodec{}, 1, 0, tc.msg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("EncodeFrame error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
	t.Run("parse/size", func(t *testing.T) {
		fr := validFrames(t)[1]
		fr.head[len(fr.head)-4] |= 0x80
		_, _, _, err := transport.ParseFrame(fr.head, fr.body, testCodec{}, 9)
		if err == nil || !strings.Contains(err.Error(), "negative declared size") || !strings.Contains(err.Error(), "PING") {
			t.Fatalf("ParseFrame error %v, want one naming the PING frame's negative declared size", err)
		}
	})
}

// TestLiveCorruptFramePanics checks the delivery-side guards on a broadcast
// to four nodes, whose frames are four headers over one shared body: a
// frame whose bytes no longer parse, or that answers another key than the
// one its delivery claims, runs no handler, and the delivery returns an
// error naming the node and the key (and the tag, once one was read),
// which Err keeps from the first failure on. Damage to the shared body is
// met by every recipient; damage to one header by that recipient alone.
// The name is kept from when such a delivery panicked.
func TestLiveCorruptFramePanics(t *testing.T) {
	const victim = simnet.NodeID(2)
	peers := []simnet.NodeID{0, 1, 2, 3}
	for _, tc := range []struct {
		name    string
		corrupt func(head, body []byte)
		shared  bool // the damage is to the body, so it reaches every recipient
		want    string
	}{
		{"payload", func(_, body []byte) { body[len(body)-2] = 0xFF }, true, "decoding PING payload"},
		{"key", func(head, _ []byte) { head[4] ^= 1 }, false, "frame answers key"},
		{"length", func(head, _ []byte) { head[3]++ }, false, "frame declares"},
		{"size", func(head, _ []byte) { head[len(head)-4] |= 0x80 }, false, "PING frame has negative declared size"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, live := newLive(simnet.DefaultLatency(), 1)
			defer live.Close()
			for _, id := range peers {
				live.Attach(id)
			}
			// Ship the four frames and stop before the first delivery.
			net.After(9, 1, func(c *simnet.Context) { c.Broadcast(peers, "PING", "x", 6) })
			net.Run(1)
			if n := live.Buffered(); n != len(peers) {
				t.Fatalf("%d frames waiting after the broadcast, want %d", n, len(peers))
			}
			live.CorruptFrames(victim, tc.corrupt)
			for _, id := range peers {
				ran := false
				err := live.Claim(id, func(*simnet.Context, simnet.Message) { ran = true })
				if !tc.shared && id != victim {
					if err != nil || !ran {
						t.Errorf("node %d, whose frame is intact: err %v, handler ran %v", id, err, ran)
					}
					continue
				}
				if err == nil {
					t.Fatalf("node %d: delivery of a corrupt frame returned no error", id)
				}
				for _, want := range []string{fmt.Sprintf("to node %d under key (", id), tc.want} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("node %d: error %q does not mention %q", id, err, want)
					}
				}
				if ran {
					t.Errorf("node %d: handler ran on a corrupt frame", id)
				}
			}
			if err := live.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Err() = %v, want the first failure, mentioning %q", err, tc.want)
			}
		})
	}
}
