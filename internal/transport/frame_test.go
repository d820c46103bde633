package transport_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"cycledger/internal/simnet"
	"cycledger/internal/transport"
)

// validFrames is one well-formed frame per payload family of the test
// codec — modeled (nil), string and pointer — under distinct senders, tags
// and declared sizes.
func validFrames(t testing.TB) [][]byte {
	var frames [][]byte
	for _, msg := range []simnet.Message{
		{From: 1, Tag: "TICK", Payload: nil, Size: 17},
		{From: 2, Tag: "PING", Payload: "hello", Size: 10},
		{From: -3, Tag: "", Payload: &note{text: "by value"}, Size: 13},
	} {
		f, err := transport.EncodeFrame(testCodec{}, msg)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	return frames
}

// relength returns a copy of f (at least its four-byte prefix long) whose
// length prefix counts exactly the bytes after it.
func relength(f []byte) []byte {
	f = bytes.Clone(f)
	binary.BigEndian.PutUint32(f, uint32(len(f)-4))
	return f
}

// patch returns a copy of f with fn applied to it.
func patch(f []byte, fn func(g []byte)) []byte {
	f = bytes.Clone(f)
	fn(f)
	return f
}

// FuzzParseFrame feeds the frame parser arbitrary bytes. It must never
// panic, must size nothing from a length it has not checked against the
// bytes it holds, and must accept only canonical frames: whatever it
// accepts re-encodes to exactly those bytes. The seeds cover each payload
// family; a cut at every boundary of the header and inside the body, each
// with the prefix stale and with it patched to agree; a byte too many, and
// a second payload after the first, with the prefix patched — bodies the
// codec consumes only in part; a tag length one off either way; a prefix
// one off either way and one over the cap; a tag length running past the
// end; a negative declared size; and two header variants that are valid.
func FuzzParseFrame(f *testing.F) {
	for _, fr := range validFrames(f) {
		if _, err := transport.ParseFrame(fr, testCodec{}); err != nil {
			f.Fatalf("well-formed frame refused: %v", err)
		}
		tagLen := int(binary.BigEndian.Uint16(fr[8:]))
		head := 10 + tagLen + 4
		f.Add(fr)
		for _, cut := range []int{0, 2, 4, 6, 8, 10, 10 + tagLen, head - 2, head, len(fr) - 1} {
			f.Add(fr[:cut])
			if cut >= 4 {
				f.Add(relength(fr[:cut]))
			}
		}
		long := append(slices.Clip(fr), 0)
		f.Add(long)
		f.Add(relength(long))
		f.Add(relength(append(slices.Clip(fr), fr[head:]...)))
		for _, d := range []int{1, -1} {
			f.Add(patch(fr, func(g []byte) { binary.BigEndian.PutUint16(g[8:], uint16(tagLen+d)) }))
			f.Add(patch(fr, func(g []byte) { binary.BigEndian.PutUint32(g, uint32(len(g)-4+d)) }))
		}
		f.Add(patch(fr, func(g []byte) { binary.BigEndian.PutUint32(g, transport.MaxFrame+1) }))
		f.Add(patch(fr, func(g []byte) { binary.BigEndian.PutUint16(g[8:], 0xFFFF) }))
		f.Add(patch(fr, func(g []byte) { g[head-4] |= 0x80 }))
		f.Add(patch(fr, func(g []byte) { g[head-1]++ }))
		f.Add(patch(fr, func(g []byte) { binary.BigEndian.PutUint32(g[4:], 0xFFFFFFFF) }))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, err := transport.ParseFrame(frame, testCodec{})
		if err != nil {
			return
		}
		if len(frame) > 4+transport.MaxFrame {
			t.Fatalf("accepted a %d-byte frame over the %d cap", len(frame), transport.MaxFrame)
		}
		if msg.Size < 0 {
			t.Fatalf("accepted a frame declaring %d bytes", msg.Size)
		}
		again, err := transport.EncodeFrame(testCodec{}, msg)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("accepted a non-canonical frame\n in:  %x\n out: %x", frame, again)
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
			_, err := transport.EncodeFrame(testCodec{}, tc.msg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("EncodeFrame error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
	t.Run("parse/size", func(t *testing.T) {
		fr := validFrames(t)[1]
		fr[10+len("PING")] |= 0x80
		_, err := transport.ParseFrame(fr, testCodec{})
		if err == nil || !strings.Contains(err.Error(), "negative declared size") || !strings.Contains(err.Error(), "PING") {
			t.Fatalf("ParseFrame error %v, want one naming the PING frame's negative declared size", err)
		}
	})
}

// tap is the live carrier keeping the message of every event it framed,
// with the frame in place of the payload, as the event holds it.
type tap struct {
	*transport.Live
	shipped []simnet.Message
}

func (t *tap) Ship(msg simnet.Message, same bool) any {
	msg.Payload = t.Live.Ship(msg, same)
	t.shipped = append(t.shipped, msg)
	return msg.Payload
}

// TestLiveCorruptFramePanics checks the delivery-side guards on a
// broadcast from node 9 to four nodes, whose events share one frame: a
// frame whose bytes no longer parse, or whose header disagrees with the
// delivery that carries it, runs no handler at any recipient, and Err keeps
// the first failure, naming the nodes and what failed. Each case damages a
// copy of the in-flight frame and delivers it as the events would. The
// name is kept from when such a delivery panicked, and "key" from when the
// header carried the delivery's scheduling key.
func TestLiveCorruptFramePanics(t *testing.T) {
	peers := []simnet.NodeID{0, 1, 2, 3}
	const size = 10 + len("PING") // offset of the declared size
	for _, tc := range []struct {
		name    string
		corrupt func(f []byte)
		want    string
	}{
		{"payload", func(f []byte) { f[len(f)-2] = 0xFF }, "decoding PING payload"},
		{"key", func(f []byte) { f[7] ^= 1 }, "frame header (from node 8, PING, 6 bytes) disagrees with its PING delivery of 6 bytes"},
		{"tag", func(f []byte) { f[10] = 'Q' }, "frame header (from node 9, QING, 6 bytes) disagrees"},
		{"declared", func(f []byte) { f[size+3]++ }, "frame header (from node 9, PING, 7 bytes) disagrees"},
		{"length", func(f []byte) { f[3]++ }, "frame declares"},
		{"size", func(f []byte) { f[size] |= 0x80 }, "PING frame has negative declared size"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := simnet.New(simnet.DefaultLatency(), 1)
			live := &tap{Live: transport.NewLive(testCodec{}, net)}
			net.SetCarrier(live)
			// Frame the four copies and stop before the first delivery.
			net.After(9, 1, func(c *simnet.Context) { c.Broadcast(peers, "PING", "x", 6) })
			net.Run(1)
			if len(live.shipped) != len(peers) {
				t.Fatalf("%d copies framed, want %d", len(live.shipped), len(peers))
			}
			frame := live.shipped[0].Payload.([]byte)
			for _, msg := range live.shipped[1:] {
				if &msg.Payload.([]byte)[0] != &frame[0] {
					t.Fatal("the broadcast's copies carry different frames")
				}
			}
			intact := 0
			for _, msg := range live.shipped {
				live.Deliver(&simnet.Context{Node: msg.To}, msg, func(*simnet.Context, simnet.Message) { intact++ })
			}
			if intact != len(peers) || live.Err() != nil {
				t.Fatalf("the intact frame ran %d handlers of %d (Err %v)", intact, len(peers), live.Err())
			}
			damaged := patch(frame, tc.corrupt)
			for _, msg := range live.shipped {
				ran := false
				msg.Payload = damaged
				live.Deliver(&simnet.Context{Node: msg.To}, msg, func(*simnet.Context, simnet.Message) { ran = true })
				if ran {
					t.Errorf("node %d: handler ran on a corrupt frame", msg.To)
				}
			}
			err := live.Err()
			for _, want := range []string{"live delivery to node 0 from node 9", tc.want} {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("Err() = %v, want the first failure, mentioning %q", err, want)
				}
			}
		})
	}
}
