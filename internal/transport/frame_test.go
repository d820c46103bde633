package transport_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"cycledger/internal/simnet"
	"cycledger/internal/transport"
)

// validFrames is one well-formed frame per payload family of the test
// codec — modeled (nil), string and pointer — under distinct keys, tags
// and declared sizes.
func validFrames(t testing.TB) [][]byte {
	var frames [][]byte
	for i, msg := range []simnet.Message{
		{From: 1, Tag: "TICK", Payload: nil, Size: 17},
		{From: 2, Tag: "PING", Payload: "hello", Size: 10},
		{From: -3, Tag: "", Payload: &note{text: "by value"}, Size: 13},
	} {
		frame, err := transport.EncodeFrame(testCodec{}, uint64(i)<<40|7, uint32(i), msg)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// relength returns body behind a length prefix that counts it exactly.
func relength(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// FuzzParseFrame feeds the frame parser arbitrary bytes. It must never
// panic, must size nothing from a length it has not checked against the
// bytes it holds, and must accept only canonical frames: whatever it
// accepts re-encodes to exactly the input. The seeds cover each payload
// family, a cut at every header boundary (with the prefix stale and with
// it patched to agree), a prefix over the cap, a prefix disagreeing with
// the bytes held, a trailing byte inside and outside the declared length,
// and a tag length running past the end.
func FuzzParseFrame(f *testing.F) {
	const to = simnet.NodeID(9)
	for _, frame := range validFrames(f) {
		if _, _, _, err := transport.ParseFrame(frame, testCodec{}, to); err != nil {
			f.Fatalf("well-formed frame refused: %v", err)
		}
		f.Add(frame)
		tagLen := int(binary.BigEndian.Uint16(frame[20:]))
		for _, cut := range []int{0, 2, 4, 12, 16, 20, 22, 22 + tagLen, 22 + tagLen + 4, len(frame) - 1} {
			f.Add(frame[:cut])
			if cut >= 4 {
				f.Add(relength(frame[4:cut]))
			}
		}
		f.Add(append(frame[:len(frame):len(frame)], 0))
		f.Add(relength(append(frame[4:len(frame):len(frame)], 0)))
		short := bytes.Clone(frame)
		binary.BigEndian.PutUint32(short, uint32(len(frame)-5))
		f.Add(short)
		over := bytes.Clone(frame)
		binary.BigEndian.PutUint32(over, transport.MaxFrame+1)
		f.Add(over)
		longTag := bytes.Clone(frame)
		binary.BigEndian.PutUint16(longTag[20:], 0xFFFF)
		f.Add(longTag)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ks, kc, msg, err := transport.ParseFrame(data, testCodec{}, to)
		if err != nil {
			return
		}
		if len(data) > 4+transport.MaxFrame {
			t.Fatalf("accepted a %d-byte frame over the %d cap", len(data), transport.MaxFrame)
		}
		if msg.To != to {
			t.Fatalf("frame parsed for node %d came back addressed to %d", to, msg.To)
		}
		again, err := transport.EncodeFrame(testCodec{}, ks, kc, msg)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted a non-canonical frame\n in:  %x\n out: %x", data, again)
		}
	})
}

// TestLiveCorruptFramePanics checks the delivery-side guards: a frame whose
// bytes no longer parse, or that answers another key than the one its
// delivery claims, stops the run with a panic naming the node and the key
// (and the tag, once one was read) instead of running a handler on it.
func TestLiveCorruptFramePanics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(frame []byte)
		want    string
	}{
		{"payload", func(frame []byte) { frame[len(frame)-2] = 0xFF }, "decoding PING payload"},
		{"key", func(frame []byte) { frame[4] ^= 1 }, "frame answers key"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, live := newLive(simnet.DefaultLatency(), 1)
			defer live.Close()
			ran := false
			live.Attach(0)
			net.Register(0, func(ctx *simnet.Context, msg simnet.Message) { ran = true })
			net.Send(1, 0, "PING", "x", 6)
			live.CorruptFrames(0, tc.corrupt)
			defer func() {
				err, _ := recover().(error)
				if err == nil {
					t.Fatal("delivery of a corrupt frame did not panic with an error")
				}
				for _, want := range []string{"node 0", "under key (", tc.want} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("panic %q does not mention %q", err, want)
					}
				}
				if ran {
					t.Error("handler ran on a corrupt frame")
				}
			}()
			net.RunUntilIdle()
		})
	}
}
