package protocol

import (
	"sync/atomic"
	"testing"

	"cycledger/internal/wire"
)

// countingCodec is the wire codec counting its calls: AppendEncode runs on
// the serial send drain, Decode on the node goroutines of every lane.
type countingCodec struct {
	wire.Codec
	encodes, decodes *atomic.Int64
}

func (c countingCodec) AppendEncode(buf []byte, v any) ([]byte, error) {
	c.encodes.Add(1)
	return c.Codec.AppendEncode(buf, v)
}

func (c countingCodec) Decode(data []byte) (any, int, error) {
	c.decodes.Add(1)
	return c.Codec.Decode(data)
}

// TestLiveEncodesOncePerFanout checks, by counting, that the live carrier
// serialises a fan-out once: over two default rounds every frame is decoded
// by the node that claims it, while the encoder runs less than once for
// every six of them — a round's traffic is proposals, echoes, lists and
// blocks sent to whole committees, and each is one Broadcast.
func TestLiveEncodesOncePerFanout(t *testing.T) {
	var encodes, decodes atomic.Int64
	p := DefaultParams()
	p.Rounds = 2
	e, err := newEngine(p, countingCodec{encodes: &encodes, decodes: &decodes})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var msgs uint64
	for _, r := range reports {
		msgs += r.Messages
	}
	enc, dec := encodes.Load(), decodes.Load()
	t.Logf("%d messages, %d frames decoded, %d payloads encoded (%.1f frames each)", msgs, dec, enc, float64(dec)/float64(enc))
	if dec == 0 || uint64(dec) > msgs {
		t.Fatalf("%d frames decoded for %d messages sent", dec, msgs)
	}
	if 6*enc > dec {
		t.Errorf("%d AppendEncode calls for %d frames: more than one in six", enc, dec)
	}
}
