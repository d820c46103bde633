package protocol

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cycledger/internal/wire"
)

// countingCodec is the wire codec counting its calls: AppendEncode runs on
// the serial send drain, Decode on every lane. The
// call numbered failEncode, or failDecode, counted from 1, fails; 0 fails
// none.
type countingCodec struct {
	wire.Codec
	encodes, decodes       *atomic.Int64
	failEncode, failDecode int64
}

func (c countingCodec) AppendEncode(buf []byte, v any) ([]byte, error) {
	if c.encodes.Add(1) == c.failEncode {
		return nil, errors.New("injected encode failure")
	}
	return c.Codec.AppendEncode(buf, v)
}

func (c countingCodec) Decode(data []byte) (any, int, error) {
	if c.decodes.Add(1) == c.failDecode {
		return nil, 0, errors.New("injected decode failure")
	}
	return c.Codec.Decode(data)
}

// TestLiveEncodesOncePerFanout checks, by counting, that the live carrier
// serialises a fan-out once: over two default rounds every frame is decoded
// by each node it reaches, while the encoder runs less than once for
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

// TestLiveFailureIsAnError: a payload that fails to encode once, or a
// frame that fails to decode once, ends the run with an error naming the
// nodes, not a panic, and the run leaves no goroutine behind.
func TestLiveFailureIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec countingCodec
		want  string
	}{
		{"encode", countingCodec{failEncode: 500}, "live send from node"},
		{"decode", countingCodec{failDecode: 500}, "live delivery to node"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := settledGoroutines()
			tc.codec.encodes, tc.codec.decodes = new(atomic.Int64), new(atomic.Int64)
			e, err := newEngine(DefaultParams(), tc.codec)
			if err != nil {
				t.Fatal(err)
			}
			reports, err := e.Run()
			if err == nil {
				t.Fatalf("a run with an injected %s failure returned no error", tc.name)
			}
			t.Log(err)
			for _, want := range []string{tc.want, "from node", "to node", "injected " + tc.name + " failure"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if len(reports) != 0 {
				t.Errorf("%d rounds reported before the failure in round 1", len(reports))
			}
			if after := settledGoroutines(); after != before {
				t.Errorf("goroutines leaked: %d before the engine, %d after its run", before, after)
			}
		})
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// 20 ms, so that goroutines that have exited are also retired.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); still < 4 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}
