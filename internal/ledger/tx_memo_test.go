package ledger

import (
	"math/rand"
	"sync"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/wire"
)

// decodedTx decodes a fresh copy of tx's frame and returns it with the body
// it was read from.
func decodedTx(t *testing.T, tx *Tx) (*Tx, []byte) {
	t.Helper()
	frame, err := wire.Encode(tx)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := wire.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	return v.(*Tx), frame[2:]
}

// TestDecodedTxHashesOnFirstID pins the lazy ID: decoding a transaction
// publishes no ID, the first ID call returns the hash of the bytes it was
// decoded from and publishes it, and neither a settled call nor the publish
// itself allocates — the only allocation of a first call is the preimage
// buffer.
func TestDecodedTxHashesOnFirstID(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 50; trial++ {
		src, _ := randomTxAndView(rng)
		tx, body := decodedTx(t, src)
		if tx.memo.Load() != idUnset || tx.id != (TxID{}) {
			t.Fatalf("trial %d: decoding published an ID (memo %d)", trial, tx.memo.Load())
		}
		if got, want := tx.ID(), crypto.H([]byte(txDomain), body); got != want {
			t.Fatalf("trial %d: ID %x, want the hash of the body read %x", trial, got, want)
		}
		if tx.memo.Load() != idSettled {
			t.Fatalf("trial %d: the first ID call did not publish (memo %d)", trial, tx.memo.Load())
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src, _ := randomTxAndView(rng)
	tx, _ := decodedTx(t, src)
	if n := testing.AllocsPerRun(100, func() {
		tx.memo.Store(idUnset)
		tx.ID()
	}); n > 1 {
		t.Fatalf("a first ID call allocates %v times, want at most the preimage buffer", n)
	}
	if n := testing.AllocsPerRun(100, func() { tx.ID() }); n != 0 {
		t.Fatalf("a settled ID call allocates %v times, want 0", n)
	}
}

// TestTxIDConcurrentFirstCalls makes the first ID call on one freshly
// decoded transaction from two goroutines at once. Both must get the hash
// of the body read, and under -race the publish must show no race.
func TestTxIDConcurrentFirstCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 100; trial++ {
		src, _ := randomTxAndView(rng)
		tx, body := decodedTx(t, src)
		want := crypto.H([]byte(txDomain), body)
		var got [2]TxID
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[i] = tx.ID()
			}()
		}
		start.Done()
		done.Wait()
		if got[0] != want || got[1] != want || tx.ID() != want {
			t.Fatalf("trial %d: concurrent first IDs %x and %x, settled %x, want %x", trial, got[0], got[1], tx.ID(), want)
		}
	}
}
