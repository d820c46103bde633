package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestBlockSHANIx2MatchesSHA256 runs the two-lane kernel from the IV on
// messages padded by hand, one to three blocks long, and holds each lane
// to the standard library: once with different messages in the two lanes,
// once with the same slice in both.
func TestBlockSHANIx2MatchesSHA256(t *testing.T) {
	if !hasSHANI() {
		t.Skip("no SHA extensions on this host: the kernel cannot run")
	}
	pad := func(m []byte) []byte {
		p := append(append([]byte(nil), m...), 0x80)
		for len(p)%64 != 56 {
			p = append(p, 0)
		}
		return binary.BigEndian.AppendUint64(p, uint64(len(m))*8)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 183; n++ {
		ma, mb := make([]byte, n), make([]byte, n)
		rng.Read(ma)
		rng.Read(mb)
		pa, pb := pad(ma), pad(mb)
		for _, c := range []struct {
			name   string
			a, b   []byte
			ma, mb []byte
		}{{"distinct", pa, pb, ma, mb}, {"same", pa, pa, ma, ma}} {
			h := [2][8]uint32{iv, iv}
			blockSHANIx2(&h, c.a, c.b)
			for lane, m := range [][]byte{c.ma, c.mb} {
				if got, want := digestOf(h[lane]), Digest(sha256.Sum256(m)); got != want {
					t.Fatalf("%d bytes, %s lanes: lane %c = %x, want %x", n, c.name, 'A'+lane, got, want)
				}
			}
		}
	}
}
