package pvss

import (
	"fmt"
	"math/rand"
	"testing"
)

func honestMembers(n int) []BeaconMember {
	ms := make([]BeaconMember, n)
	for i := range ms {
		ms[i] = BeaconMember{ID: string(rune('a' + i)), Behavior: DealHonest}
	}
	return ms
}

func TestBeaconAllHonest(t *testing.T) {
	g := testGroup()
	res, err := RunBeacon(g, honestMembers(5), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Qualified) != 5 || len(res.Disqualified) != 0 {
		t.Fatalf("qualified=%v disqualified=%v", res.Qualified, res.Disqualified)
	}
	if res.Randomness.IsZero() {
		t.Fatal("zero randomness")
	}
}

func TestBeaconDeterministicGivenSeed(t *testing.T) {
	g := testGroup()
	a, err := RunBeacon(g, honestMembers(4), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBeacon(g, honestMembers(4), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Randomness != b.Randomness {
		t.Fatal("same seed produced different randomness")
	}
	// Pinned from the build that still exponentiated with math/big: the
	// comb table changed how the beacon computes, not what.
	const pinned = "2563399f3d8e7de6e309376e762e9dbceb02137b5e4ebeee783b0244969622ff"
	if got := fmt.Sprintf("%x", a.Randomness[:]); got != pinned {
		t.Fatalf("seed 42 randomness = %s, want %s", got, pinned)
	}
	c, err := RunBeacon(g, honestMembers(4), rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Randomness == c.Randomness {
		t.Fatal("different seeds produced identical randomness")
	}
}

func TestBeaconDisqualifiesCorruptDealer(t *testing.T) {
	g := testGroup()
	ms := honestMembers(5)
	ms[1].Behavior = DealCorruptShares
	res, err := RunBeacon(g, ms, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Disqualified) != 1 || res.Disqualified[0] != ms[1].ID {
		t.Fatalf("disqualified = %v, want [%s]", res.Disqualified, ms[1].ID)
	}
	if len(res.Qualified) != 4 {
		t.Fatalf("qualified = %v", res.Qualified)
	}
}

func TestBeaconRecoversAborterSecret(t *testing.T) {
	// An aborting dealer is committed: its secret is reconstructed, so
	// aborting cannot bias the output.
	g := testGroup()
	ms := honestMembers(5)
	ms[2].Behavior = DealAbort
	res, err := RunBeacon(g, ms, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconstructed != 1 {
		t.Fatalf("reconstructed = %d, want 1", res.Reconstructed)
	}
	if len(res.Qualified) != 5 {
		t.Fatalf("aborter should stay qualified, got %v", res.Qualified)
	}
}

func TestBeaconAbortCannotBias(t *testing.T) {
	// The randomness with an aborting dealer equals the randomness had the
	// dealer stayed online, because the same secrets are folded in.
	g := testGroup()
	honest, err := RunBeacon(g, honestMembers(5), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	ms := honestMembers(5)
	ms[4].Behavior = DealAbort
	aborted, err := RunBeacon(g, ms, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if honest.Randomness != aborted.Randomness {
		t.Fatal("abort changed the beacon output — bias is possible")
	}
}

func TestBeaconSilentDealerExcluded(t *testing.T) {
	g := testGroup()
	ms := honestMembers(5)
	ms[0].Behavior = DealSilent
	res, err := RunBeacon(g, ms, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Silent) != 1 || len(res.Qualified) != 4 {
		t.Fatalf("silent=%v qualified=%v", res.Silent, res.Qualified)
	}
}

func TestBeaconMixedAdversary(t *testing.T) {
	// Two of five members malicious (minority): output still produced,
	// corrupt dealer excluded, aborter recovered.
	g := testGroup()
	ms := honestMembers(5)
	ms[0].Behavior = DealCorruptShares
	ms[1].Behavior = DealAbort
	res, err := RunBeacon(g, ms, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Qualified) != 4 {
		t.Fatalf("qualified = %v, want 4 members", res.Qualified)
	}
	if res.Randomness.IsZero() {
		t.Fatal("zero randomness")
	}

	// The same adversary at the engine's beacon size, pinned from the
	// math/big build: which dealer the share checks disqualify decides
	// which secrets are folded in.
	ms = honestMembers(9)
	ms[1].Behavior = DealCorruptShares
	ms[2].Behavior = DealAbort
	res, err = RunBeacon(g, ms, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	const pinned = "ce0126873ba7e1b26be0acef556fa703942e6adbcde94a1a91332514d5f1e1c4"
	if got := fmt.Sprintf("%x", res.Randomness[:]); got != pinned || len(res.Disqualified) != 1 || res.Reconstructed != 1 {
		t.Fatalf("9 members, seed 42: randomness %s (want %s), disqualified %v, reconstructed %d",
			got, pinned, res.Disqualified, res.Reconstructed)
	}
}

func TestBeaconTooFewMembers(t *testing.T) {
	g := testGroup()
	if _, err := RunBeacon(g, honestMembers(2), rand.New(rand.NewSource(6))); err == nil {
		t.Fatal("beacon with 2 members accepted")
	}
}

func TestBeaconAllSilentFails(t *testing.T) {
	g := testGroup()
	ms := honestMembers(3)
	for i := range ms {
		ms[i].Behavior = DealSilent
	}
	if _, err := RunBeacon(g, ms, rand.New(rand.NewSource(7))); err == nil {
		t.Fatal("beacon with no dealers should fail")
	}
}

// TestBeaconAllocCeiling pins what keeping group elements as arrays bought:
// one honest beacon at the engine's size read 5,986 allocations while every
// product went through math/big, and reads about 1,700 now.
func TestBeaconAllocCeiling(t *testing.T) {
	const ceiling = 2500
	g := testGroup()
	members, rng := honestMembers(9), rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunBeacon(g, members, rng); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per beacon at n = 9", allocs)
	if allocs > ceiling {
		t.Fatalf("%.0f allocations per beacon, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkRunBeacon times an honest beacon at the engine's size (n = 9,
// engineBeaconMax), at 15 and 31, and at 60, a paper-scale referee
// committee; the group and its comb are built before the timer starts.
func BenchmarkRunBeacon(b *testing.B) {
	g := testGroup()
	for _, n := range []int{9, 15, 31, 60} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			members, rng := honestMembers(n), rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunBeacon(g, members, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
