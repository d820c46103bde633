package crypto

import (
	"math/rand"
	"testing"
)

func TestLotteryTicketDistinctRoles(t *testing.T) {
	kp := GenerateKeyPair(rand.New(rand.NewSource(1)))
	r := HString("rand")
	a := LotteryTicket(5, r, kp.PK, RoleReferee)
	b := LotteryTicket(5, r, kp.PK, RolePartialSet)
	if a == b {
		t.Fatal("different roles produced identical tickets")
	}
}

func TestLotteryTicketDistinctRounds(t *testing.T) {
	kp := GenerateKeyPair(rand.New(rand.NewSource(2)))
	r := HString("rand")
	if LotteryTicket(5, r, kp.PK, RoleReferee) == LotteryTicket(6, r, kp.PK, RoleReferee) {
		t.Fatal("different rounds produced identical tickets")
	}
}

func TestLotteryExpectedWinners(t *testing.T) {
	// Selecting an expected 100 winners from 1000 candidates should land
	// within a loose binomial window.
	const pop, want = 1000, 100
	target := FractionTargetLimbs(want, pop)
	rng := rand.New(rand.NewSource(3))
	r := HString("seed")
	winners := 0
	for i := 0; i < pop; i++ {
		kp := GenerateKeyPair(rng)
		if LotteryTicket(2, r, kp.PK, RoleReferee).BelowTarget(target) {
			winners++
		}
	}
	if winners < 60 || winners > 140 {
		t.Fatalf("winners = %d, expected about %d", winners, want)
	}
}

func TestPartialSetCommitteeInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := HString("seed")
	const m = 13
	for i := 0; i < 100; i++ {
		kp := GenerateKeyPair(rng)
		if id := PartialSetCommittee(3, r, kp.PK, m); id >= m {
			t.Fatalf("committee id %d out of range", id)
		}
	}
}

func TestSortitionInputStructure(t *testing.T) {
	r := HString("rnd")
	in1 := SortitionInput(1, r)
	in2 := SortitionInput(2, r)
	if string(in1) == string(in2) {
		t.Fatal("round not encoded in sortition input")
	}
	other := HString("other")
	if string(SortitionInput(1, r)) == string(SortitionInput(1, other)) {
		t.Fatal("randomness not encoded in sortition input")
	}
	wantLen := len(RoleCommonMember) + 8 + HashSize
	if len(in1) != wantLen {
		t.Fatalf("input length %d, want %d", len(in1), wantLen)
	}
}
