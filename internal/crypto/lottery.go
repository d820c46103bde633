package crypto

import (
	"encoding/binary"
)

// Role strings for the lottery, per §IV-F of the paper.
const (
	RoleReferee    = "REFEREE_COMMITTEE_MEMBER"
	RolePartialSet = "PARTIAL_SET_MEMBER"
	// RoleCommonMember is the sortition input tag used by Algorithm 1
	// (COMMON_MEMBER ‖ r ‖ R_r).
	RoleCommonMember = "COMMON_MEMBER"
)

// LotteryTicket computes H(r+1 ‖ R_r ‖ PK ‖ role), the value a referee
// member compares against the difficulty d(role) to decide whether node PK
// holds the given role next round (§IV-F).
func LotteryTicket(nextRound uint64, randomness Digest, pk PublicKey, role string) Digest {
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], nextRound)
	return H(rb[:], randomness[:], pk, []byte(role))
}

// PartialSetCommittee maps a winning partial-set ticket to the committee the
// node will serve, via H(...) mod m, per §IV-F.
func PartialSetCommittee(nextRound uint64, randomness Digest, pk PublicKey, m uint64) uint64 {
	return LotteryTicket(nextRound, randomness, pk, RolePartialSet).Mod(m)
}

// SortitionInput builds the VRF input COMMON_MEMBER ‖ r ‖ R_r used by
// Algorithm 1.
func SortitionInput(round uint64, randomness Digest) []byte {
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], round)
	out := make([]byte, 0, len(RoleCommonMember)+8+len(randomness))
	out = append(out, RoleCommonMember...)
	out = append(out, rb[:]...)
	out = append(out, randomness[:]...)
	return out
}
