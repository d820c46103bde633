// Package pow implements the Proof-of-Work participation puzzle of §IV-F:
// nodes that want to join the next round must present a puzzle solution to
// the referee committee, which rate-limits Sybil identities between rounds.
// The puzzle is a standard SHA-256 partial-preimage search with an
// adjustable difficulty target.
package pow

import (
	"encoding/binary"
	"errors"

	"cycledger/internal/crypto"
	"cycledger/internal/wire"
)

// Puzzle is the per-round challenge published by the referee committee.
// Target is limb-form (crypto.Target): the Solve loop compares one digest
// per attempted nonce, so the threshold check must not allocate — the
// big.Int comparison this replaces dominated the whole simulator's
// allocation profile at realistic hardness.
type Puzzle struct {
	Round      uint64
	Randomness crypto.Digest // the round randomness R_r, so solutions cannot be precomputed
	Target     crypto.Target // a solution digest must be ≤ Target
}

// Solution certifies that a node spent work on the round's puzzle.
type Solution struct {
	PK    crypto.PublicKey
	Nonce uint64
}

// layout is the solution's wire description (see wire.Register).
func (s Solution) layout(c *wire.Coder) Solution {
	c.Bytes((*[]byte)(&s.PK))
	c.U64(&s.Nonce)
	return s
}

func init() { wire.Register(Solution.layout, wire.TagSolution) }

// NewPuzzle creates a puzzle whose expected solving cost is `hardness`
// hash evaluations (a uniformly random digest succeeds with probability
// 1/hardness).
func NewPuzzle(round uint64, randomness crypto.Digest, hardness uint64) Puzzle {
	if hardness == 0 {
		hardness = 1
	}
	return Puzzle{Round: round, Randomness: randomness, Target: crypto.FractionTargetLimbs(1, hardness)}
}

func (p Puzzle) digest(pk crypto.PublicKey, nonce uint64) crypto.Digest {
	var rb, nb [8]byte
	binary.BigEndian.PutUint64(rb[:], p.Round)
	binary.BigEndian.PutUint64(nb[:], nonce)
	return crypto.H([]byte("cycledger/pow/v1"), rb[:], p.Randomness[:], pk, nb[:])
}

// ErrNoSolution is returned when Solve exhausts its attempt budget.
var ErrNoSolution = errors.New("pow: attempt budget exhausted")

// Solve searches for a nonce satisfying the puzzle, trying at most
// maxAttempts nonces starting from `start`. Different nodes pass different
// start offsets so simulated work does not collide.
//
// The puzzle digest's framed stream is tag (8+16) ‖ round (8+8) ‖ R_r
// (8+32) ‖ pk (8+32) ‖ nonce (8+8), and everything before the nonce's 8
// value bytes is fixed across the search: 128 bytes for a 32-byte key,
// exactly two SHA-256 blocks. crypto.SearchNonce absorbs them once and runs
// the whole search in one call — one compression per attempt, and on amd64
// with AVX-512VL eight attempts per kernel pass — producing the digests,
// the nonce and the attempt count the one-shot path does; Verify still
// checks solutions through crypto.H.
func Solve(p Puzzle, pk crypto.PublicKey, start, maxAttempts uint64) (Solution, uint64, error) {
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], p.Round)
	nonce, tried, ok := crypto.SearchNonce(p.Target, start, maxAttempts, []byte("cycledger/pow/v1"), rb[:], p.Randomness[:], pk)
	if !ok {
		return Solution{}, tried, ErrNoSolution
	}
	return Solution{PK: pk, Nonce: nonce}, tried, nil
}

// Verify checks a claimed solution in a single hash evaluation.
func Verify(p Puzzle, s Solution) bool {
	return p.digest(s.PK, s.Nonce).BelowTarget(p.Target)
}
