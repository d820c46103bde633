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
// value bytes — its length frame included — is fixed across the search: 128
// bytes for a 32-byte key, exactly two SHA-256 blocks. Solve absorbs them
// once into a crypto.PrefixHasher and resumes the snapshotted midstate per
// attempt, absorbing only the nonce. That saves two of the three
// compressions an attempt would cost through crypto.H (the search is the
// simulator's single largest hashing consumer at realistic hardness) while
// producing byte-identical digests — Verify still checks solutions through
// the plain one-shot path.
func Solve(p Puzzle, pk crypto.PublicKey, start, maxAttempts uint64) (Solution, uint64, error) {
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], p.Round)
	ph, err := crypto.NewPrefixHasher([]byte("cycledger/pow/v1"), rb[:], p.Randomness[:], pk)
	if err != nil {
		return Solution{}, 0, err
	}
	var nb [8]byte
	for i := uint64(0); i < maxAttempts; i++ {
		nonce := start + i
		binary.BigEndian.PutUint64(nb[:], nonce)
		if ph.SumWith(nb[:]).BelowTarget(p.Target) {
			return Solution{PK: pk, Nonce: nonce}, i + 1, nil
		}
	}
	return Solution{}, maxAttempts, ErrNoSolution
}

// Verify checks a claimed solution in a single hash evaluation.
func Verify(p Puzzle, s Solution) bool {
	return p.digest(s.PK, s.Nonce).BelowTarget(p.Target)
}
