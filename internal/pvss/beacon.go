package pvss

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"

	"cycledger/internal/crypto"
)

// The beacon protocol run inside the referee committee each round
// (§IV-F / §V-A). It is leaderless, which is why the paper prefers a
// SCRAPE-style construction for C_R:
//
//  1. Deal: every member shares a fresh random secret to all members with
//     threshold t = ⌊|C_R|/2⌋ + 1 and publishes Feldman commitments.
//  2. Verify: members check their shares against the commitments and file
//     complaints; dealers with any invalid share are disqualified.
//  3. Reconstruct: the secrets of all qualified dealers are reconstructed
//     from honest shares (so a dealer who aborts after committing cannot
//     withhold its contribution) and folded into the round randomness
//     R = H(secret_1 ‖ secret_2 ‖ ...).
//
// With an honest majority, at least one qualified dealer is honest and its
// secret is uniform and unknown to the adversary at commit time, so R is
// unpredictable; because reconstruction cannot be blocked, R is unbiasable.

// DealerBehavior configures how a (possibly malicious) member deals.
type DealerBehavior int

const (
	// DealHonest follows the protocol.
	DealHonest DealerBehavior = iota
	// DealCorruptShares hands out shares inconsistent with the published
	// commitments (detected in the verification phase).
	DealCorruptShares
	// DealAbort publishes commitments and shares, then refuses to
	// participate in reconstruction (its secret is still recovered).
	DealAbort
	// DealSilent never deals (simply excluded; cannot bias the output).
	DealSilent
)

// BeaconMember is one referee-committee participant.
type BeaconMember struct {
	ID       string
	Behavior DealerBehavior
}

// BeaconResult reports the outcome of one beacon run.
type BeaconResult struct {
	Randomness    crypto.Digest
	Qualified     []string // dealers whose secrets were folded in
	Disqualified  []string // dealers caught distributing bad shares
	Silent        []string // dealers that never dealt
	Reconstructed int      // number of secrets recovered via interpolation (aborters)
}

// RunBeacon executes the commit-verify-reconstruct protocol among members
// and returns the round randomness. rng drives all secret generation; a
// fixed rng and member list reproduce the same randomness, which keeps
// whole-protocol simulations replayable.
func RunBeacon(g *Group, members []BeaconMember, rng *rand.Rand) (*BeaconResult, error) {
	n := len(members)
	if n < 3 {
		return nil, fmt.Errorf("pvss: beacon needs at least 3 members, got %d", n)
	}
	threshold := n/2 + 1

	type dealt struct {
		member BeaconMember
		deal   *Deal
		secret *big.Int
	}
	res := &BeaconResult{}
	var deals []dealt

	// Phase 1: dealing.
	for _, m := range members {
		if m.Behavior == DealSilent {
			res.Silent = append(res.Silent, m.ID)
			continue
		}
		d, secret, err := NewDeal(g, n, threshold, rng)
		if err != nil {
			return nil, err
		}
		if m.Behavior == DealCorruptShares {
			// Corrupt a minority of shares: enough to cheat someone,
			// and enough for complaints to disqualify the dealer.
			for i := 0; i < threshold/2+1 && i < len(d.Shares); i++ {
				d.Shares[i].Value = new(big.Int).Add(d.Shares[i].Value, big.NewInt(1))
				d.Shares[i].Value.Mod(d.Shares[i].Value, g.Q)
			}
		}
		deals = append(deals, dealt{member: m, deal: d, secret: secret})
	}

	// Phase 2: verification and complaints. Every member verifies its own
	// share of every deal; any valid complaint disqualifies the dealer.
	// Here one process holds every member's share, so a deal's n checks
	// are one Deal.Verify: it fails exactly when some member's VerifyShare
	// would, or a commitment lies outside the group, at t exponentiations
	// a deal instead of n.
	var qualified []dealt
	for _, dl := range deals {
		if dl.deal.Verify() != nil {
			res.Disqualified = append(res.Disqualified, dl.member.ID)
			continue
		}
		qualified = append(qualified, dl)
	}
	if len(qualified) == 0 {
		return nil, fmt.Errorf("pvss: no qualified dealers")
	}

	// Phase 3: reconstruction. Honest members pool shares; an aborting
	// dealer's secret is recovered by interpolation. (In this simulation
	// honest shares are the verified ones held by each member.)
	sort.Slice(qualified, func(i, j int) bool { return qualified[i].member.ID < qualified[j].member.ID })
	var parts [][]byte
	for _, dl := range qualified {
		secret := dl.secret
		if dl.member.Behavior == DealAbort {
			rec, err := Reconstruct(g, threshold, dl.deal.Shares)
			if err != nil {
				return nil, fmt.Errorf("pvss: reconstructing aborted dealer %s: %w", dl.member.ID, err)
			}
			if rec.Cmp(dl.secret) != 0 {
				return nil, fmt.Errorf("pvss: reconstruction mismatch for dealer %s", dl.member.ID)
			}
			secret = rec
			res.Reconstructed++
		}
		res.Qualified = append(res.Qualified, dl.member.ID)
		parts = append(parts, secret.Bytes())
	}
	res.Randomness = crypto.H(parts...)
	return res, nil
}
