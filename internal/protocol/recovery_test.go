package protocol

import (
	"testing"

	"cycledger/internal/consensus"
	"cycledger/internal/simnet"
)

// TestEvictReqRejectsReplayedApprovals: the referee coordinator counts an
// approval only if it was signed for the request in hand. A silence witness
// carries no leader-signed evidence, so the >c/2 approval certificate is the
// whole case — if approvals validly signed in an earlier round, or for a
// different accuser's motion, could be stapled onto a fresh request, any
// partial-set member who once saw a majority could evict an honest leader at
// will (against Claim 4). The same signers approving the current request do
// start the eviction. Checked for both evidence forms.
func TestEvictReqRejectsReplayedApprovals(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		name := map[bool]string{false: "per-voter", true: "aggregate"}[aggregate]
		t.Run(name, func(t *testing.T) {
			p := DefaultParams()
			p.AggregateCerts = aggregate
			e, err := NewEngine(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range e.nodes {
				n.resetRound(e.roster)
			}
			e.setPhase("intra")
			scheme := consensus.HashScheme{}

			// evicts hands committee k's referee coordinator a silence
			// request for the current round from k's first partial member,
			// backed by a strict majority of k signing an approval for
			// signedRound and either that accuser or (otherAccuser) a
			// different member's motion, and reports whether the coordinator
			// proposed an eviction. Each case uses its own committee, so no
			// case rides on another's in-flight eviction.
			evicts := func(k, signedRound uint64, otherAccuser bool) bool {
				members := e.roster.Committee(k)
				accuser := e.roster.Partials[k][0]
				signedAccuser := accuser
				if otherAccuser {
					signedAccuser = members[len(members)-1]
				}
				req := EvictReqMsg{Round: e.round, Committee: k, Accuser: accuser,
					Witness: RecoveryWitness{Kind: "silence", Committee: k, Phase: "intra"}}
				bm := consensus.NewBitmap(len(members))
				var sigs [][]byte
				for i, id := range members[:len(members)/2+1] {
					ap := ApproveMsg{Round: signedRound, Committee: k, Accuser: signedAccuser, Voter: id}
					ap.Sig = scheme.Sign(e.nodes[id].Keys, ap.SigParts()...)
					req.Approvals = append(req.Approvals, ap)
					bm.Set(i)
					sigs = append(sigs, ap.Sig)
				}
				if aggregate {
					proof, err := scheme.Aggregate(sigs)
					if err != nil {
						t.Fatal(err)
					}
					req.Approvals, req.Bitmap, req.Proof = nil, bm, proof
				}
				coord := e.nodes[e.coordinatorFor(k)]
				e.Net.After(coord.ID, 1, func(ctx *simnet.Context) { coord.onEvictReq(ctx, req) })
				e.Net.RunUntilIdle()
				return coord.crEvictGen[k] > 0
			}

			if evicts(0, e.round-1, false) {
				t.Error("approvals signed in the previous round started an eviction")
			}
			if evicts(1, e.round, true) {
				t.Error("approvals signed for another accuser started an eviction")
			}
			if !evicts(2, e.round, false) {
				t.Error("approvals signed for this request did not start an eviction")
			}
		})
	}
}
