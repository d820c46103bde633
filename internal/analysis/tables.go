package analysis

import "math"

// This file holds the failure expressions that span rounds and protocols:
// a run of epochs, Elastico's §II collapse, and CycLedger's exact
// per-round failure. Table I's rows, with their own formulas, are
// internal/baseline's TableI; cycsim -artefact table1 prints them.

// EpochFailure returns the probability that at least one of `epochs`
// independent rounds fails, given per-round failure probability p:
// 1 − (1−p)^epochs. The paper's §II uses this to dismiss Elastico: "when
// there are 16 shards, the failure probability is 97% over only 6 epochs".
func EpochFailure(p float64, epochs int) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return 1 - math.Pow(1-p, float64(epochs))
}

// ElasticoEpochClaim reproduces the §II spot value: Elastico runs PBFT in
// m=16 committees of c=100 under a 1/4 adversary, and PBFT fails once a
// committee holds ≥ c/3 byzantine members. Using the exact hypergeometric
// tail (population 2000, 500 malicious), a committee fails with
// probability ≈ 0.025 per epoch, some committee fails with ≈ 0.33, and
// over 6 epochs the system fails with ≈ 0.91 — the paper (citing
// OmniLedger) quotes 97%, the same qualitative collapse; the exact
// constant depends on Elastico's precise parameters.
func ElasticoEpochClaim(epochs int) float64 {
	perCommittee := RatFloat(HypergeomTail(2000, 500, 100, 34))
	perEpoch := EpochFailure(perCommittee, 16) // any of 16 committees
	return EpochFailure(perEpoch, epochs)
}

// CycLedgerRoundFailure is the paper's overall CycLedger per-round failure
// expression computed exactly: m·(tail + (1/3)^λ) where tail is the exact
// hypergeometric committee-failure probability (sharper than e^{-c/12}).
func CycLedgerRoundFailure(n, t, m, c, lambda int64) float64 {
	tail := RatFloat(CommitteeFailureProb(n, t, c))
	ps := RatFloat(PartialSetFailureProb(lambda))
	return min(1, float64(m)*(tail+ps))
}
