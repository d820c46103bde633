package protocol

import (
	"testing"

	"cycledger/internal/simnet"
)

// TestAggregateDeterministicAcrossParallelism: a pipelined aggregate run
// gives identical reports, Duration included, at 1, 4 and GOMAXPROCS simnet
// lanes. TestScenarioGolden's aggregate-pipelined-lanes column compares
// such a run with the sequential one and masks Duration, so no matrix cell
// compares pipelined durations across lane counts.
func TestAggregateDeterministicAcrossParallelism(t *testing.T) {
	render := func(par int) string {
		p := DefaultParams()
		p.Rounds = 2
		p.AggregateCerts = true
		p.Pipelined = true
		p.Parallelism = par
		_, reports := runEngine(t, p)
		return renderReports(reports)
	}
	base := render(1)
	for _, par := range []int{4, 0} {
		if got := render(par); got != base {
			t.Fatalf("parallelism %d diverges from parallelism 1:\n%s\nvs\n%s", par, got, base)
		}
	}
}

// TestAggregateLeaderTrafficReduced measures the point of the feature at
// test scale: committee leaders' sent bytes must drop when certificates
// aggregate and broadcasts ride the dissemination tree. (The paper-scale
// factor is reported by cycsim -artefact traffic; see EXPERIMENTS.md.)
func TestAggregateLeaderTrafficReduced(t *testing.T) {
	leaderSent := func(aggregate bool) simnet.Counter {
		p := DefaultParams()
		p.Rounds = 1
		p.AggregateCerts = aggregate
		e, _ := runEngine(t, p)
		var sum simnet.Counter
		m := e.Net.Metrics()
		for _, ph := range []Phase{PhaseConfig, PhaseSemiCommit, PhaseIntra, PhaseInter, PhaseScore, PhaseSelect, PhaseBlock} {
			sum.Add(m.SentByNodes(int(ph), e.roster.Leaders))
		}
		return sum
	}
	plain := leaderSent(false)
	agg := leaderSent(true)
	if agg.Bytes >= plain.Bytes {
		t.Fatalf("aggregate leaders sent %d bytes, baseline %d — no reduction", agg.Bytes, plain.Bytes)
	}
	t.Logf("leader egress: baseline %d bytes / %d msgs, aggregate %d bytes / %d msgs (%.1fx)",
		plain.Bytes, plain.Messages, agg.Bytes, agg.Messages, float64(plain.Bytes)/float64(agg.Bytes))
}

// TestAggregateRequiresCapableScheme: Params.Validate refuses aggregate
// mode under a scheme with no aggregate face (Ed25519 until a BLS-style
// scheme lands).
func TestAggregateRequiresCapableScheme(t *testing.T) {
	p := DefaultParams()
	p.AggregateCerts = true
	p.Scheme = "ed25519"
	if _, err := NewEngine(p); err == nil {
		t.Fatal("Ed25519 + AggregateCerts accepted")
	}
}
