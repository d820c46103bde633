package protocol

import (
	"reflect"
	"testing"

	"cycledger/internal/simnet"
)

// stripTraffic zeroes the fields aggregate mode is allowed to change —
// traffic totals (fewer, smaller messages shift the seeded per-send delay
// RNG) and the duration they induce — leaving every protocol outcome
// (inclusion, fees, rewards, recoveries, timeouts) for exact comparison.
func stripTraffic(reports []*RoundReport) []RoundReport {
	out := make([]RoundReport, len(reports))
	for i, r := range reports {
		c := *r
		c.Duration = 0
		c.Messages = 0
		c.Bytes = 0
		c.PhaseTraffic = nil
		c.RoleTraffic = nil
		out[i] = c
	}
	return out
}

// TestAggregateReportsMatchBaseline: switching on aggregate certificates +
// tree dissemination must not change any protocol decision — the reports
// are identical to the per-voter engine's except for the traffic fields.
// This is the engine-level face of the per-voter ≡ aggregate Quorum property.
func TestAggregateReportsMatchBaseline(t *testing.T) {
	scenarios := map[string]func(*Params){
		"default": func(p *Params) {},
		"cross-heavy": func(p *Params) {
			p.CrossFrac = 0.5
			p.InvalidFrac = 0.1
		},
		"byzantine": func(p *Params) {
			p.MaliciousFrac = 0.2
			p.CorruptLeaders = true
			p.ByzantineBehavior = Behavior{EquivocateIntra: true, ConcealCross: true}
		},
	}
	for name, tweak := range scenarios {
		t.Run(name, func(t *testing.T) {
			base := DefaultParams()
			base.Rounds = 2
			tweak(&base)
			_, plain := runEngine(t, base)

			agg := base
			agg.AggregateCerts = true
			_, agged := runEngine(t, agg)

			a, b := stripTraffic(plain), stripTraffic(agged)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("aggregate reports diverge from baseline:\nbaseline %+v\naggregate %+v", a, b)
			}
		})
	}
}

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
		for _, ph := range []string{"config", "semicommit", "intra", "inter", "score", "select", "block"} {
			sum.Add(m.SentByNodes(ph, e.roster.Leaders))
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
