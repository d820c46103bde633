package protocol

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"cycledger/internal/simnet"
)

// TestFaultsConfigValidate covers the spec's structural rejections.
func TestFaultsConfigValidate(t *testing.T) {
	bad := []FaultsConfig{
		{Loss: -0.1},
		{Loss: 1.5},
		{LagFrac: 2},
		{LagFrac: 0.5, LagTicks: -1},
		{Partition: &PartitionSpec{Split: 1.2}},
		{Partition: &PartitionSpec{Split: 0.5, HealTick: -3}},
		{Churn: &ChurnSpec{Frac: 0.5}},                             // period missing
		{Churn: &ChurnSpec{Frac: 0.5, Period: 100, Downtime: 100}}, // downtime ≥ period
		{Churn: &ChurnSpec{Frac: -0.5, Period: 100, Downtime: 10}}, // negative frac
		{Partition: &PartitionSpec{Split: 0.5, StartTick: -1}},
		{Partition: &PartitionSpec{Split: 0.5, StartTick: 100, HealTick: 100}}, // heal ≤ start
		{Partition: &PartitionSpec{Split: 0.5, StartTick: 100, HealTick: 40}},  // heal before start
		{Gray: &GraySpec{Frac: -0.1}},
		{Gray: &GraySpec{Frac: 1.5}},
		{Adaptive: &AdaptiveSpec{Budget: -1}},
		{Adaptive: &AdaptiveSpec{Budget: 3}}, // budget with no strategy
	}
	for i, f := range bad {
		f := f
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, f)
		}
		p := DefaultParams()
		p.Faults = &f
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Params.Validate accepted bad fault config", i)
		}
	}
	good := FaultsConfig{Loss: 0.1, LagFrac: 0.2, LagTicks: 30,
		Partition: &PartitionSpec{Split: 0.5, HealTick: 100},
		Churn:     &ChurnSpec{Frac: 0.2, Period: 300, Downtime: 50}}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected a well-formed config: %v", err)
	}
	n := DefaultParams().TotalNodes()
	if m, _ := good.Build(n, 1); m == nil {
		t.Fatal("composite config compiled to no model")
	}
	good2 := FaultsConfig{
		Gray:     &GraySpec{Frac: 0.1},
		Adaptive: &AdaptiveSpec{Budget: 4, CrashLeaders: true, GrayTopK: true, BracketDeadlines: true},
	}
	if err := good2.Validate(); err != nil {
		t.Fatalf("Validate rejected a well-formed extended config: %v", err)
	}
	if m, plan := good2.Build(n, 1); m == nil || plan == nil {
		t.Fatal("extended composite config compiled to no model or no planner schedule")
	}
	var nilCfg *FaultsConfig
	if err := nilCfg.Validate(); err != nil {
		t.Fatal("nil config must validate")
	}
	if m, plan := nilCfg.Build(n, 1); m != nil || plan != nil {
		t.Fatal("nil config must compile to no model")
	}
	if m, plan := (&FaultsConfig{}).Build(n, 1); m != nil || plan != nil {
		t.Fatal("zero config must compile to no model")
	}
}

// TestCutValidationMessages pins the text of every partition rejection.
func TestCutValidationMessages(t *testing.T) {
	for _, c := range []struct {
		f    FaultsConfig
		want string
	}{
		{FaultsConfig{Partition: &PartitionSpec{Split: 1.2}}, "protocol: partition split 1.2 out of [0,1]"},
		{FaultsConfig{Partition: &PartitionSpec{StartTick: -1}}, "protocol: negative partition start tick (-1)"},
		{FaultsConfig{Partition: &PartitionSpec{HealTick: -3}}, "protocol: negative partition heal tick (-3)"},
		{FaultsConfig{Partition: &PartitionSpec{StartTick: 100, HealTick: 40}}, "protocol: partition heals at tick 40, at or before its start tick 100"},
	} {
		if err := c.f.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("Validate() = %v, want %q", err, c.want)
		}
	}
}

// TestFaultsConfigClone: clones must not share nested pointers.
func TestFaultsConfigClone(t *testing.T) {
	orig := &FaultsConfig{Loss: 0.1, Partition: &PartitionSpec{Split: 0.5},
		Churn:    &ChurnSpec{Frac: 0.1, Period: 100, Downtime: 10},
		Gray:     &GraySpec{Frac: 0.2},
		Adaptive: &AdaptiveSpec{Budget: 4, CrashLeaders: true}}
	c := orig.Clone()
	c.Partition.Split = 0.9
	c.Churn.Frac = 0.7
	c.Churn.Period = 99
	c.Gray.Frac = 0.9
	c.Adaptive.Budget = 16
	if orig.Partition.Split != 0.5 || orig.Churn.Frac != 0.1 || orig.Churn.Period != 100 ||
		orig.Gray.Frac != 0.2 || orig.Adaptive.Budget != 4 {
		t.Fatalf("Clone shares nested pointers: %+v", orig)
	}
}

// TestNoFaultsByteIdenticalToFaultFree: a fault model that never acts
// changes nothing. A config that compiles to no layer (zero, an empty
// split, lag without ticks, zero fractions) and an installed partition
// that starts after the run both give reports byte-identical to a nil
// config — on an honest population, and on one whose offline leaders the
// silence watchdogs must evict. Honest cases run under the bare case name,
// the offline-leader ones under "offline-leaders/".
func TestNoFaultsByteIdenticalToFaultFree(t *testing.T) {
	honest := DefaultParams()
	honest.Rounds = 2
	honest.CrossFrac = 0.5
	for prefix, base := range map[string]Params{"": honest, "offline-leaders/": offlineLeaderParams()} {
		_, want := runEngine(t, base)
		for name, faults := range map[string]*FaultsConfig{
			"zero-config":         {},
			"inactive-partition":  {Partition: &PartitionSpec{Split: 0, HealTick: 50}},
			"inactive-lag":        {LagFrac: 0.5}, // no LagTicks → inactive
			"explicit-nil-fields": {Loss: 0, Churn: &ChurnSpec{Frac: 0}},
			"inert-partition":     {Partition: &PartitionSpec{Split: 0.5, StartTick: 1e12}},
		} {
			t.Run(prefix+name, func(t *testing.T) {
				p := base
				p.Faults = faults
				_, got := runEngine(t, p)
				if renderReports(got) != renderReports(want) {
					t.Fatalf("a fault config that never acts diverged from the fault-free engine:\n%s\nvs\n%s",
						renderReports(got), renderReports(want))
				}
			})
		}
	}
}

// offlineLeaderParams: a quarter of the population offline, the four
// bootstrap leaders first, on a fault-free network.
func offlineLeaderParams() Params {
	p := DefaultParams()
	p.Rounds = 2
	p.MaliciousFrac = 0.25
	p.CorruptLeaders = true
	p.ByzantineBehavior = Behavior{Offline: true}
	return p
}

// TestOfflineLeadersEvictedWithoutFaultModel: leaders that are offline
// from the round's start are impeached for silence on a network with no
// fault model, and round 1 commits transactions, sequential and pipelined.
func TestOfflineLeadersEvictedWithoutFaultModel(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		p := offlineLeaderParams()
		p.Pipelined = pipelined
		_, reports := runEngine(t, p)
		r := reports[0]
		silence := 0
		for _, rec := range r.Recoveries {
			if rec.Kind == "silence" {
				silence++
			}
		}
		if r.Throughput() == 0 || silence == 0 {
			t.Fatalf("pipelined=%v: round 1 committed %d tx with %d silence recoveries; want both > 0 (recoveries %v, timeouts %v)",
				pipelined, r.Throughput(), silence, r.Recoveries, r.Timeouts)
		}
	}
}

// TestLossyRoundAccounting: under iid loss the round still commits and
// the report carries the dropped traffic, in total and per phase.
func TestLossyRoundAccounting(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2
	p.Faults = &FaultsConfig{Loss: 0.05}
	_, reports := runEngine(t, p)
	var dropped uint64
	for _, r := range reports {
		if r.Throughput() == 0 {
			t.Fatalf("round %d committed nothing under 5%% loss", r.Round)
		}
		dropped += r.Dropped
		if r.PhaseDropped == nil {
			t.Fatal("PhaseDropped not populated in a round that dropped traffic")
		}
		var phaseDropSum uint64
		for _, c := range r.PhaseDropped {
			phaseDropSum += c.Messages
		}
		if phaseDropSum == 0 {
			t.Fatal("per-phase dropped counters all zero despite losses")
		}
	}
	if dropped == 0 {
		t.Fatal("5% loss dropped nothing across two rounds")
	}
}

// TestLagRoundLateAccounting: beyond-bound messages are counted late and
// still delivered.
func TestLagRoundLateAccounting(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	p.Faults = &FaultsConfig{LagFrac: 0.2, LagTicks: 40}
	_, reports := runEngine(t, p)
	if reports[0].Late == 0 {
		t.Fatal("20% lag marked no message late")
	}
	if reports[0].Throughput() == 0 {
		t.Fatal("lagged round committed nothing")
	}
}

// TestFaultyRunsDeterministicAcrossParallelism extends the determinism
// suite to the fault paths: seeded lossy, partitioned, and churning runs
// must be byte-identical at any simnet parallelism, sequential and
// pipelined.
func TestFaultyRunsDeterministicAcrossParallelism(t *testing.T) {
	models := map[string]*FaultsConfig{
		"lossy":          {Loss: 0.05},
		"partition-heal": {Partition: &PartitionSpec{Split: 0.5, HealTick: 250}},
		"churn":          {Churn: &ChurnSpec{Frac: 0.15, Period: 500, Downtime: 150}},
	}
	for name, faults := range models {
		for _, pipelined := range []bool{false, true} {
			mode := "sequential"
			if pipelined {
				mode = "pipelined"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				var want string
				for i, par := range []int{1, 4} {
					p := DefaultParams()
					p.Rounds = 2
					p.Pipelined = pipelined
					p.Parallelism = par
					p.Faults = faults
					_, reports := runEngine(t, p)
					got := renderReports(reports)
					if i == 0 {
						want = got
					} else if got != want {
						t.Fatalf("faulty run diverged between parallelism 1 and %d:\n%s\nvs\n%s", par, want, got)
					}
				}
			})
		}
	}
}

// phaseCrash is a test fault model that crashes one node from the instant
// a target tick is armed (via Engine hooks at phase start). Down uses an
// atomic so it is safe under parallel event execution; until armed the
// victim is up.
type phaseCrash struct {
	victim simnet.NodeID
	at     atomic.Int64
}

func newPhaseCrash(victim simnet.NodeID) *phaseCrash {
	pc := &phaseCrash{victim: victim}
	pc.at.Store(math.MaxInt64)
	return pc
}

func (p *phaseCrash) Fate(simnet.Time, simnet.NodeID, simnet.NodeID) simnet.Fate {
	return simnet.Fate{}
}

func (p *phaseCrash) Down(now simnet.Time, id simnet.NodeID) bool {
	return id == p.victim && int64(now) >= p.at.Load()
}

// crashInPhase runs one round with committee 0's bootstrap leader crashed
// the moment the given phase starts, and returns the round report.
func crashInPhase(t *testing.T, phase string, pipelined, aggregate bool) *RoundReport {
	t.Helper()
	p := DefaultParams()
	p.Rounds = 1
	p.Pipelined = pipelined
	p.AggregateCerts = aggregate
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	victim := e.Roster().Leaders[0]
	pc := newPhaseCrash(victim)
	e.Net.SetFaults(pc)
	e.SetHooks(Hooks{PhaseStart: func(round uint64, ph string) {
		if round == 1 && ph == phase {
			pc.at.Store(int64(e.Net.Now()))
		}
	}})
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return reports[0]
}

// TestRecoveryMatrix injects a leader crash at the start of each of the
// seven phases, sequential and pipelined, and asserts that the silence
// watchdogs complete a recovery for the victim's committee within the
// round — recovery is no longer reachable only through provable byzantine
// behaviour — and that the reports are deterministic.
func TestRecoveryMatrix(t *testing.T) {
	phases := []string{"config", "semicommit", "intra", "inter", "score", "select", "block"}
	for _, aggregate := range []bool{false, true} {
		certs := "flat"
		if aggregate {
			certs = "aggregate"
		}
		for _, pipelined := range []bool{false, true} {
			mode := "sequential"
			if pipelined {
				mode = "pipelined"
			}
			for _, phase := range phases {
				phase := phase
				t.Run(certs+"/"+mode+"/"+phase, func(t *testing.T) {
					r := crashInPhase(t, phase, pipelined, aggregate)
					found := false
					for _, rec := range r.Recoveries {
						if rec.Committee == 0 && rec.Kind == "silence" {
							found = true
						}
					}
					if !found {
						t.Fatalf("crash at %s start: no silence recovery for committee 0 (recoveries: %v, timeouts: %v)",
							phase, r.Recoveries, r.Timeouts)
					}
					// Determinism: the same injection replays byte-identically.
					again := crashInPhase(t, phase, pipelined, aggregate)
					a, b := *r, *again
					if !reflect.DeepEqual(&a, &b) {
						t.Fatalf("crash at %s start: reports diverged between identical runs:\n%+v\nvs\n%+v", phase, a, b)
					}
				})
			}
		}
	}
}

// TestOfflineLeaderMatrix is TestRecoveryMatrix on a fault-free network:
// committee 0's leader goes offline at the start of each phase and is
// evicted for silence within the round. Sequential only: the
// pipelined PoW stage reads every node's Behavior concurrently with the
// consensus phases.
func TestOfflineLeaderMatrix(t *testing.T) {
	for _, certs := range []string{"flat", "aggregate"} {
		for _, phase := range []string{"config", "semicommit", "intra", "inter", "score", "select", "block"} {
			t.Run(certs+"/"+phase, func(t *testing.T) {
				p := DefaultParams()
				p.Rounds = 1
				p.AggregateCerts = certs == "aggregate"
				e, err := NewEngine(p)
				if err != nil {
					t.Fatal(err)
				}
				victim := e.nodes[e.Roster().Leaders[0]]
				e.SetHooks(Hooks{PhaseStart: func(_ uint64, ph string) {
					if ph == phase {
						victim.Behavior.Offline = true
					}
				}})
				reports, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range reports[0].Recoveries {
					if rec.Committee == 0 && rec.Evicted == victim.ID && rec.Kind == "silence" {
						return
					}
				}
				t.Fatalf("leader %d offline from %s: not evicted for silence (recoveries %v, timeouts %v)",
					victim.ID, phase, reports[0].Recoveries, reports[0].Timeouts)
			})
		}
	}
}

// TestSilenceNeedsCorroboration: under an active fault model with a live,
// reachable leader, no silence eviction may fire — a single member cannot
// frame a leader the majority heard from.
func TestSilenceNeedsCorroboration(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2
	// Active model that drops nothing: tiny lag on a fraction of messages
	// reorders deliveries while every artifact arrives.
	p.Faults = &FaultsConfig{LagFrac: 0.05, LagTicks: 5}
	_, reports := runEngine(t, p)
	for _, r := range reports {
		for _, rec := range r.Recoveries {
			if rec.Kind == "silence" {
				t.Fatalf("round %d evicted a live leader for silence: %+v", r.Round, rec)
			}
		}
	}
}

// TestChurnedLeaderRecovers: a churn schedule that takes down a bootstrap
// leader triggers silence recovery and the run still commits transactions.
func TestChurnedLeaderRecovers(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	victim := e.Roster().Leaders[0]
	s := simnet.NewSchedule()
	s.Crash(victim, 1, 0) // crashes immediately, never rejoins
	e.Net.SetFaults(s)
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := reports[0]
	evicted := false
	for _, rec := range r.Recoveries {
		if rec.Evicted == victim {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("crashed leader %d was never evicted (recoveries: %v)", victim, r.Recoveries)
	}
	if r.Throughput() == 0 {
		t.Fatal("round with a crashed leader committed nothing")
	}
}

// TestTotalSelectBlackoutFallsBack: when no participation proof survives
// (every referee crashed through the selection phase), the engine keeps
// the current configuration instead of electing from an empty pool, and
// the next round still runs.
func TestTotalSelectBlackoutFallsBack(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	pc := &selectBlackout{eng: e}
	e.Net.SetFaults(pc)
	e.SetHooks(Hooks{PhaseStart: func(round uint64, ph string) {
		if round == 1 {
			pc.setPhase(ph)
		}
	}})
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Participants != 0 {
		t.Fatalf("blackout round recorded %d participants, want 0", reports[0].Participants)
	}
	if reports[1].Throughput() == 0 {
		t.Fatal("round after a selection blackout committed nothing")
	}
}

// selectBlackout crashes every referee member for the duration of the
// round-1 selection phase.
type selectBlackout struct {
	eng  *Engine
	from atomic.Int64
	to   atomic.Int64
}

func (s *selectBlackout) setPhase(ph string) {
	switch ph {
	case "select":
		s.from.Store(int64(s.eng.Net.Now()) + 1)
		s.to.Store(math.MaxInt64)
	case "block":
		s.to.Store(int64(s.eng.Net.Now()))
	}
}

func (s *selectBlackout) Fate(simnet.Time, simnet.NodeID, simnet.NodeID) simnet.Fate {
	return simnet.Fate{}
}

func (s *selectBlackout) Down(now simnet.Time, id simnet.NodeID) bool {
	f, t := s.from.Load(), s.to.Load()
	if f == 0 || int64(now) < f || int64(now) >= t {
		return false
	}
	return s.eng.Roster().RoleOf(id) == RoleReferee
}

// TestChainedRecoveryThroughCrashedSuccessor: when the eviction installs
// a successor that is itself crashed, the next watchdog pass must open a
// fresh motion against the new leader (accusations dedup per accused
// leader, not just per phase), so recovery chains to a live partial
// within maxRecoveryAttempts.
func TestChainedRecoveryThroughCrashedSuccessor(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	leader := e.Roster().Leaders[0]
	successor := e.roster.successorFor(0) // lowest-ID partial: the first replacement
	s := simnet.NewSchedule()
	s.Crash(leader, 1, 0)
	s.Crash(successor, 1, 0)
	e.Net.SetFaults(s)
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := reports[0]
	var committee0 []RecoveryEvent
	for _, rec := range r.Recoveries {
		if rec.Committee == 0 {
			committee0 = append(committee0, rec)
		}
	}
	if len(committee0) < 2 {
		t.Fatalf("expected a chained recovery (≥2 evictions) for committee 0, got %v", committee0)
	}
	final := e.Roster().Leaders[0]
	if final == leader || final == successor {
		t.Fatalf("final leader %d is still a crashed node (leader %d, first successor %d)", final, leader, successor)
	}
}

// adaptiveSpec is the full-strategy reactive configuration the frontier
// tests run: crash leaders, gray-fail the reputation top-k, bracket the
// intra deadline with leader→referee cuts.
func adaptiveSpec(budget int) *FaultsConfig {
	return &FaultsConfig{Adaptive: &AdaptiveSpec{
		Budget:           budget,
		CrashLeaders:     true,
		GrayTopK:         true,
		BracketDeadlines: true,
	}}
}

// TestAdaptiveDegradesMoreThanStatic pins the resilience frontier's
// headline property: at equal budget, the reactive adversary (crashing
// the leaders it just watched win) must hurt strictly more than the
// oblivious arm (the same budget spent on seed-random crashes) — lower
// committed throughput and more timeout verdicts.
func TestAdaptiveDegradesMoreThanStatic(t *testing.T) {
	const budget = 8
	run := func(static bool) (tx, timeouts, recoveries int) {
		p := DefaultParams()
		p.Rounds = 3
		p.Faults = adaptiveSpec(budget)
		p.Faults.Adaptive.Static = static
		_, reports := runEngine(t, p)
		for _, r := range reports {
			tx += r.Throughput()
			timeouts += len(r.Timeouts)
			recoveries += len(r.Recoveries)
		}
		return
	}
	aTx, aTo, aRec := run(false)
	sTx, sTo, _ := run(true)
	if aTx >= sTx {
		t.Fatalf("adaptive adversary (tx=%d) did not degrade throughput below equal-budget static (tx=%d)", aTx, sTx)
	}
	if aTo <= sTo {
		t.Fatalf("adaptive adversary (timeouts=%d) did not force more timeouts than static (timeouts=%d)", aTo, sTo)
	}
	if aRec == 0 {
		t.Fatal("adaptive attack triggered no recovery at all — watchdogs asleep?")
	}
}

// TestAdaptiveSmallBudgetAbsorbedByRecovery: the frontier's other regime —
// with budget below the committee count, eviction machinery absorbs the
// targeted crashes (recoveries fire, the run still commits every round).
func TestAdaptiveSmallBudgetAbsorbedByRecovery(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 3
	p.Faults = adaptiveSpec(2)
	_, reports := runEngine(t, p)
	var recoveries int
	for _, r := range reports {
		if r.Throughput() == 0 {
			t.Fatalf("round %d committed nothing under a budget-2 adaptive adversary", r.Round)
		}
		recoveries += len(r.Recoveries)
	}
	if recoveries == 0 {
		t.Fatal("budget-2 leader crashes triggered no recovery")
	}
}

// TestSemiCommitCrashRecoversInPhase: a leader that crashes at the start
// of the semi-commitment exchange is replaced within that phase — the
// C_R coordinator detects the missing announcement directly (common
// members cannot witness semicommit silence, so the committee-quorum
// path alone cannot reach >c/2 for mid-round crashes) — and the re-run
// under the successor leaves no semicommit timeout verdict behind.
func TestSemiCommitCrashRecoversInPhase(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		mode := "sequential"
		if pipelined {
			mode = "pipelined"
		}
		t.Run(mode, func(t *testing.T) {
			r := crashInPhase(t, "semicommit", pipelined, false)
			found := false
			for _, rec := range r.Recoveries {
				if rec.Committee == 0 && rec.Kind == "silence" {
					found = true
				}
			}
			if !found {
				t.Fatalf("no silence recovery for committee 0: %v", r.Recoveries)
			}
			for _, to := range r.Timeouts {
				if to.Phase == "semicommit" {
					t.Fatalf("semicommit timeout verdict despite in-phase recovery: %v", r.Timeouts)
				}
			}
		})
	}
}
