package protocol

import (
	"math/rand"
	"testing"

	"cycledger/internal/simnet"
)

// The oracle for Build: the static fault models as they were before they
// became Schedule directives — one simnet type per spec, each answering
// Fate/Down by itself — and the Build and NewEngine assembly that stacked
// them. Kept verbatim but for names; it changes only if a spec's meaning
// does. FuzzScheduleOracle compiles fuzzed configs both ways and compares
// every answer.

// oraclePartition splits the population into groups that cannot exchange
// messages in [startAt, healAt) (healAt 0 = never heals). Nodes not listed
// in any group form one implicit extra group.
type oraclePartition struct {
	group   map[simnet.NodeID]int
	startAt simnet.Time
	healAt  simnet.Time
}

func newOraclePartition(groups [][]simnet.NodeID, startAt, healAt simnet.Time) *oraclePartition {
	p := &oraclePartition{group: make(map[simnet.NodeID]int), startAt: startAt, healAt: healAt}
	for g, ids := range groups {
		for _, id := range ids {
			if _, dup := p.group[id]; !dup {
				p.group[id] = g
			}
		}
	}
	return p
}

func (p *oraclePartition) Fate(now simnet.Time, from, to simnet.NodeID) simnet.Fate {
	if now < p.startAt {
		return simnet.Fate{}
	}
	if p.healAt > 0 && now >= p.healAt {
		return simnet.Fate{}
	}
	gf, okf := p.group[from]
	gt, okt := p.group[to]
	if !okf {
		gf = -1
	}
	if !okt {
		gt = -1
	}
	return simnet.Fate{Drop: gf != gt}
}

func (p *oraclePartition) Down(simnet.Time, simnet.NodeID) bool { return false }

// oracleGray loses every message a gray node sends.
type oracleGray struct {
	gray map[simnet.NodeID]struct{}
}

func newOracleGray(nodes []simnet.NodeID) *oracleGray {
	g := &oracleGray{gray: make(map[simnet.NodeID]struct{}, len(nodes))}
	for _, id := range nodes {
		g.gray[id] = struct{}{}
	}
	return g
}

func (g *oracleGray) Fate(now simnet.Time, from, to simnet.NodeID) simnet.Fate {
	_, isGray := g.gray[from]
	return simnet.Fate{Drop: isGray}
}

func (g *oracleGray) Down(simnet.Time, simnet.NodeID) bool { return false }

// oraclePeriodicChurn: churner j is down whenever (now + offset_j) mod
// period falls inside the downtime window.
type oraclePeriodicChurn struct {
	offsets          map[simnet.NodeID]int64
	period, downtime int64
}

func (c *oraclePeriodicChurn) Fate(simnet.Time, simnet.NodeID, simnet.NodeID) simnet.Fate {
	return simnet.Fate{}
}

func (c *oraclePeriodicChurn) Down(now simnet.Time, node simnet.NodeID) bool {
	off, ok := c.offsets[node]
	if !ok {
		return false
	}
	return (int64(now)+off)%c.period < c.downtime
}

// oracleActive is the retired FaultsConfig.Active.
func oracleActive(f *FaultsConfig) bool {
	if f == nil {
		return false
	}
	if f.Loss > 0 || (f.LagFrac > 0 && f.LagTicks > 0) {
		return true
	}
	if p := f.Partition; p != nil && p.Split > 0 && p.Split < 1 {
		return true
	}
	if c := f.Churn; c != nil && c.Frac > 0 {
		return true
	}
	if g := f.Gray; g != nil && g.Frac > 0 {
		return true
	}
	if a := f.Adaptive; a != nil && a.Budget > 0 {
		return true
	}
	return false
}

// oracleBuild is the retired Build followed by the NewEngine assembly that
// stacked the adaptive planner's plan under the static layers.
func oracleBuild(f *FaultsConfig, n int, seed int64) (simnet.Faults, *simnet.Schedule) {
	if !oracleActive(f) {
		return nil, nil
	}
	var layers simnet.Composite
	if f.Loss > 0 {
		layers = append(layers, simnet.NewLoss(f.Loss, seed^faultSeedLoss))
	}
	if f.LagFrac > 0 && f.LagTicks > 0 {
		layers = append(layers, simnet.NewLag(f.LagFrac, simnet.Time(f.LagTicks), seed^faultSeedLag))
	}
	if p := f.Partition; p != nil && p.Split > 0 && p.Split < 1 {
		if a, b, ok := splitGroups(p.Split, n); ok {
			layers = append(layers, newOraclePartition([][]simnet.NodeID{a, b},
				simnet.Time(p.StartTick), simnet.Time(p.HealTick)))
		}
	}
	if g := f.Gray; g != nil && g.Frac > 0 {
		if nodes := seedSubset(g.Frac, n, seed^faultSeedGray); len(nodes) > 0 {
			layers = append(layers, newOracleGray(nodes))
		}
	}
	if c := f.Churn; c != nil && c.Frac > 0 {
		if nodes := seedSubset(c.Frac, n, seed^faultSeedChurn); len(nodes) > 0 {
			offsets := make(map[simnet.NodeID]int64, len(nodes))
			for j, id := range nodes {
				offsets[id] = int64(j) * c.Period / int64(len(nodes))
			}
			layers = append(layers, &oraclePeriodicChurn{offsets: offsets, period: c.Period, downtime: c.Downtime})
		}
	}
	var model simnet.Faults
	switch len(layers) {
	case 0:
	case 1:
		model = layers[0]
	default:
		model = layers
	}
	var plan *simnet.Schedule
	if a := f.Adaptive; a != nil && a.Budget > 0 {
		plan = simnet.NewSchedule()
		switch prev := model.(type) {
		case nil:
			model = plan
		case simnet.Composite:
			model = append(prev, plan)
		default:
			model = simnet.Composite{prev, plan}
		}
	}
	return model, plan
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *fuzzBytes) frac() float64 { return float64(b.next()) / 255 }

// faultsFromBytes decodes a FaultsConfig: one flag byte picks the specs,
// each spec reads its fields from the bytes that follow. Every tick is
// small, so the sampled times cross every edge.
func faultsFromBytes(b *fuzzBytes) *FaultsConfig {
	flags := b.next()
	f := &FaultsConfig{}
	if flags&1 != 0 {
		f.Loss = b.frac() / 2
	}
	if flags&2 != 0 {
		f.LagFrac, f.LagTicks = b.frac(), int64(b.next()%50)
	}
	if flags&4 != 0 {
		p := &PartitionSpec{Split: b.frac(), StartTick: 4 * int64(b.next())}
		if h := b.next(); h > 0 {
			p.HealTick = p.StartTick + 4*int64(h)
		}
		f.Partition = p
	}
	if flags&16 != 0 {
		f.Gray = &GraySpec{Frac: b.frac()}
	}
	if flags&32 != 0 {
		c := &ChurnSpec{Frac: b.frac(), Period: 2 + int64(b.next()%200)}
		c.Downtime = 1 + int64(b.next())%(c.Period-1)
		f.Churn = c
	}
	if flags&128 != 0 {
		f.Adaptive = &AdaptiveSpec{Budget: int(b.next() % 4), CrashLeaders: true}
	}
	return f
}

// FuzzScheduleOracle compiles a fuzzed FaultsConfig over n ≤ 64 nodes with
// Build and with the oracle, writes the same planner directives into both
// planner schedules (open-ended, then closed by CloseOpen, then one more),
// and requires the two models to agree — no model on both sides, or Fate
// and Down equal at every start, heal and window edge (±1), across two
// periods of any periodic churn, and for every sender against the split
// boundaries and a seeded sample of destinations. Both models are queried
// in one order, so their RNG layers stay in lockstep.
func FuzzScheduleOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{70, 1, 4, 128, 25, 100})                                        // partition only
	f.Add([]byte{9, 1, 16, 1, 128, 0, 0})                                        // gray below one node: compiles to nothing
	f.Add([]byte{9, 1, 255, 200, 255, 40, 60, 90, 20, 7, 128, 50})               // all static specs on
	f.Add([]byte{6, 0, 5, 144, 255, 1, 0, 1, 2, 1, 1, 2, 3, 2, 10, 2, 3, 4, 20}) // everyone gray, then the planner's CloseOpen
	f.Add([]byte{40, 7, 255, 30, 10, 200, 9, 1, 2, 3, 4, 5, 6, 3, 3, 4, 1, 9, 20, 7, 70})
	f.Add([]byte{63, 3, 255, 3, 30, 40, 10, 90, 8, 60, 0, 50, 200, 40, 16, 100, 90, 10, 3, 2, 1, 60, 30, 2, 11, 21, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		n := 2 + int(b.next()%63)
		seed := int64(b.next())<<8 | int64(b.next())
		cfg := faultsFromBytes(&b)
		if cfg.Validate() != nil {
			return
		}
		got, gotPlan := cfg.Build(n, seed)
		want, wantPlan := oracleBuild(cfg, n, seed)
		if (got == nil) != (want == nil) || (gotPlan == nil) != (wantPlan == nil) {
			t.Fatalf("n=%d %+v: Build gave model %v plan %v, oracle model %v plan %v", n, cfg, got, gotPlan != nil, want, wantPlan != nil)
		}
		if got == nil {
			return
		}

		var times []simnet.Time
		edge := func(ticks ...int64) {
			for _, e := range ticks {
				for _, d := range []int64{-1, 0, 1} {
					if e+d >= 0 {
						times = append(times, simnet.Time(e+d))
					}
				}
			}
		}
		edge(0, 1<<20)
		if p := cfg.Partition; p != nil {
			edge(p.StartTick, p.HealTick)
		}
		if gotPlan != nil {
			ids := func() []simnet.NodeID { return []simnet.NodeID{simnet.NodeID(int(b.next()) % n)} }
			direct := func(s *simnet.Schedule, kind byte, node, dst []simnet.NodeID, at simnet.Time) {
				switch kind % 3 {
				case 0:
					s.Crash(node[0], at, 0)
				case 1:
					s.Mute(node[0], at, 0)
				default:
					s.Cut(node, dst, at, 0)
				}
			}
			for i := 0; i < 3; i++ {
				kind, node, dst, at := b.next(), ids(), ids(), 4*int64(b.next())
				edge(at)
				direct(gotPlan, kind, node, dst, simnet.Time(at))
				direct(wantPlan, kind, node, dst, simnet.Time(at))
				if i == 1 {
					closeAt := 4 * int64(b.next())
					edge(closeAt)
					gotPlan.CloseOpen(simnet.Time(closeAt))
					wantPlan.CloseOpen(simnet.Time(closeAt))
				}
			}
		}
		fateTimes := len(times)
		if c := cfg.Churn; c != nil {
			for now := int64(0); now < 2*c.Period+2; now++ {
				times = append(times, simnet.Time(now))
			}
		}

		for _, now := range times {
			for id := simnet.NodeID(0); id < simnet.NodeID(n); id++ {
				if g, w := got.Down(now, id), want.Down(now, id); g != w {
					t.Fatalf("n=%d %+v: Down(%d, %d) = %v, oracle %v", n, cfg, now, id, g, w)
				}
			}
		}
		splits := []int{0, n - 1}
		if p := cfg.Partition; p != nil {
			c := int(p.Split * float64(n))
			splits = append(splits, c-1, c)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, now := range times[:fateTimes] {
			for from := 0; from < n; from++ {
				for _, to := range append(splits, rng.Intn(n), from) {
					if to < 0 || to >= n {
						continue
					}
					a, c := simnet.NodeID(from), simnet.NodeID(to)
					if g, w := got.Fate(now, a, c), want.Fate(now, a, c); g != w {
						t.Fatalf("n=%d %+v: Fate(%d, %d→%d) = %+v, oracle %+v", n, cfg, now, from, to, g, w)
					}
				}
			}
		}
	})
}
