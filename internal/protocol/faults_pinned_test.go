package protocol

import "testing"

// TestFaultRunsPinned pins what a faulted run produces. The determinism
// suite compares faulted runs with each other and TestVirtualTimePinned is
// fault-free, so neither sees a change to how a fault spec compiles. This
// states the numbers — Σ Duration, Σ tx, Σ Dropped, Σ Late, recoveries and
// timeout verdicts over two rounds of the default topology at seed 1 — for
// every static spec alone and for one config enabling all of them plus
// loss, lag and the adaptive planner, sequential and pipelined. A change
// that moves one changed fault behaviour.
//
// Re-pinned when a silence sweep that finds nobody silent stopped
// scheduling a timer per partial-set member: each such sweep had taken a
// tick and a scheduling key per member, so every later delay draw, loss
// draw and window crossing shifted. With those no-op timers put back, the
// previous literals are reproduced exactly.
func TestFaultRunsPinned(t *testing.T) {
	type total struct {
		ticks, tx, dropped, late, recoveries, timeouts uint64
	}
	partition := &PartitionSpec{Split: 0.5, StartTick: 300, HealTick: 700}
	oneWay := &OneWayPartitionSpec{Split: 0.3, StartTick: 100, HealTick: 500}
	gray := &GraySpec{Frac: 0.1}
	periodic := &ChurnSpec{Frac: 0.15, Period: 500, Downtime: 150}
	windows := &ChurnSpec{Frac: 0.2, Windows: []WindowSpec{{From: 100, To: 250}, {From: 800, To: 900}}}
	burst := &BurstLossSpec{PEnter: 0.02, PExit: 0.2, Loss: 0.9}
	for _, tc := range []struct {
		name      string
		faults    *FaultsConfig
		seq, pipe total
	}{
		{"partition", &FaultsConfig{Partition: partition}, total{1136, 160, 872, 0, 0, 4}, total{852, 160, 872, 0, 0, 4}},
		{"one-way", &FaultsConfig{OneWay: oneWay}, total{1591, 160, 1352, 0, 8, 0}, total{1269, 160, 1352, 0, 8, 0}},
		{"gray", &FaultsConfig{Gray: gray}, total{1313, 160, 1090, 0, 0, 1}, total{977, 160, 1090, 0, 0, 1}},
		{"periodic-churn", &FaultsConfig{Churn: periodic}, total{1495, 160, 621, 0, 1, 0}, total{1173, 160, 621, 0, 1, 0}},
		{"churn-windows", &FaultsConfig{Churn: windows}, total{1345, 160, 333, 0, 0, 0}, total{1016, 160, 333, 0, 0, 0}},
		{"burst", &FaultsConfig{Burst: burst}, total{1496, 158, 1872, 0, 1, 4}, total{1172, 158, 1872, 0, 1, 4}},
		{"all", &FaultsConfig{
			Loss: 0.02, LagFrac: 0.1, LagTicks: 20,
			Partition: partition, OneWay: oneWay, Gray: gray, Churn: periodic, Burst: burst,
			Adaptive: &AdaptiveSpec{Budget: 2, CrashLeaders: true, BracketDeadlines: true},
		}, total{2514, 35, 2956, 461, 8, 19}, total{2032, 35, 2956, 461, 8, 19}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]total
			for mode, pipelined := range []bool{false, true} {
				p := DefaultParams()
				p.Rounds, p.Seed, p.Pipelined = 2, 1, pipelined
				p.Faults = tc.faults
				_, reports := runEngine(t, p)
				for _, r := range reports {
					s := &got[mode]
					s.ticks += uint64(r.Duration)
					s.tx += uint64(r.Throughput())
					s.dropped += r.Dropped
					s.late += r.Late
					s.recoveries += uint64(len(r.Recoveries))
					s.timeouts += uint64(len(r.Timeouts))
				}
			}
			if got[0] != tc.seq || got[1] != tc.pipe {
				t.Errorf("sequential %+v, pipelined %+v; pinned %+v and %+v", got[0], got[1], tc.seq, tc.pipe)
			}
		})
	}
}
