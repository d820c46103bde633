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
//
// The "all" row lost the one-way partition and burst loss when those specs
// were removed; its literals are that reduced config run on the code from
// before the removal, which this code reproduces exactly.
func TestFaultRunsPinned(t *testing.T) {
	type total struct {
		ticks, tx, dropped, late, recoveries, timeouts uint64
	}
	partition := &PartitionSpec{Split: 0.5, StartTick: 300, HealTick: 700}
	gray := &GraySpec{Frac: 0.1}
	periodic := &ChurnSpec{Frac: 0.15, Period: 500, Downtime: 150}
	for _, tc := range []struct {
		name      string
		faults    *FaultsConfig
		seq, pipe total
	}{
		{"partition", &FaultsConfig{Partition: partition}, total{1136, 160, 872, 0, 0, 4}, total{852, 160, 872, 0, 0, 4}},
		{"gray", &FaultsConfig{Gray: gray}, total{1313, 160, 1090, 0, 0, 1}, total{977, 160, 1090, 0, 0, 1}},
		{"periodic-churn", &FaultsConfig{Churn: periodic}, total{1495, 160, 621, 0, 1, 0}, total{1173, 160, 621, 0, 1, 0}},
		{"all", &FaultsConfig{
			Loss: 0.02, LagFrac: 0.1, LagTicks: 20,
			Partition: partition, Gray: gray, Churn: periodic,
			Adaptive: &AdaptiveSpec{Budget: 2, CrashLeaders: true, BracketDeadlines: true},
		}, total{2024, 41, 2440, 554, 4, 14}, total{1552, 41, 2440, 554, 4, 14}},
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
