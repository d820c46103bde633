package protocol

import (
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"testing"

	"cycledger/internal/simnet"
)

// paidList renders a name → amount table as a round's paid list: the
// entries ascending by name.
func paidList(amounts map[string]uint64) RewardList {
	list := make(RewardList, 0, len(amounts))
	for _, name := range slices.Sorted(maps.Keys(amounts)) {
		list = append(list, Reward{name, amounts[name]})
	}
	return list
}

// TestReportFieldsEncodeAsTheirMaps: each of a report's array and list
// fields writes the bytes encoding/json writes for the name-keyed map it
// stands for, reads them back, and refuses a name it does not know.
func TestReportFieldsEncodeAsTheirMaps(t *testing.T) {
	var traffic RoleTraffic
	var dropped PhaseCounters
	trafficMap := map[string]map[string]simnet.Counter{}
	droppedMap := map[string]simnet.Counter{}
	for ph, name := range Phases {
		trafficMap[name] = map[string]simnet.Counter{}
		for r, role := range TrafficRoles {
			c := simnet.Counter{Messages: uint64(10*ph + r), Bytes: uint64(1000*ph + r)}
			traffic[ph][r] = c
			trafficMap[name][role] = c
		}
		dropped[ph] = simnet.Counter{Messages: uint64(ph), Bytes: uint64(7 * ph)}
		droppedMap[name] = dropped[ph]
	}
	paid := RewardList{{"n1", 5}, {"n10", 1}, {"n2", 3}}
	paidMap := map[string]uint64{"n1": 5, "n10": 1, "n2": 3}

	type pair struct{ got, want any }
	for name, c := range map[string]pair{
		"RoleTraffic":      {traffic, trafficMap},
		"PhaseDropped":     {&dropped, droppedMap},
		"PhaseDropped nil": {(*PhaseCounters)(nil), map[string]simnet.Counter(nil)},
		"Rewards":          {paid, paidMap},
		"Rewards empty":    {RewardList{}, map[string]uint64{}},
		"Rewards nil":      {RewardList(nil), map[string]uint64{}},
	} {
		got, err := json.Marshal(c.got)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(c.want)
		if string(got) != string(want) {
			t.Errorf("%s: writes %s, the map %s", name, got, want)
		}
	}

	var report RoundReport
	doc, _ := json.Marshal(RoundReport{RoleTraffic: traffic, PhaseDropped: &dropped, Rewards: paid})
	if err := json.Unmarshal(doc, &report); err != nil {
		t.Fatal(err)
	}
	if report.RoleTraffic != traffic || *report.PhaseDropped != dropped || !slices.Equal(report.Rewards, paid) {
		t.Fatalf("read back %+v", report)
	}
	for _, bad := range []string{
		`{"RoleTraffic": {"commit": {}}}`,
		`{"RoleTraffic": {"block": {"leader": {}}}}`,
		`{"PhaseDropped": {"commit": {}}}`,
	} {
		if err := json.Unmarshal([]byte(bad), &report); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("%s: read with error %v", bad, err)
		}
	}
}

// TestCollectTrafficAllocationsIndependentOfRoster: collectTraffic writes
// the report's arrays in place, so it allocates the same few times at any
// roster size — the PhaseTraffic map, and the PhaseDropped array in a
// round that dropped something.
func TestCollectTrafficAllocationsIndependentOfRoster(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const faultFree, lossy = 2, 3
	for _, m := range []int{2, 8} {
		p := DefaultParams()
		p.M, p.Rounds = m, 1
		e, _ := runEngine(t, p)
		for dropped, want := range map[uint64]float64{0: faultFree, 1: lossy} {
			got := testing.AllocsPerRun(20, func() {
				e.collectTraffic(&RoundReport{Dropped: dropped})
			})
			if got != want {
				t.Errorf("m = %d, %d dropped: collectTraffic allocates %v times, want %v", m, dropped, got, want)
			}
		}
	}
}
