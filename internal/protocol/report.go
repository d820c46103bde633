package protocol

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"cycledger/internal/simnet"
)

// A round's report keeps its per-phase and per-role counters in arrays and
// its rewards as the block's paid list, so a run's reports hold nothing
// that grows but the paid list. Each of these types writes the JSON object
// that encoding/json writes for the name-keyed map it replaced: members in
// ascending key order, the same bytes.

// TrafficRoles are Table II's roles, indexed as a RoleTraffic row is, in
// name order: a round's common members, its key members (leaders and
// partial sets) and C_R.
var TrafficRoles = [...]string{"common", "key", "referee"}

// RoleTraffic is a round's sent traffic per phase and role (Table II),
// indexed by Phase and then by the role's index in TrafficRoles. Its JSON
// form is an object keyed by phase name, each value keyed by role name.
type RoleTraffic [len(Phases)][len(TrafficRoles)]simnet.Counter

// PhaseCounters holds one counter per phase, indexed by Phase. Its JSON
// form is an object keyed by phase name.
type PhaseCounters [len(Phases)]simnet.Counter

// RewardList is a round's paid list (§IV-G): its non-zero fee shares,
// strictly ascending by name, as its block carries them. Its JSON form is
// an object from name to amount, {} when nobody was paid.
type RewardList []Reward

// phasesByName is every Phase in its name's order, the order in which
// encoding/json writes a map's keys.
var phasesByName = func() [len(Phases)]Phase {
	var phases [len(Phases)]Phase
	for i := range phases {
		phases[i] = Phase(i)
	}
	slices.SortFunc(phases[:], func(a, b Phase) int { return cmp.Compare(Phases[a], Phases[b]) })
	return phases
}()

// MarshalJSON writes {phase: {role: counter}}.
func (t RoleTraffic) MarshalJSON() ([]byte, error) {
	return marshalByPhase(func(ph Phase) any { return roleCounters(t[ph]) })
}

// UnmarshalJSON reads the object MarshalJSON writes, refusing an unknown
// phase or role name.
func (t *RoleTraffic) UnmarshalJSON(b []byte) error {
	var m map[string]map[string]simnet.Counter
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*t = RoleTraffic{}
	for name, roles := range m {
		ph, err := phaseNamed(name)
		if err != nil {
			return err
		}
		for role, c := range roles {
			r := slices.Index(TrafficRoles[:], role)
			if r < 0 {
				return fmt.Errorf("protocol: unknown traffic role %q", role)
			}
			t[ph][r] = c
		}
	}
	return nil
}

// roleCounters is one phase's row of a RoleTraffic.
type roleCounters [len(TrafficRoles)]simnet.Counter

func (c roleCounters) MarshalJSON() ([]byte, error) {
	return marshalObject(len(c), func(r int) string { return TrafficRoles[r] }, func(r int) any { return c[r] })
}

// MarshalJSON writes {phase: counter}.
func (c PhaseCounters) MarshalJSON() ([]byte, error) {
	return marshalByPhase(func(ph Phase) any { return c[ph] })
}

// UnmarshalJSON reads the object MarshalJSON writes, refusing an unknown
// phase name.
func (c *PhaseCounters) UnmarshalJSON(b []byte) error {
	var m map[string]simnet.Counter
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*c = PhaseCounters{}
	for name, v := range m {
		ph, err := phaseNamed(name)
		if err != nil {
			return err
		}
		c[ph] = v
	}
	return nil
}

// MarshalJSON writes {name: amount}, in the list's (name) order.
func (l RewardList) MarshalJSON() ([]byte, error) {
	return marshalObject(len(l), func(i int) string { return l[i].Name }, func(i int) any { return l[i].Amount })
}

// UnmarshalJSON reads the object MarshalJSON writes into a list ascending
// by name.
func (l *RewardList) UnmarshalJSON(b []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*l = make(RewardList, 0, len(m))
	for _, name := range slices.Sorted(maps.Keys(m)) {
		*l = append(*l, Reward{name, m[name]})
	}
	return nil
}

// phaseNamed is the Phase called name.
func phaseNamed(name string) (Phase, error) {
	if i := slices.Index(Phases[:], name); i >= 0 {
		return Phase(i), nil
	}
	return 0, fmt.Errorf("protocol: unknown phase %q", name)
}

// marshalByPhase writes an object with value(ph) under each phase's name.
func marshalByPhase(value func(Phase) any) ([]byte, error) {
	return marshalObject(len(Phases),
		func(i int) string { return phasesByName[i].String() },
		func(i int) any { return value(phasesByName[i]) })
}

// marshalObject writes a JSON object of n members, the i-th with key(i)
// and value(i) as encoding/json writes them; the keys must ascend with i.
func marshalObject(n int, key func(int) string, value func(int) any) ([]byte, error) {
	b := []byte{'{'}
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		k, err := json.Marshal(key(i))
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(value(i))
		if err != nil {
			return nil, err
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, '}'), nil
}
