package protocol

import (
	"reflect"
	"strings"
	"testing"
)

// TestBehaviorNameRoundTrip pins ParseBehavior and MarshalText as exact
// inverses: every vote strategy composed with no flag, each flag and all
// flags at once marshals back to the name it was parsed from (the
// canonical order). Every deviation flag of Behavior must have a name, so a
// flag added to the struct but not to behaviorFlags fails here instead of
// silently serialising the wrong experiment.
func TestBehaviorNameRoundTrip(t *testing.T) {
	var flags []string
	for _, f := range behaviorFlags {
		flags = append(flags, f.name)
	}
	for _, vote := range voteNames { // voteNames[VoteHonest] is ""
		for _, flag := range append([]string{"", strings.Join(flags, ",")}, flags...) {
			name := strings.Trim(vote+","+flag, ",")
			b, err := ParseBehavior(name)
			if err != nil {
				t.Fatalf("ParseBehavior(%q): %v", name, err)
			}
			back, err := b.MarshalText()
			if err != nil {
				t.Fatalf("MarshalText(%+v): %v", b, err)
			}
			if string(back) != name {
				t.Errorf("%q parsed to %+v, which is written %q", name, b, back)
			}
		}
	}

	bools := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Behavior{})) {
		if f.Type.Kind() == reflect.Bool {
			bools++
		}
	}
	if bools != len(behaviorFlags) {
		t.Errorf("Behavior has %d flags, behaviorFlags names %d", bools, len(behaviorFlags))
	}
	if _, err := (Behavior{Vote: VoteYes + 1}).MarshalText(); err == nil {
		t.Error("a vote strategy without a name was written")
	}
}
