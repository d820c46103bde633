package sim_test

import (
	"testing"

	"cycledger/sim"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	want := sim.DefaultConfig()
	want.M, want.C, want.Lambda, want.RefSize = 8, 20, 4, 15
	want.Rounds = 5
	want.TxPerCommittee, want.CrossFrac, want.InvalidFrac = 50, 0.4, 0.1
	want.MaliciousFrac, want.CorruptLeaders = 0.1, true
	want.ByzantineBehavior = sim.Behavior{EquivocateIntra: true, ConcealCross: true}
	want.Scheme = "ed25519"
	want.Seed = 99
	want.Pipelined, want.Parallelism = true, 4
	want.DisableRecovery = true
	want.PreScreenCross = true
	want.ParallelBlockGen = true
	want.PowHardness = 64
	data, err := want.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip changed the config:\n got  %+v\n want %+v", got, want)
	}

	// The same document must overlay identically through the option.
	viaOpt, err := sim.Resolve(sim.FromJSON(data))
	if err != nil {
		t.Fatal(err)
	}
	if viaOpt != want {
		t.Fatalf("FromJSON diverges from ParseConfig:\n got  %+v\n want %+v", viaOpt, want)
	}
}

func TestConfigPartialOverlay(t *testing.T) {
	got, err := sim.ParseConfig([]byte(`{"m": 7, "seed": 42}`))
	if err != nil {
		t.Fatal(err)
	}
	def := sim.DefaultConfig()
	if got.M != 7 || got.Seed != 42 {
		t.Fatalf("overlay did not apply: %+v", got)
	}
	if got.C != def.C || got.Rounds != def.Rounds {
		t.Fatalf("overlay clobbered defaults: %+v", got)
	}
}

func TestConfigRejectsUnknownFields(t *testing.T) {
	if _, err := sim.ParseConfig([]byte(`{"comittees": 4}`)); err == nil {
		t.Fatal("typo'd field accepted")
	}
}

// TestConfigRejectsUnknownNames: a misspelt behaviour, scheme or transport
// fails as the document decodes, like a misspelt field, not when a run
// built from it starts.
func TestConfigRejectsUnknownNames(t *testing.T) {
	for _, doc := range []string{`{"behavior": "sleepy"}`, `{"scheme": "rsa"}`, `{"transport": "pigeon"}`} {
		if _, err := sim.ParseConfig([]byte(doc)); err == nil {
			t.Errorf("%s accepted", doc)
		}
	}
}

func TestParseBehavior(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sim.Behavior
	}{
		{"", sim.Behavior{}},
		{"honest", sim.Behavior{}},
		{"invert", sim.Behavior{Vote: 1}},
		{"equivocate,conceal", sim.Behavior{EquivocateIntra: true, ConcealCross: true}},
		{"offline", sim.Behavior{Offline: true}},
		{" lazy , censor ", sim.Behavior{Vote: 2, CensorAll: true}},
	} {
		got, err := sim.ParseBehavior(tc.in)
		if err != nil {
			t.Errorf("ParseBehavior(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBehavior(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"sleepy", "invert,lazy", "equivocate;conceal"} {
		if _, err := sim.ParseBehavior(bad); err == nil {
			t.Errorf("ParseBehavior(%q) accepted", bad)
		}
	}
}

// TestNewRejectsBadInputs: every bad run document fails at New, whether
// decoding rejects it or the engine's validation does.
func TestNewRejectsBadInputs(t *testing.T) {
	for name, doc := range map[string]string{
		"unknown behavior":     `{"behavior": "sleepy"}`,
		"unknown scheme":       `{"scheme": "rsa"}`,
		"zero seed":            `{"seed": 0}`,
		"cross fraction 1.5":   `{"cross_frac": 1.5}`,
		"zero committees":      `{"m": 0}`,
		"loss 1.5":             `{"faults": {"loss": 1.5}}`,
		"churn with no period": `{"faults": {"churn": {"frac": 0.5}}}`,
	} {
		if _, err := sim.New(sim.FromJSON([]byte(doc))); err == nil {
			t.Errorf("New accepted %s: %s", name, doc)
		}
	}
}

func TestScenarioRegistry(t *testing.T) {
	names := []string{"default", "paper-scale", "leader-fault", "no-recovery",
		"dos-prescreen", "parallel-blockgen", "cross-heavy", "reputation"}
	for _, name := range names {
		s, ok := sim.Lookup(name)
		if !ok {
			t.Errorf("builtin scenario %q not registered", name)
			continue
		}
		if s.Description == "" || s.Paper == "" {
			t.Errorf("scenario %q missing description or paper anchor", name)
		}
		if _, err := s.Config(); err != nil {
			t.Errorf("scenario %q does not resolve: %v", name, err)
		}
	}
	if len(sim.List()) < 6 {
		t.Fatalf("only %d scenarios registered, want ≥ 6", len(sim.List()))
	}

	if _, ok := sim.Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup found an unregistered scenario")
	}

	list := sim.List()
	for i := 1; i < len(list); i++ {
		if list[i-1].Name >= list[i].Name {
			t.Fatalf("List not sorted: %q before %q", list[i-1].Name, list[i].Name)
		}
	}
}
