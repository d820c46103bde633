package protocol

import (
	"strings"
	"testing"

	"cycledger/internal/simnet"
)

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
		want   string
	}{
		{"zero committees", func(p *Params) { p.M = 0 }, "committee"},
		{"zero partial set", func(p *Params) { p.Lambda = 0 }, "partial set"},
		{"committee too small", func(p *Params) { p.C = p.Lambda + 1 }, "too small"},
		{"tiny referee", func(p *Params) { p.RefSize = 2 }, "referee"},
		{"zero rounds", func(p *Params) { p.Rounds = 0 }, "rounds"},
		{"negative tx per committee", func(p *Params) { p.TxPerCommittee = -1 }, "transactions per committee"},
		{"cross fraction negative", func(p *Params) { p.CrossFrac = -0.1 }, "cross-shard fraction"},
		{"cross fraction above one", func(p *Params) { p.CrossFrac = 1.01 }, "cross-shard fraction"},
		{"invalid fraction negative", func(p *Params) { p.InvalidFrac = -0.5 }, "invalid-transaction fraction"},
		{"invalid fraction above one", func(p *Params) { p.InvalidFrac = 2 }, "invalid-transaction fraction"},
		{"malicious fraction negative", func(p *Params) { p.MaliciousFrac = -0.2 }, "malicious fraction"},
		{"malicious fraction at one", func(p *Params) { p.MaliciousFrac = 1 }, "malicious fraction"},
		{"malicious without behavior", func(p *Params) { p.MaliciousFrac = 0.2 }, "honest behavior"},
		{"negative parallelism", func(p *Params) { p.Parallelism = -2 }, "parallelism"},
		{"zero pow hardness", func(p *Params) { p.PowHardness = 0 }, "pow_hardness"},
		{"zero seed", func(p *Params) { p.Seed = 0 }, "seed"},
		{"unknown scheme", func(p *Params) { p.Scheme = "rsa" }, "signature scheme"},
		{"unknown transport", func(p *Params) { p.Transport = "pigeon" }, "transport"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mutate(&p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, err := NewEngine(p); err == nil {
				t.Fatalf("NewEngine accepted %s", tc.name)
			}
		})
	}
}

func TestValidateAcceptsBoundaries(t *testing.T) {
	p := DefaultParams()
	p.CrossFrac, p.InvalidFrac = 1, 1
	p.TxPerCommittee = 0
	p.Parallelism = 0 // 0 = GOMAXPROCS, explicitly allowed
	p.Seed = -7       // negative seeds are fine, only zero is reserved
	if err := p.Validate(); err != nil {
		t.Fatalf("boundary params rejected: %v", err)
	}
}

func TestNodeIndexGuard(t *testing.T) {
	const n = 5
	cases := []struct {
		id   simnet.NodeID
		want int
	}{
		{-1, -1}, {-1 << 30, -1}, {0, 0}, {4, 4}, {5, -1}, {1 << 30, -1},
	}
	for _, tc := range cases {
		if got := nodeIndex(tc.id, n); got != tc.want {
			t.Errorf("nodeIndex(%d, %d) = %d, want %d", tc.id, n, got, tc.want)
		}
	}
	if got := nodeIndex(0, 0); got != -1 {
		t.Errorf("nodeIndex on empty population = %d, want -1", got)
	}
}

func TestEngineLookupGuards(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	n := p.TotalNodes()
	for _, id := range []simnet.NodeID{-1, simnet.NodeID(n), 1 << 20} {
		if pk := e.pki.PK(id); pk != nil {
			t.Errorf("PKI.PK(%d) returned a key for an out-of-range ID", id)
		}
		if name := e.NameOf(id); name != "" {
			t.Errorf("NameOf(%d) = %q, want empty", id, name)
		}
		if e.IsByzantine(id) {
			t.Errorf("IsByzantine(%d) = true for an out-of-range ID", id)
		}
	}
	if pk := e.pki.PK(0); pk == nil {
		t.Error("PKI.PK(0) returned nil for a valid ID")
	}
	if name := e.NameOf(simnet.NodeID(n - 1)); name == "" {
		t.Error("NameOf of the last node is empty")
	}
}
