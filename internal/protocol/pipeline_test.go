package protocol

import (
	"fmt"
	"testing"

	"cycledger/internal/consensus"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

// renderReports serialises reports to a canonical byte string (dereferenced,
// so pointer identity never leaks into the comparison).
func renderReports(reports []*RoundReport) string {
	s := ""
	for _, r := range reports {
		s += fmt.Sprintf("%+v\n", *r)
	}
	return s
}

// TestVirtualTimePinned pins absolute virtual time. The determinism suite
// compares runs with each other and so cannot see every run move together;
// this states the numbers: simulated round latency (ticks) and included
// transactions, summed over seeds 1–3 × two rounds at parallelism 1, for
// the sequential and the pipelined schedule, plus three consecutive rounds
// of one sequential engine at seed 1, all at PowHardness 8. The puzzle's
// hardness moves none of these numbers: the PoW search is host work
// outside virtual time, and a solution is a fixed-size nonce that is only
// verified, so 4096 pins the same table. A change that moves any of them
// changed the protocol's schedule or its workload, and says so by editing
// this table. The pipelined schedule must also keep its §IV headline: at
// most 0.8 of the sequential latency at equal throughput.
//
// Re-pinned when ECHO stopped carrying the proposal (3528/2577, 3608/2655 and
// 1760 before): a member used to adopt from whichever echo beat the leader's
// own PROPOSE — delays are uniform on [1, Δ], so a two-hop copy often did —
// and now echoes only once the PROPOSE, or the answer to its Fetch, is in.
// Ticks rose 1–3 %; every tx total stayed.
func TestVirtualTimePinned(t *testing.T) {
	type total struct {
		ticks uint64
		tx    int
	}
	add := func(s *total, reports []*RoundReport) {
		for _, r := range reports {
			s.ticks += uint64(r.Duration)
			s.tx += r.Throughput()
		}
	}
	for _, tc := range []struct {
		m         int
		seq, pipe total
	}{
		{4, total{3634, 476}, total{2667, 476}},
		{8, total{3639, 982}, total{2674, 982}},
	} {
		if tc.m == 8 && testing.Short() {
			continue
		}
		var got [2]total
		for mode, pipelined := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				p := DefaultParams()
				p.M, p.Rounds, p.PowHardness = tc.m, 2, 8
				p.Seed, p.Pipelined = seed, pipelined
				_, reports := runEngine(t, p)
				add(&got[mode], reports)
			}
		}
		if got[0] != tc.seq || got[1] != tc.pipe {
			t.Errorf("m=%d: sequential %+v, pipelined %+v; pinned %+v and %+v", tc.m, got[0], got[1], tc.seq, tc.pipe)
		}
		if 10*got[1].ticks > 8*got[0].ticks {
			t.Errorf("m=%d: pipelined %d ticks is more than 0.8 of sequential %d", tc.m, got[1].ticks, got[0].ticks)
		}
	}

	p := DefaultParams()
	p.PowHardness = 8
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	var got total
	add(&got, e.Reports())
	if want := (total{1812, 248}); got != want {
		t.Errorf("three rounds of one default engine: %+v, pinned %+v", got, want)
	}
}

// TestPipelinedConservationAndChain: multi-round pipelined execution must
// conserve value (minus collected fees) and leave a chain that replays
// cleanly from genesis.
func TestPipelinedConservationAndChain(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 3
	p.Pipelined = true
	p.Parallelism = 4
	e, reports := runEngine(t, p)

	var fees uint64
	for _, r := range reports {
		if r.Throughput() == 0 {
			t.Fatalf("round %d included nothing", r.Round)
		}
		fees += r.Fees
	}
	genesis, err := e.GenesisUTXO()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.UTXO().TotalValue() + fees; got != genesis.TotalValue() {
		t.Fatalf("value not conserved: utxo+fees = %d, genesis = %d", got, genesis.TotalValue())
	}
	if err := e.Chain().Verify(genesis); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedWithExtensionsAndAdversary: a pipelined run must stay
// correct when the §VIII extensions and a byzantine minority are active
// (pre-screen drops are counted via the atomic screen counter).
func TestPipelinedWithExtensionsAndAdversary(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2
	p.Pipelined = true
	p.Parallelism = 4
	p.PreScreenCross = true
	p.ParallelBlockGen = true
	p.CrossFrac = 0.6
	p.InvalidFrac = 0.3
	p.MaliciousFrac = 0.2
	p.ByzantineBehavior = Behavior{Vote: VoteInvert}
	_, reports := runEngine(t, p)
	for _, r := range reports {
		if r.Throughput() == 0 {
			t.Fatalf("round %d included nothing", r.Round)
		}
	}
	q := p
	q.Parallelism = 1
	_, again := runEngine(t, q)
	if renderReports(reports) != renderReports(again) {
		t.Fatal("adversarial pipelined run not deterministic across parallelism")
	}
}

// TestScreenedCounterFoldsIntoReport: the §VIII-A pre-screen drop count
// must land in the report of the round it happened in and reset after.
func TestScreenedCounterFoldsIntoReport(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2
	p.PreScreenCross = true
	p.CrossFrac = 0.7
	p.InvalidFrac = 0.5
	_, reports := runEngine(t, p)
	total := 0
	for _, r := range reports {
		total += r.Screened
	}
	if total == 0 {
		t.Fatal("expected pre-screen drops under a heavily invalid cross workload")
	}
}

// TestEchoesCarryNoPayload watches one default round from the send path: an
// ECHO is a digest and two signatures whatever was proposed, a member that
// fetched a proposal is sent it once, and the round commits what it did when
// echoes carried the proposal (the first of TestVirtualTimePinned's three).
func TestEchoesCarryNoPayload(t *testing.T) {
	type ask struct {
		asker, holder, leader simnet.NodeID
		sn                    uint64
	}
	p := DefaultParams()
	p.PowHardness = 8
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	echoes, fetched, relayed := 0, map[ask]int{}, map[ask]int{}
	e.Net.SetSendAudit(func(m simnet.Message) {
		switch v := m.Payload.(type) {
		case consensus.Echo:
			echoes++
			if m.Size >= 256 || m.Size != wire.Size(m.Payload) {
				t.Errorf("echo of sn %d declares %d B and encodes to %d", v.SN, m.Size, wire.Size(m.Payload))
			}
		case consensus.Fetch:
			fetched[ask{m.From, m.To, v.Leader, v.SN}]++
		case consensus.Propose:
			if m.From != v.Leader {
				relayed[ask{m.To, m.From, v.Leader, v.SN}]++
			}
		}
	})
	r, err := e.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if echoes == 0 || len(fetched) == 0 {
		t.Fatalf("%d echoes and %d fetches audited: the round did not exercise both", echoes, len(fetched))
	}
	for k, n := range fetched {
		if n != 1 {
			t.Errorf("node %d asked node %d for (leader %d, sn %d) %d times", k.asker, k.holder, k.leader, k.sn, n)
		}
	}
	for k, n := range relayed {
		if n != 1 || fetched[k] == 0 {
			t.Errorf("node %d sent node %d the proposal (leader %d, sn %d) %d times for %d fetches", k.holder, k.asker, k.leader, k.sn, n, fetched[k])
		}
	}
	if got, want := r.Throughput(), 78; got != want {
		t.Errorf("the round committed %d transactions, pinned %d", got, want)
	}
}
