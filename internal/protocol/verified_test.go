package protocol

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cycledger/internal/committee"
	"cycledger/internal/simnet"
)

// TestVerifiedSetBoundedByRound watches the config phase's shared
// verified-proof set from the send path: one set a round, never larger
// than that round's common members, and garbage once the phase is over.
func TestVerifiedSetBoundedByRound(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 5
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	var (
		cur   *committee.VerifiedSet // the running round's set; dropped after each round
		peak  int
		freed atomic.Int32
	)
	e.Net.SetSendAudit(func(simnet.Message) {
		for _, n := range e.nodes {
			if n.cfg == nil {
				continue
			}
			if cur == nil {
				cur = n.cfg.Verified
				runtime.SetFinalizer(cur, func(*committee.VerifiedSet) { freed.Add(1) })
			}
			if n.cfg.Verified != cur {
				t.Errorf("round %d: node %d consults a set of its own", e.round, n.ID)
			}
		}
		if cur != nil {
			peak = max(peak, cur.Len())
		}
	})
	for round := 1; round <= p.Rounds; round++ {
		commons := len(e.Roster().CommonsOfAll())
		if _, err := e.RunRound(); err != nil {
			t.Fatal(err)
		}
		if cur == nil || peak == 0 {
			t.Fatalf("round %d: no shared set seen at work", round)
		}
		if peak > commons {
			t.Fatalf("round %d: set grew to %d records with %d common members", round, peak, commons)
		}
		for _, n := range e.nodes {
			if n.cfg != nil {
				t.Fatalf("round %d: node %d still holds its config endpoint", round, n.ID)
			}
		}
		cur, peak = nil, 0
	}
	// The endpoints were the sets' only holders, so all five are garbage.
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < int32(p.Rounds) && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != int32(p.Rounds) {
		t.Fatalf("%d of %d per-round sets were collected", got, p.Rounds)
	}
}

// TestConfigRecordIsSeatSortition: a common member's configuration record
// carries the sortition proof drawn when the roster seated it — at
// bootstrap for round 1, in the previous round's selection after that —
// and that proof is exactly what a fresh Algorithm 1 run yields now.
func TestConfigRecordIsSeatSortition(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 3
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	e.Net.SetSendAudit(func(msg simnet.Message) {
		if msg.Tag != committee.TagConfig {
			return
		}
		rec := msg.Payload.(committee.JoinRequest).Rec
		want := committee.Sortition(e.nodes[rec.Node].Keys, e.round, e.roster.Randomness, e.roster.M)
		if rec.Hash != want.Out.Hash || !bytes.Equal(rec.Proof, want.Out.Proof) {
			t.Errorf("round %d: node %d presents a record that is not its fresh sortition", e.round, rec.Node)
		}
		if k, _ := e.roster.CommitteeOf(rec.Node); k != want.CommitteeID {
			t.Errorf("round %d: node %d seated in committee %d, sortition says %d", e.round, rec.Node, k, want.CommitteeID)
		}
		checked++
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no configuration request seen")
	}
}
