package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// oracleMetrics is map-based accounting of the ledger Metrics keeps —
// (phase, node)-keyed sends and phase-keyed drops, holding every phase ever
// labelled — fed message by message from outside the Network. It is the
// oracle for Metrics.
type oracleMetrics struct {
	mu        sync.Mutex
	phase     int
	sent      map[phaseNode]*Counter
	dropped   map[int]*Counter
	total     Counter
	totalDrop Counter
	totalLate Counter
}

type phaseNode struct {
	phase int
	node  NodeID
}

func newOracleMetrics() *oracleMetrics {
	return &oracleMetrics{
		sent:    make(map[phaseNode]*Counter),
		dropped: make(map[int]*Counter),
	}
}

// recordSend charges a send to its sender under the current phase — a
// negative sender has no entry — and to the total.
func (m *oracleMetrics) recordSend(msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if msg.From >= 0 {
		k := phaseNode{m.phase, msg.From}
		if m.sent[k] == nil {
			m.sent[k] = &Counter{}
		}
		m.sent[k].add(msg.Size)
	}
	m.total.add(msg.Size)
}

func (m *oracleMetrics) recordDropped(msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dropped[m.phase] == nil {
		m.dropped[m.phase] = &Counter{}
	}
	m.dropped[m.phase].add(msg.Size)
	m.totalDrop.add(msg.Size)
}

func (m *oracleMetrics) recordLate(msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.totalLate.add(msg.Size)
}

func (m *oracleMetrics) sentBy(phase int, nodes []NodeID) Counter {
	var sum Counter
	for _, id := range nodes {
		if c := m.sent[phaseNode{phase, id}]; c != nil {
			sum.Add(*c)
		}
	}
	return sum
}

func (m *oracleMetrics) droppedIn(phase int) Counter {
	if c := m.dropped[phase]; c != nil {
		return *c
	}
	return Counter{}
}

// oracleTap feeds the oracle from the outside of a Network: the send audit
// sees every send before its fate, this wrapper around the fault model
// sees the fate of the send the audit saw last (the serial send path runs
// audit → Fate per message), and the handlers see every delivery. A
// payload is an ID unique to one send or one broadcast, so a delivery can
// tell whether its copy was lagged.
type oracleTap struct {
	inner  Faults
	oracle *oracleMetrics
	last   Message
	lagged sync.Map // lagKey → true
}

type lagKey struct {
	payload any
	to      NodeID
}

func (o *oracleTap) Fate(now Time, from, to NodeID) Fate {
	f := o.inner.Fate(now, from, to)
	switch {
	case f.Drop:
		o.oracle.recordDropped(o.last)
	case f.Delay > 0:
		o.lagged.Store(lagKey{o.last.Payload, o.last.To}, true)
	}
	return f
}

func (o *oracleTap) Down(now Time, id NodeID) bool { return o.inner.Down(now, id) }

// TestMetricsMatchMapOracle: the ledger reports exactly what map-based
// accounting reports, on randomised gossip over several phase labels (one
// revisited, two skipped, and traffic before any label, which is label 0),
// at 1 and 3 lanes, with messages lost to NewLoss and lagged by NewLag,
// sends from and to unregistered IDs (one of them negative), and
// ResetPhases between windows — where the oracle is re-created, and the
// cumulative totals are checked against the sum of the windows.
func TestMetricsMatchMapOracle(t *testing.T) {
	const registered, ghosts = 11, 4 // IDs 11..14 and -1 have no handler
	for _, lanes := range []int{1, 3} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			n := New(DefaultLatency(), 5)
			n.SetParallelism(lanes)
			tap := &oracleTap{inner: Composite{NewLoss(0.15, 6), NewLag(0.1, 300, 7)}, oracle: newOracleMetrics()}
			n.SetFaults(tap)
			n.SetSendAudit(func(msg Message) {
				tap.last = msg
				tap.oracle.recordSend(msg)
			})
			var ids sync.Mutex
			next := 0
			newID := func() int {
				ids.Lock()
				defer ids.Unlock()
				next++
				return next
			}
			tags := []string{"A", "B", "C"}
			for id := NodeID(0); id < registered; id++ {
				n.Register(id, func(ctx *Context, msg Message) {
					if _, late := tap.lagged.Load(lagKey{msg.Payload, msg.To}); late {
						tap.oracle.recordLate(msg)
					}
					if msg.Size <= 1 {
						return
					}
					h := int(msg.To)*7 + msg.Size*13 + msg.Payload.(int)
					for j := 0; j <= h%2; j++ {
						to := NodeID((h + j*5) % (registered + ghosts))
						ctx.Send(to, tags[(h+j)%3], newID(), msg.Size-1)
					}
					if h%5 == 0 {
						ctx.After(Time(h%9+1), func(c *Context) {
							c.Broadcast([]NodeID{0, 3, registered + 1}, "T", newID(), 2)
						})
					}
				})
			}
			m := n.Metrics()
			rng := rand.New(rand.NewSource(int64(lanes)))
			var baseTotal, baseDrop, baseLate Counter
			for window := 0; window < 4; window++ {
				if window > 0 {
					baseTotal, baseDrop, baseLate = m.Total(), m.DroppedTotal(), m.LateTotal()
					m.ResetPhases()
					tap.oracle = newOracleMetrics()
				}
				for _, phase := range []int{0, 1, 2, 1, 5} {
					if phase != 0 {
						m.SetPhase(phase)
						tap.oracle.phase = phase
					}
					for i, k := 0, 1+rng.Intn(6); i < k; i++ {
						from := NodeID(rng.Intn(registered+ghosts+1) - 1)
						to := NodeID(rng.Intn(registered+ghosts+1) - 1)
						n.Send(from, to, tags[rng.Intn(3)], newID(), 2+rng.Intn(5))
					}
					n.RunUntilIdle()
					compareWithOracle(t, fmt.Sprintf("window %d, phase %d", window, phase), m, tap.oracle,
						registered+ghosts, baseTotal, baseDrop, baseLate)
				}
			}
			if m.DroppedTotal().Messages == 0 || m.LateTotal().Messages == 0 {
				t.Fatalf("faults did not bite: dropped %+v, late %+v", m.DroppedTotal(), m.LateTotal())
			}
		})
	}
}

func compareWithOracle(t *testing.T, where string, m *Metrics, o *oracleMetrics, ids int,
	baseTotal, baseDrop, baseLate Counter) {
	t.Helper()
	all := make([]NodeID, 0, ids+2)
	for id := NodeID(-1); id <= NodeID(ids); id++ {
		all = append(all, id)
	}
	// Every label the run sets, the two it skips (3, 4), and one past the
	// tables (7).
	for ph := 0; ph <= 7; ph++ {
		if got, want := m.PhaseDropped(ph), o.droppedIn(ph); got != want {
			t.Fatalf("%s: PhaseDropped(%d) = %+v, oracle %+v", where, ph, got, want)
		}
		sets := [][]NodeID{all, all[1 : ids/2], {3, 3, NodeID(ids - 1)}, nil}
		for i := range all {
			sets = append(sets, all[i:i+1])
		}
		for _, set := range sets {
			if got, want := m.SentByNodes(ph, set), o.sentBy(ph, set); got != want {
				t.Fatalf("%s: SentByNodes(%d, %v) = %+v, oracle %+v", where, ph, set, got, want)
			}
		}
	}
	plus := func(a, b Counter) Counter { a.Add(b); return a }
	if got, want := m.Total(), plus(baseTotal, o.total); got != want {
		t.Fatalf("%s: Total() = %+v, want %+v", where, got, want)
	}
	if got, want := m.DroppedTotal(), plus(baseDrop, o.totalDrop); got != want {
		t.Fatalf("%s: DroppedTotal() = %+v, want %+v", where, got, want)
	}
	if got, want := m.LateTotal(), plus(baseLate, o.totalLate); got != want {
		t.Fatalf("%s: LateTotal() = %+v, want %+v", where, got, want)
	}
}
