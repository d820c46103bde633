package simnet

import "sort"

// Counter accumulates message and byte totals.
type Counter struct {
	Messages uint64
	Bytes    uint64
}

func (c *Counter) add(size int) {
	c.Messages++
	c.Bytes += uint64(size)
}

// Add merges another counter into this one.
func (c *Counter) Add(o Counter) {
	c.Messages += o.Messages
	c.Bytes += o.Bytes
}

// Metrics is the traffic ledger the reports read: per phase label, what
// each node sent and how much traffic was lost; cumulatively, everything
// sent, lost, and delivered late. The protocol layer labels phases
// (SetPhase) and sums the per-node sent counters by role to reproduce
// Table II, and reads the lost traffic per phase for the resilience table.
//
// Fault accounting: a message lost in flight, or addressed to a node that
// is down when it arrives, is charged to its sender's sent counter — the
// transmission happened — and to the dropped counter of the phase it was
// lost in. A message held beyond its synchrony bound counts as late when
// it is delivered; one that dies at a crashed destination counts as
// dropped, never as late. A negative sender has no sent entry: its traffic
// counts in the total only.
//
// A Metrics is owned by the driving goroutine — the one that calls the
// Network's Send, After and Run — and has no lock: only that goroutine writes
// or reads it, and never while lanes run. Its writes are these:
//   - send counts a send, and a Fate drop, as it applies an effect or an
//     external Send: after the step's barrier, or between steps;
//   - stepAt adds the step's drops at down destinations and its late
//     deliveries at its end, after the barrier;
//   - SetPhase and ResetPhases relabel it between drains, when the network
//     is idle.
//
// A lane runs handlers between a step's dispatch and its barrier, and a
// handler reaches the Network only through its Context, which holds no
// Metrics; so no lane runs at any of those writes. The readers (reports,
// tests) run between drains on the same goroutine.
//
// Per-phase accounting holds every phase since the last ResetPhases: a
// network that never resets keeps them all, one that resets every round
// holds one round's worth, reusing the same tables round after round. The
// totals are cumulative either way.
type Metrics struct {
	phase string
	// cur is the current label's table, nil until the label counts
	// something; tables are the phases that saw traffic since the last
	// ResetPhases, and spare are zeroed tables kept for the phases that
	// follow one.
	cur    *phaseTable
	tables []*phaseTable
	spare  []*phaseTable

	total     Counter
	totalDrop Counter
	totalLate Counter
}

// phaseTable is one phase's ledger: sends indexed by the sender's NodeID,
// grown to the highest ID counted, and the phase's lost traffic.
type phaseTable struct {
	name    string
	sent    []Counter
	dropped Counter
}

// sumAt adds the table entries of a node set; an ID the table never
// counted contributes nothing.
func sumAt(tab []Counter, nodes []NodeID) Counter {
	var sum Counter
	for _, id := range nodes {
		if id >= 0 && int(id) < len(tab) {
			sum.Add(tab[id])
		}
	}
	return sum
}

// table returns the current label's table, taking a spare one (or a new
// one) when the label has none yet.
func (m *Metrics) table() *phaseTable {
	if m.cur != nil {
		return m.cur
	}
	t := m.lookup(m.phase)
	if t == nil {
		if k := len(m.spare) - 1; k >= 0 {
			t, m.spare = m.spare[k], m.spare[:k]
		} else {
			t = &phaseTable{}
		}
		t.name = m.phase
		m.tables = append(m.tables, t)
	}
	m.cur = t
	return t
}

// lookup returns the table of a phase label, nil when the label saw no
// traffic since the last ResetPhases.
func (m *Metrics) lookup(phase string) *phaseTable {
	for _, t := range m.tables {
		if t.name == phase {
			return t
		}
	}
	return nil
}

// recordSend charges one transmission to its sender under the current
// phase and to the total.
func (m *Metrics) recordSend(msg Message) {
	m.total.add(msg.Size)
	if id := msg.From; id >= 0 {
		t := m.table()
		if int(id) >= len(t.sent) {
			t.sent = append(t.sent, make([]Counter, int(id)+1-len(t.sent))...)
		}
		t.sent[id].add(msg.Size)
	}
}

// recordDrops charges lost traffic to the current phase and to the total.
func (m *Metrics) recordDrops(c Counter) {
	if c.Messages == 0 {
		return
	}
	m.table().dropped.Add(c)
	m.totalDrop.Add(c)
}

// recordLate adds beyond-bound deliveries to the total.
func (m *Metrics) recordLate(c Counter) {
	if c.Messages == 0 {
		return
	}
	m.totalLate.Add(c)
}

// NewMetrics returns empty accounting.
func NewMetrics() *Metrics {
	return &Metrics{phase: "init"}
}

// SetPhase labels all traffic counted from now on with the given phase
// name. Call it while the network is idle, as the protocol layer does
// between its phases' drains.
func (m *Metrics) SetPhase(phase string) {
	m.phase, m.cur = phase, nil
}

// ResetPhases forgets every phase's accounting — what SentByNodes,
// PhaseDropped and Phases report — and labels the traffic that follows
// "init" again, as on a new Metrics. The tables are zeroed and kept for the
// phases to come, so a caller that resets once a round holds one round of
// accounting however long it runs. Total, DroppedTotal and LateTotal stay
// cumulative. Call it while the network is idle, like SetPhase.
func (m *Metrics) ResetPhases() {
	for _, t := range m.tables {
		clear(t.sent)
		t.dropped = Counter{}
		m.spare = append(m.spare, t)
	}
	clear(m.tables)
	m.tables = m.tables[:0]
	m.phase, m.cur = "init", nil
}

// PhaseDropped returns the traffic lost under a phase label.
func (m *Metrics) PhaseDropped(phase string) Counter {
	if t := m.lookup(phase); t != nil {
		return t.dropped
	}
	return Counter{}
}

// DroppedTotal returns whole-simulation lost traffic.
func (m *Metrics) DroppedTotal() Counter {
	return m.totalDrop
}

// LateTotal returns whole-simulation beyond-bound traffic (delivered, but
// after the fault model's extra delay).
func (m *Metrics) LateTotal() Counter {
	return m.totalLate
}

// SentByNodes sums sender-side counters for a phase over a node set.
func (m *Metrics) SentByNodes(phase string, nodes []NodeID) Counter {
	if t := m.lookup(phase); t != nil {
		return sumAt(t.sent, nodes)
	}
	return Counter{}
}

// Total returns whole-simulation traffic.
func (m *Metrics) Total() Counter {
	return m.total
}

// Phases lists phase labels that saw traffic since the last ResetPhases,
// sorted. A phase counts as having seen traffic when a node sent under its
// label or traffic was lost under it — a phase whose every message was
// lost still shows up.
func (m *Metrics) Phases() []string {
	out := make([]string, 0, len(m.tables))
	for _, t := range m.tables {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}
