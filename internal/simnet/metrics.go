package simnet

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
// sent, lost, and delivered late. A label is a small non-negative integer,
// 0 until SetPhase names another. The protocol layer labels its phases by
// their index in the round (SetPhase) and sums the per-node sent counters
// by role to reproduce Table II, and reads the lost traffic per phase for
// the resilience table.
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
// Per-phase accounting holds the traffic since the last ResetPhases, in one
// table per label up to the highest label counted. A reset zeroes the
// tables in place, so a network that resets every round holds one round's
// worth in the same tables round after round. The totals are cumulative
// either way.
type Metrics struct {
	phase  int
	tables []phaseTable // indexed by label

	total     Counter
	totalDrop Counter
	totalLate Counter
}

// phaseTable is one phase's ledger: sends indexed by the sender's NodeID,
// grown to the highest ID counted, and the phase's lost traffic.
type phaseTable struct {
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

// at returns a label's table; a label past the tables reads as an empty one.
func (m *Metrics) at(phase int) phaseTable {
	if phase >= 0 && phase < len(m.tables) {
		return m.tables[phase]
	}
	return phaseTable{}
}

// table returns the current label's table, growing the tables to it.
func (m *Metrics) table() *phaseTable {
	if m.phase >= len(m.tables) {
		m.tables = append(m.tables, make([]phaseTable, m.phase+1-len(m.tables))...)
	}
	return &m.tables[m.phase]
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

// SetPhase labels all traffic counted from now on with the given phase
// index (non-negative). Call it while the network is idle, as the protocol
// layer does between its phases' drains.
func (m *Metrics) SetPhase(phase int) {
	m.phase = phase
}

// ResetPhases zeroes every label's accounting — what SentByNodes and
// PhaseDropped report — in place and labels the traffic that follows 0
// again, as on a new Metrics. A caller that resets once a round holds one
// round of accounting however long it runs. Total, DroppedTotal and
// LateTotal stay cumulative. Call it while the network is idle, like
// SetPhase.
func (m *Metrics) ResetPhases() {
	for i := range m.tables {
		clear(m.tables[i].sent)
		m.tables[i].dropped = Counter{}
	}
	m.phase = 0
}

// PhaseDropped returns the traffic lost under a phase label; a label that
// counted nothing reads zero.
func (m *Metrics) PhaseDropped(phase int) Counter {
	return m.at(phase).dropped
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

// SentByNodes sums sender-side counters for a phase label over a node set.
func (m *Metrics) SentByNodes(phase int, nodes []NodeID) Counter {
	return sumAt(m.at(phase).sent, nodes)
}

// Total returns whole-simulation traffic.
func (m *Metrics) Total() Counter {
	return m.total
}
