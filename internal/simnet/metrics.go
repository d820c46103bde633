package simnet

import (
	"sort"
	"sync"
)

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

// Metrics accounts traffic per phase, per node, and per tag. The protocol
// layer labels phases (SetPhase) and later aggregates per-node counters by
// role to reproduce Table II.
//
// Fault accounting: a message lost in flight (or addressed to a crashed
// node) is charged to the sender's `sent` counters — the transmission
// happened — and to the `dropped` counters keyed by the destination that
// never saw it, but never to `received`. Messages held beyond their
// synchrony bound are charged to `late` (and still to `received` when they
// eventually arrive). Keeping the delivered-bytes tables free of lost
// traffic is what keeps Table II faithful under fault models.
//
// Per-phase accounting lives in dense tables indexed by NodeID, one per
// phase label, and holds every phase since the last ResetPhases: a network
// that never resets keeps them all, one that resets every round holds one
// round's worth, reusing the same tables round after round. The totals and
// the per-tag counters are cumulative either way.
type Metrics struct {
	mu    sync.Mutex
	phase string
	// tables are the phases that saw traffic since the last ResetPhases;
	// spare are zeroed tables kept for the phases that follow one.
	tables []*phaseTable
	spare  []*phaseTable

	byTag     map[string]*Counter
	total     Counter
	totalDrop Counter
	totalLate Counter
	// lanes are the per-worker shards; lane i is written exclusively by
	// the worker running lane i of the current macro-step (receives and
	// dead-destination drops); the serial send path writes lane 0 between
	// execution phases. mergeLanes folds them into the tables above. The
	// fold is amortised: the Network folds every mergeEvery batches and at
	// the end of every drain, so readers — which only run between drains —
	// always see fully merged accounting (an external Send folds at once).
	// The phase label is constant within a drain (SetPhase happens between
	// drains), which is what makes deferring the fold safe.
	lanes []laneShard
}

// phaseTable is one phase's per-node counters, each slice indexed by
// NodeID: sends keyed by the sender, receives by the destination, drops
// by the destination that missed the message. A slice grows to the
// highest ID it has counted.
type phaseTable struct {
	name     string
	sent     []Counter
	received []Counter
	dropped  []Counter
}

// at returns the table entry for id, or the zero Counter when the table
// never counted it.
func at(tab []Counter, id NodeID) Counter {
	if id >= 0 && int(id) < len(tab) {
		return tab[id]
	}
	return Counter{}
}

// sumAt adds the table entries of a node set.
func sumAt(tab []Counter, nodes []NodeID) Counter {
	var sum Counter
	for _, id := range nodes {
		sum.Add(at(tab, id))
	}
	return sum
}

// laneShard accumulates one worker lane's traffic without locks. Entries
// persist across batches (zeroed at fold) so steady-state recording
// allocates nothing; touched lists the nodes and tags with live counts
// since the last fold.
type laneShard struct {
	entries    []laneEntry // indexed by NodeID
	touched    []NodeID
	tags       map[string]*Counter
	tagTouched []string
	late       Counter
	sentTotal  Counter
	dropTotal  Counter
}

// laneEntry carries one node's shard-local counters: receives keyed by
// the node as destination, sends keyed by it as sender, drops keyed by it
// as the destination that missed the message.
type laneEntry struct {
	recv   Counter
	sent   Counter
	drop   Counter
	active bool
}

// entry returns the node's shard entry, growing the shard for an ID it
// has not seen. A negative ID has no entry: its traffic counts in the
// totals and tags only.
func (s *laneShard) entry(id NodeID) *laneEntry {
	if id < 0 {
		return nil
	}
	if int(id) >= len(s.entries) {
		s.entries = append(s.entries, make([]laneEntry, int(id)+1-len(s.entries))...)
	}
	e := &s.entries[id]
	if !e.active {
		e.active = true
		s.touched = append(s.touched, id)
	}
	return e
}

func (s *laneShard) recordRecv(msg Message) {
	if e := s.entry(msg.To); e != nil {
		e.recv.add(msg.Size)
	}
}

func (s *laneShard) recordLate(msg Message) {
	s.late.add(msg.Size)
}

func (s *laneShard) recordSend(msg Message) {
	if e := s.entry(msg.From); e != nil {
		e.sent.add(msg.Size)
	}
	tc := s.tags[msg.Tag]
	if tc == nil {
		tc = &Counter{}
		s.tags[msg.Tag] = tc
	}
	if tc.Messages == 0 {
		s.tagTouched = append(s.tagTouched, msg.Tag)
	}
	tc.add(msg.Size)
	s.sentTotal.add(msg.Size)
}

func (s *laneShard) recordDropped(msg Message) {
	if e := s.entry(msg.To); e != nil {
		e.drop.add(msg.Size)
	}
	s.dropTotal.add(msg.Size)
}

// ensureLanes grows the shard set to at least k lanes. Called by the
// Network at construction and SetParallelism, never concurrently with
// workers.
func (m *Metrics) ensureLanes(k int) {
	if k < 1 {
		k = 1
	}
	for len(m.lanes) < k {
		m.lanes = append(m.lanes, laneShard{tags: make(map[string]*Counter)})
	}
}

// addAt adds c to the id entry of a table, growing the table to cover id.
func addAt(tab *[]Counter, id NodeID, c Counter) {
	if c.Messages == 0 {
		return
	}
	if int(id) >= len(*tab) {
		*tab = append(*tab, make([]Counter, int(id)+1-len(*tab))...)
	}
	(*tab)[id].Add(c)
}

// table returns the current label's table, taking a spare one (or a new
// one) when the label has none yet. Call with mu held.
func (m *Metrics) table() *phaseTable {
	if t := m.lookup(m.phase); t != nil {
		return t
	}
	var t *phaseTable
	if k := len(m.spare) - 1; k >= 0 {
		t, m.spare = m.spare[k], m.spare[:k]
	} else {
		t = &phaseTable{}
	}
	t.name = m.phase
	m.tables = append(m.tables, t)
	return t
}

// lookup returns the table of a phase label, nil when the label saw no
// traffic since the last ResetPhases. Call with mu held.
func (m *Metrics) lookup(phase string) *phaseTable {
	for _, t := range m.tables {
		if t.name == phase {
			return t
		}
	}
	return nil
}

// mergeLanes folds every lane shard into the shared tables under the
// current phase label. The fold is a sum of commutative counters, so the
// result is deterministic no matter how the parallel lanes interleaved.
func (m *Metrics) mergeLanes() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for li := range m.lanes {
		s := &m.lanes[li]
		if len(s.touched) > 0 {
			t := m.table()
			for _, id := range s.touched {
				e := &s.entries[id]
				addAt(&t.received, id, e.recv)
				addAt(&t.sent, id, e.sent)
				addAt(&t.dropped, id, e.drop)
				*e = laneEntry{}
			}
			s.touched = s.touched[:0]
		}
		for _, tag := range s.tagTouched {
			tc := s.tags[tag]
			c := m.byTag[tag]
			if c == nil {
				c = &Counter{}
				m.byTag[tag] = c
			}
			c.Add(*tc)
			*tc = Counter{}
		}
		s.tagTouched = s.tagTouched[:0]
		if s.sentTotal.Messages > 0 {
			m.total.Add(s.sentTotal)
			s.sentTotal = Counter{}
		}
		if s.dropTotal.Messages > 0 {
			m.totalDrop.Add(s.dropTotal)
			s.dropTotal = Counter{}
		}
		if s.late.Messages > 0 {
			m.totalLate.Add(s.late)
			s.late = Counter{}
		}
	}
}

// NewMetrics returns empty accounting.
func NewMetrics() *Metrics {
	return &Metrics{
		phase: "init",
		byTag: make(map[string]*Counter),
	}
}

// SetPhase labels all subsequent traffic with the given phase name. Call
// only between drains: the lane shards fold under the label active when
// the drain ends.
func (m *Metrics) SetPhase(phase string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.phase = phase
}

// ResetPhases forgets every phase's per-node accounting — what Sent,
// Received, Dropped, their ByNodes sums and Phases report — and labels the
// traffic that follows "init" again, as on a new Metrics. The tables are
// zeroed and kept for the phases to come, so a caller that resets once a
// round holds one round of accounting however long it runs. Total,
// DroppedTotal, LateTotal and the per-tag counters stay cumulative. Call
// only between drains, like SetPhase.
func (m *Metrics) ResetPhases() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.tables {
		clear(t.sent)
		clear(t.received)
		clear(t.dropped)
		m.spare = append(m.spare, t)
	}
	clear(m.tables)
	m.tables = m.tables[:0]
	m.phase = "init"
}

// Counters returns how many per-(phase, node) counters the accounting
// holds, in use or kept for reuse: a measure of what it retains, which
// stays flat across rounds for a caller that calls ResetPhases each round.
func (m *Metrics) Counters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ts := range [][]*phaseTable{m.tables, m.spare} {
		for _, t := range ts {
			n += cap(t.sent) + cap(t.received) + cap(t.dropped)
		}
	}
	return n
}

// Phase returns the current phase label.
func (m *Metrics) Phase() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.phase
}

// Sent returns the sender-side counter for (phase, node).
func (m *Metrics) Sent(phase string, node NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.lookup(phase); t != nil {
		return at(t.sent, node)
	}
	return Counter{}
}

// Received returns the receiver-side counter for (phase, node).
func (m *Metrics) Received(phase string, node NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.lookup(phase); t != nil {
		return at(t.received, node)
	}
	return Counter{}
}

// Dropped returns the lost-traffic counter for (phase, destination node).
func (m *Metrics) Dropped(phase string, node NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.lookup(phase); t != nil {
		return at(t.dropped, node)
	}
	return Counter{}
}

// DroppedByNodes sums lost-traffic counters for a phase over a node set.
// The lock is taken once for the whole set, not once per node.
func (m *Metrics) DroppedByNodes(phase string, nodes []NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.lookup(phase); t != nil {
		return sumAt(t.dropped, nodes)
	}
	return Counter{}
}

// DroppedTotal returns whole-simulation lost traffic.
func (m *Metrics) DroppedTotal() Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalDrop
}

// LateTotal returns whole-simulation beyond-bound traffic (delivered, but
// after the fault model's extra delay).
func (m *Metrics) LateTotal() Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalLate
}

// SentByNodes sums sender-side counters for a phase over a node set. The
// lock is taken once for the whole set, not once per node — Table II
// aggregation walks full rosters, which at large scale made per-node
// locking the dominant cost of report collection.
func (m *Metrics) SentByNodes(phase string, nodes []NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.lookup(phase); t != nil {
		return sumAt(t.sent, nodes)
	}
	return Counter{}
}

// Tag returns the counter for a message tag.
func (m *Metrics) Tag(tag string) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.byTag[tag]; c != nil {
		return *c
	}
	return Counter{}
}

// Tags lists observed tags in sorted order.
func (m *Metrics) Tags() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.byTag))
	for t := range m.byTag {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Total returns whole-simulation traffic.
func (m *Metrics) Total() Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Phases lists phase labels that saw traffic since the last ResetPhases,
// sorted. A phase counts as having seen traffic when anything was sent,
// received, or dropped under its label — a phase whose every message was
// lost still shows up.
func (m *Metrics) Phases() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.tables))
	for _, t := range m.tables {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}
