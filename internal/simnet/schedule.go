package simnet

// Window is one fault interval: the directive holds in [From, To). To = 0
// means it never ends (until a Schedule's CloseOpen ends it).
type Window struct {
	From Time
	To   Time
}

// covers reports whether now falls inside the window.
func (w Window) covers(now Time) bool {
	return now >= w.From && (w.To == 0 || now < w.To)
}

// Schedule is the one deterministic fault model: per node, crash windows
// and periodic crashes (Down), mute windows — a gray failure, the node
// receives and its timers fire but everything it sends is lost — and
// directed cuts (Fate). A partition is two cuts, churn is periodic
// crashes; the config layer compiles every static spec into one Schedule,
// and the reactive adversary's planner appends crash windows, mutes and
// cuts to a second one at round boundaries.
//
// The determinism argument: directives are appended only while the
// network is idle (before the run, or between rounds on the goroutine
// that drives the event loop), and every directive covers virtual times
// at or after the append point. Down therefore stays a pure function of
// (now, node) for every query the simulator can actually issue — the
// schedule for any already-reachable time never changes — and Fate reads
// the same immutable-once-visible data. Closing an open-ended window
// (CloseOpen) sets its end to the current idle-time tick, which only
// affects queries at later times, so re-evaluation is safe too. The model
// draws no randomness of its own; a caller wanting randomised targets
// consumes its own RNG before appending.
type Schedule struct {
	nodes []*directives // indexed by NodeID; nil for a node with none
}

// directives is one node's share of the schedule.
type directives struct {
	crash []Window // Down inside any window
	every []cycle  // Down inside any cycle's downtime
	mute  []Window // Fate: the node's sends are dropped inside any window
	cuts  []cut    // Fate: the node's sends to a cut's dst are dropped
}

// cycle is one periodic crash: down while (now+offset) mod period < downtime.
type cycle struct {
	offset, period, downtime Time
}

// cut is one directed cut from the owning sender: messages to any node in
// dst are dropped inside the window. Cuts appended by one Cut call share
// their dst set.
type cut struct {
	Window
	dst map[NodeID]struct{}
}

// NewSchedule returns an empty schedule: no node is ever down and every
// message is delivered until the first directive is appended.
func NewSchedule() *Schedule {
	return &Schedule{}
}

// of returns the node's directives, creating them, and growing the table to
// reach node, on first use. node is a network node, never negative.
func (s *Schedule) of(node NodeID) *directives {
	if int(node) >= len(s.nodes) {
		s.nodes = append(s.nodes, make([]*directives, int(node)+1-len(s.nodes))...)
	}
	if s.nodes[node] == nil {
		s.nodes[node] = &directives{}
	}
	return s.nodes[node]
}

// at returns the node's directives, nil for a node with none, a negative
// ID included.
func (s *Schedule) at(node NodeID) *directives {
	if node < 0 || int(node) >= len(s.nodes) {
		return nil
	}
	return s.nodes[node]
}

// Crash schedules node down in [from, to) (to = 0: until CloseOpen or
// forever). A crashed node transmits nothing, receives nothing, and its
// timers do not fire.
func (s *Schedule) Crash(node NodeID, from, to Time) {
	d := s.of(node)
	d.crash = append(d.crash, Window{From: from, To: to})
}

// CrashEvery schedules a periodic crash: node is down whenever
// (now+offset) mod period < downtime, and up otherwise. period must be
// positive. CloseOpen does not end it.
func (s *Schedule) CrashEvery(node NodeID, offset, period, downtime Time) {
	d := s.of(node)
	d.every = append(d.every, cycle{offset: offset, period: period, downtime: downtime})
}

// Mute schedules a gray failure: in [from, to) every message node sends
// is dropped while it keeps receiving and its timers keep firing.
func (s *Schedule) Mute(node NodeID, from, to Time) {
	d := s.of(node)
	d.mute = append(d.mute, Window{From: from, To: to})
}

// Cut schedules a directed cut: in [from, to) messages from any node in
// src to any node in dst are dropped; every other direction is untouched.
func (s *Schedule) Cut(src, dst []NodeID, from, to Time) {
	set := make(map[NodeID]struct{}, len(dst))
	for _, id := range dst {
		set[id] = struct{}{}
	}
	for _, id := range src {
		d := s.of(id)
		d.cuts = append(d.cuts, cut{Window: Window{From: from, To: to}, dst: set})
	}
}

// CloseOpen ends every still-open window (To = 0) at now — the re-plan
// boundary's "last round's plan expires here". Call only while the
// network is idle; queries at times before now are unaffected (the window
// covered them and still does), queries at or after now see the directive
// retired. Periodic crashes are not windows and keep cycling.
func (s *Schedule) CloseOpen(now Time) {
	end := func(w *Window) {
		if w.To == 0 {
			w.To = now
		}
	}
	for _, d := range s.nodes {
		if d == nil {
			continue
		}
		for i := range d.crash {
			end(&d.crash[i])
		}
		for i := range d.mute {
			end(&d.mute[i])
		}
		for i := range d.cuts {
			end(&d.cuts[i].Window)
		}
	}
}

// anyCovers reports whether now falls inside any of the windows.
func anyCovers(ws []Window, now Time) bool {
	for _, w := range ws {
		if w.covers(now) {
			return true
		}
	}
	return false
}

// Fate implements Faults: drop sends from muted nodes and sends crossing
// an active directed cut.
func (s *Schedule) Fate(now Time, from, to NodeID) Fate {
	d := s.at(from)
	if d == nil {
		return Fate{}
	}
	if anyCovers(d.mute, now) {
		return Fate{Drop: true}
	}
	for _, c := range d.cuts {
		if c.covers(now) {
			if _, hit := c.dst[to]; hit {
				return Fate{Drop: true}
			}
		}
	}
	return Fate{}
}

// Down implements Faults: a pure lookup over the node's crash windows and
// periodic crashes.
func (s *Schedule) Down(now Time, node NodeID) bool {
	d := s.at(node)
	if d == nil {
		return false
	}
	if anyCovers(d.crash, now) {
		return true
	}
	for _, c := range d.every {
		if (now+c.offset)%c.period < c.downtime {
			return true
		}
	}
	return false
}
