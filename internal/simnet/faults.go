package simnet

import (
	"math/rand"
	"sort"
)

// Fate is a fault model's verdict on one message: deliver it normally,
// drop it in flight, or hold it Delay ticks beyond the delay drawn from
// the link's synchrony bound (the "delayed past the bound" adversary of a
// partially synchronous network).
type Fate struct {
	// Drop loses the message in flight: the sender's traffic is charged,
	// the receiver never sees it, and the dropped counters account it.
	Drop bool
	// Delay is added on top of the synchrony-bound draw (0 = on time).
	Delay Time
}

// Faults is a pluggable network fault model. The zero-fault model is a
// nil Faults (or NoFaults): the engine then behaves byte-identically to a
// fault-free network.
//
// Determinism contract (the serial send drain's ordering contract — the one
// place it is specified; Network.send implements it):
//
//   - While a model is installed, handler sends are not routed by the lanes
//     that produced them. Each lane holds its sends, and after the tick's
//     execution barrier the driving goroutine drains them in merged (ks, kc)
//     scheduling-key order — a pure function of causal origin, identical at
//     any parallelism and registration order. Per message, in this order:
//     send audit, Down(now, sender) (a crashed sender transmits nothing and
//     is charged nothing), sent accounting, Fate, and for a survivor the
//     payload carrier's Ship, the keyed delay draw and the push. External
//     Sends take the same path on the driver's goroutine.
//   - Fate is therefore consulted exactly once per transmitted message, on
//     one goroutine, in deterministic order — implementations may consume
//     their own seeded RNG and keep state (Loss, Lag, BurstLoss do).
//   - Down must be a pure function of (now, node): it is evaluated during
//     (possibly parallel) event execution and re-evaluated freely, so it
//     must not mutate state or draw randomness.
type Faults interface {
	// Fate decides what happens to a message sent now from→to.
	Fate(now Time, from, to NodeID) Fate
	// Down reports whether the node is crashed at virtual time now.
	// Crashed nodes transmit nothing, receive nothing, and their timers
	// do not fire; a node whose Down turns false again has rejoined.
	Down(now Time, node NodeID) bool
}

// NoFaults is the explicit fault-free model: every message is delivered
// within its synchrony bound and every node stays up. Installing it is
// equivalent to installing no fault model at all.
type NoFaults struct{}

// Fate implements Faults: always deliver.
func (NoFaults) Fate(Time, NodeID, NodeID) Fate { return Fate{} }

// Down implements Faults: never crashed.
func (NoFaults) Down(Time, NodeID) bool { return false }

// Loss drops each message independently with probability p, from a
// seeded RNG separate from the latency RNG (fault draws never perturb the
// link-delay stream of the surviving messages). Construct with NewLoss.
type Loss struct {
	p   float64
	rng *rand.Rand
}

// NewLoss returns an iid message-loss model with drop probability p
// (clamped to [0, 1]) and its own deterministic RNG.
func NewLoss(p float64, seed int64) *Loss {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return &Loss{p: p, rng: rand.New(rand.NewSource(seed))}
}

// Fate implements Faults.
func (l *Loss) Fate(Time, NodeID, NodeID) Fate {
	return Fate{Drop: l.p > 0 && l.rng.Float64() < l.p}
}

// Down implements Faults.
func (l *Loss) Down(Time, NodeID) bool { return false }

// Lag delays a fraction of messages by a fixed number of ticks beyond
// their synchrony bound — the messages are late, not lost. Construct with
// NewLag.
type Lag struct {
	frac  float64
	extra Time
	rng   *rand.Rand
}

// NewLag returns a model that holds each message with probability frac
// for extra ticks beyond the drawn link delay.
func NewLag(frac float64, extra Time, seed int64) *Lag {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return &Lag{frac: frac, extra: extra, rng: rand.New(rand.NewSource(seed))}
}

// Fate implements Faults.
func (l *Lag) Fate(Time, NodeID, NodeID) Fate {
	if l.frac > 0 && l.extra > 0 && l.rng.Float64() < l.frac {
		return Fate{Delay: l.extra}
	}
	return Fate{}
}

// Down implements Faults.
func (l *Lag) Down(Time, NodeID) bool { return false }

// Partition splits the population into groups that cannot exchange
// messages while the cut is in effect: from startAt (0 = the beginning)
// until the partition heals. Nodes not listed in any group form one
// implicit extra group (they can talk to each other, but not across the
// cut). Construct with NewPartition or NewPartitionAt.
type Partition struct {
	group   map[NodeID]int
	startAt Time // cut effective from this tick (0 = from the start)
	healAt  Time // 0 = never heals
}

// NewPartition builds a partition from explicit groups, effective from
// the start and healing at healAt (0 = never). A node listed twice keeps
// its first group.
func NewPartition(groups [][]NodeID, healAt Time) *Partition {
	return NewPartitionAt(groups, 0, healAt)
}

// NewPartitionAt builds a partition whose cut takes effect at startAt and
// heals at healAt (0 = never). Callers must order startAt before healAt;
// the config layer rejects specs that heal before they start.
func NewPartitionAt(groups [][]NodeID, startAt, healAt Time) *Partition {
	p := &Partition{group: make(map[NodeID]int), startAt: startAt, healAt: healAt}
	for g, ids := range groups {
		for _, id := range ids {
			if _, dup := p.group[id]; !dup {
				p.group[id] = g
			}
		}
	}
	return p
}

// Fate implements Faults: messages crossing the cut are dropped until the
// heal tick.
func (p *Partition) Fate(now Time, from, to NodeID) Fate {
	if now < p.startAt {
		return Fate{}
	}
	if p.healAt > 0 && now >= p.healAt {
		return Fate{}
	}
	gf, okf := p.group[from]
	gt, okt := p.group[to]
	if !okf {
		gf = -1
	}
	if !okt {
		gt = -1
	}
	return Fate{Drop: gf != gt}
}

// Down implements Faults: a partition crashes nobody.
func (p *Partition) Down(Time, NodeID) bool { return false }

// Window is one crash interval: the node is down in [From, To). To = 0
// means the node never rejoins.
type Window struct {
	From Time
	To   Time
}

// Churn crashes nodes on a fixed schedule of windows — the crash/rejoin
// fault class. Down is a pure schedule lookup, so it is safe under
// parallel event execution. Construct with NewChurn.
type Churn struct {
	windows map[NodeID][]Window
}

// NewChurn builds a churn model from per-node crash windows. Windows are
// kept sorted by start for the lookup.
func NewChurn(windows map[NodeID][]Window) *Churn {
	c := &Churn{windows: make(map[NodeID][]Window, len(windows))}
	for id, ws := range windows {
		sorted := append([]Window(nil), ws...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].From < sorted[j].From })
		c.windows[id] = sorted
	}
	return c
}

// Fate implements Faults: churn loses no in-flight messages by itself
// (crashed endpoints are handled by Down).
func (c *Churn) Fate(Time, NodeID, NodeID) Fate { return Fate{} }

// Down implements Faults.
func (c *Churn) Down(now Time, node NodeID) bool {
	for _, w := range c.windows[node] {
		if now < w.From {
			return false
		}
		if w.To == 0 || now < w.To {
			return true
		}
	}
	return false
}

// OneWayPartition is an asymmetric cut: messages from the src group to
// the dst group are dropped while the cut is in effect, but the reverse
// direction keeps delivering — the "my packets leave but yours never
// arrive" failure a symmetric Partition cannot express. Construct with
// NewOneWayPartition.
type OneWayPartition struct {
	src     map[NodeID]struct{}
	dst     map[NodeID]struct{}
	startAt Time // cut effective from this tick (0 = from the start)
	healAt  Time // 0 = never heals
}

// NewOneWayPartition drops src→dst traffic in [startAt, healAt) (healAt 0
// = never heals). dst→src traffic, and traffic within either group, is
// untouched.
func NewOneWayPartition(src, dst []NodeID, startAt, healAt Time) *OneWayPartition {
	p := &OneWayPartition{
		src:     make(map[NodeID]struct{}, len(src)),
		dst:     make(map[NodeID]struct{}, len(dst)),
		startAt: startAt,
		healAt:  healAt,
	}
	for _, id := range src {
		p.src[id] = struct{}{}
	}
	for _, id := range dst {
		p.dst[id] = struct{}{}
	}
	return p
}

// Fate implements Faults.
func (p *OneWayPartition) Fate(now Time, from, to NodeID) Fate {
	if now < p.startAt || (p.healAt > 0 && now >= p.healAt) {
		return Fate{}
	}
	if _, s := p.src[from]; !s {
		return Fate{}
	}
	if _, d := p.dst[to]; !d {
		return Fate{}
	}
	return Fate{Drop: true}
}

// Down implements Faults: a one-way cut crashes nobody.
func (p *OneWayPartition) Down(Time, NodeID) bool { return false }

// GrayFailure marks nodes that receive but never send: every message a
// gray node transmits is lost in flight, while deliveries to it — and its
// timers — proceed normally. Unlike a crash (Down), a gray node's state
// keeps advancing, so it looks alive to itself and dead to everyone else.
// Lost traffic is charged to the sender's sent and dropped counters,
// never to anyone's received counters, exactly like any other in-flight
// drop. Construct with NewGrayFailure.
type GrayFailure struct {
	gray map[NodeID]struct{}
}

// NewGrayFailure builds the model from the set of gray nodes.
func NewGrayFailure(nodes []NodeID) *GrayFailure {
	g := &GrayFailure{gray: make(map[NodeID]struct{}, len(nodes))}
	for _, id := range nodes {
		g.gray[id] = struct{}{}
	}
	return g
}

// Fate implements Faults: sends from gray nodes are dropped.
func (g *GrayFailure) Fate(now Time, from, to NodeID) Fate {
	_, isGray := g.gray[from]
	return Fate{Drop: isGray}
}

// Down implements Faults: gray nodes are not crashed — they still
// receive and their timers fire.
func (g *GrayFailure) Down(Time, NodeID) bool { return false }

// BurstLoss is Gilbert-Elliott two-state loss: the channel alternates
// between a good state (no loss) and a bad state (loss with probability
// lossBad), transitioning per consulted message with probabilities pEnter
// (good→bad) and pExit (bad→good). Because Fate is consulted once per
// message in deterministic order, the chain advances deterministically
// and drops arrive in time-correlated bursts rather than iid — the loss
// pattern of interference or a flapping route. Construct with
// NewBurstLoss.
type BurstLoss struct {
	pEnter  float64
	pExit   float64
	lossBad float64
	bad     bool
	rng     *rand.Rand
}

// NewBurstLoss returns a Gilbert-Elliott loss model with its own
// deterministic RNG. Probabilities are clamped to [0, 1].
func NewBurstLoss(pEnter, pExit, lossBad float64, seed int64) *BurstLoss {
	clamp := func(p float64) float64 {
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	return &BurstLoss{
		pEnter:  clamp(pEnter),
		pExit:   clamp(pExit),
		lossBad: clamp(lossBad),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Fate implements Faults: advance the two-state chain, then draw the loss
// verdict from the current state.
func (b *BurstLoss) Fate(Time, NodeID, NodeID) Fate {
	if b.bad {
		if b.rng.Float64() < b.pExit {
			b.bad = false
		}
	} else if b.rng.Float64() < b.pEnter {
		b.bad = true
	}
	return Fate{Drop: b.bad && b.rng.Float64() < b.lossBad}
}

// Down implements Faults.
func (b *BurstLoss) Down(Time, NodeID) bool { return false }

// Composite layers several fault models: a message is dropped if any
// layer drops it, extra delays add up, and a node is down if any layer
// says so.
type Composite []Faults

// Fate implements Faults.
func (cs Composite) Fate(now Time, from, to NodeID) Fate {
	var out Fate
	for _, f := range cs {
		fate := f.Fate(now, from, to)
		out.Drop = out.Drop || fate.Drop
		out.Delay += fate.Delay
	}
	return out
}

// Down implements Faults.
func (cs Composite) Down(now Time, node NodeID) bool {
	for _, f := range cs {
		if f.Down(now, node) {
			return true
		}
	}
	return false
}
