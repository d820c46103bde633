package simnet

import "math/rand"

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

// Faults is a pluggable network fault model. The one fault-free model is
// a nil Faults; a model that never acts gives the same run. The
// implementations are two RNG layers (Loss, Lag), the deterministic
// Schedule, and Composite, which stacks them.
//
// Determinism contract (the send path's ordering contract — the one place
// it is specified; Network.send implements it):
//
//   - Handler sends are not routed by the lanes that ran the handlers,
//     model or no model. A lane only records its handlers' effects; after
//     the tick's execution barrier the driving goroutine applies them in
//     batch order, which is (ks, kc) scheduling-key order — a pure function
//     of causal origin, identical at any lane count and registration order.
//     Per message, in this order: send audit, Down(now, sender) (a crashed
//     sender transmits nothing and is charged nothing), sent accounting,
//     Fate, and for a survivor the payload carrier's Ship, the keyed delay
//     draw and the push. External Sends take the same path on the driver's
//     goroutine.
//   - Fate is therefore consulted exactly once per transmitted message, on
//     one goroutine, in deterministic order — implementations may consume
//     their own seeded RNG and keep state (Loss and Lag do).
//   - Down must be a pure function of (now, node): the step asks it which
//     popped events run, the send path asks it about each sender, and
//     Network.Down lets anyone ask at any time, so it must not mutate state
//     or draw randomness.
type Faults interface {
	// Fate decides what happens to a message sent now from→to.
	Fate(now Time, from, to NodeID) Fate
	// Down reports whether the node is crashed at virtual time now.
	// Crashed nodes transmit nothing, receive nothing, and their timers
	// do not fire; a node whose Down turns false again has rejoined.
	Down(now Time, node NodeID) bool
}

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

// Composite layers several fault models: a message is dropped if any
// layer drops it, extra delays add up, and a node is down if any layer
// says so. Fate consults every layer, without short-circuit, so each RNG
// layer draws once per message whatever the others decide: merging or
// reordering the pure layers (Schedules) changes no answer and no stream.
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
