package simnet

import (
	"container/heap"
	"slices"
)

// calQueue is a calendar queue specialised for the simulator's access
// pattern: virtual time only moves forward, almost every event is
// scheduled within the synchrony bounds of the current tick, and a step
// always drains one whole tick at a time.
//
// Near-future events live in a power-of-two ring of per-tick slots
// covering (base, base+nbucket]; pushing and popping them is a pointer
// link and a list walk, with no comparisons. Events beyond the horizon
// (fault-model lag, long watchdog timers) overflow into a small binary
// heap. A slot is a FIFO threaded through the events' own next field, so
// the ring holds two pointers a tick and no storage of its own: whatever
// the bursts, the queue retains its fixed ring and its overflow heap, and
// the events themselves belong to the Network's pool. A Network has one
// calQueue, and only its driving goroutine pushes into it, in
// scheduling-key order, so a slot is already in (ks, kc) order; popBatch
// sorts the tick's events by key, which merges the slot with the tick's
// overflow events and costs one pass over a sorted batch.
type calQueue struct {
	base     Time // last popped tick; every live event is strictly later
	mask     Time
	nbucket  Time
	inRing   int    // events linked into ring slots
	ring     []tick // tick at lives in ring[at&mask]
	overflow eventHeap
}

// tick is one ring slot: its events in push order, linked through
// event.next (both nil while empty).
type tick struct{ head, tail *event }

// newCalQueue sizes the ring to cover the given near-future horizon
// (rounded up to a power of two, clamped to [256, 8192] ticks).
func newCalQueue(horizon Time) *calQueue {
	nb := Time(256)
	for nb < horizon && nb < 8192 {
		nb <<= 1
	}
	return &calQueue{
		mask:    nb - 1,
		nbucket: nb,
		ring:    make([]tick, nb),
	}
}

func (q *calQueue) len() int { return q.inRing + len(q.overflow) }

// push files an event under its tick. Ticks at or before base cannot
// occur (all schedule paths add ≥ 1 to the current time), but the
// overflow heap handles them correctly if a custom driver ever does.
func (q *calQueue) push(ev *event) {
	if d := ev.at - q.base; d >= 1 && d <= q.nbucket {
		s := &q.ring[ev.at&q.mask]
		if s.tail == nil {
			s.head = ev
		} else {
			s.tail.next = ev
		}
		s.tail = ev
		q.inRing++
		return
	}
	heap.Push(&q.overflow, ev)
}

// peek returns the earliest pending tick. The slot scan is bounded by
// the ring size and touches only slot heads, which in practice is far
// cheaper than maintaining heap order for every message.
func (q *calQueue) peek() (Time, bool) {
	bt := Time(-1)
	if q.inRing > 0 {
		for d := Time(1); d <= q.nbucket; d++ {
			if q.ring[(q.base+d)&q.mask].head != nil {
				bt = q.base + d
				break
			}
		}
	}
	if len(q.overflow) > 0 && (bt < 0 || q.overflow[0].at < bt) {
		return q.overflow[0].at, true
	}
	if bt < 0 {
		return 0, false
	}
	return bt, true
}

// keyLess is the canonical intra-tick order: the (ks, kc) scheduling key,
// a pure function of the event's causal origin (see simnet.go), so any
// lane count numbers a tick's events identically.
func keyLess(a, b *event) int {
	switch {
	case a.ks < b.ks:
		return -1
	case a.ks > b.ks:
		return 1
	case a.kc < b.kc:
		return -1
	case a.kc > b.kc:
		return 1
	}
	return 0
}

// popBatch appends every event scheduled at tick t to out, sorted by
// scheduling key, and advances base to t. The tick's slot is walked into
// out and unlinked, so a popped event's next is nil again and the slot is
// empty.
func (q *calQueue) popBatch(t Time, out []*event) []*event {
	start := len(out)
	if q.inRing > 0 && t > q.base && t-q.base <= q.nbucket {
		s := &q.ring[t&q.mask]
		for ev := s.head; ev != nil; {
			next := ev.next
			ev.next = nil
			out = append(out, ev)
			q.inRing--
			ev = next
		}
		*s = tick{}
	}
	for len(q.overflow) > 0 && q.overflow[0].at == t {
		out = append(out, heap.Pop(&q.overflow).(*event))
	}
	slices.SortFunc(out[start:], keyLess)
	if t > q.base {
		q.base = t
	}
	return out
}
