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
// Near-future events live in a power-of-two ring of per-tick buckets
// covering (base, base+nbucket]; pushing and popping them is a slice
// append and a slice swap, with no comparisons. Events beyond the horizon
// (fault-model lag, long watchdog timers) overflow into a small binary
// heap. A bucket holds a slice only while it has events: popping a tick
// returns the slice to the queue's free list and the next push into an
// empty bucket takes one from it, so the capacity the ring retains
// follows the ticks that are occupied at once, not every slot's
// high-water burst. A Network has one calQueue, and only its driving
// goroutine pushes into it, in scheduling-key order, so a bucket is
// already in (ks, kc) order; popBatch sorts the tick's events by key, which
// merges the bucket with the tick's overflow events and costs one pass
// over a sorted batch.
type calQueue struct {
	base      Time // last popped tick; every live event is strictly later
	mask      Time
	nbucket   Time
	inBuckets int
	buckets   [][]*event // nil while empty
	free      [][]*event // emptied bucket slices, capacity kept
	overflow  eventHeap
}

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
		buckets: make([][]*event, nb),
	}
}

func (q *calQueue) len() int { return q.inBuckets + len(q.overflow) }

// push files an event under its tick. Ticks at or before base cannot
// occur (all schedule paths add ≥ 1 to the current time), but the
// overflow heap handles them correctly if a custom driver ever does.
func (q *calQueue) push(ev *event) {
	if d := ev.at - q.base; d >= 1 && d <= q.nbucket {
		idx := ev.at & q.mask
		b := q.buckets[idx]
		if b == nil {
			if k := len(q.free) - 1; k >= 0 {
				b = q.free[k]
				q.free[k] = nil
				q.free = q.free[:k]
			}
		}
		q.buckets[idx] = append(b, ev)
		q.inBuckets++
		return
	}
	heap.Push(&q.overflow, ev)
}

// peek returns the earliest pending tick. The bucket scan is bounded by
// the ring size and touches only slice headers, which in practice is far
// cheaper than maintaining heap order for every message.
func (q *calQueue) peek() (Time, bool) {
	bt := Time(-1)
	if q.inBuckets > 0 {
		for d := Time(1); d <= q.nbucket; d++ {
			if len(q.buckets[(q.base+d)&q.mask]) > 0 {
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
// scheduling key, and advances base to t. The emptied bucket's slice goes
// to the free list, capacity kept, so steady-state traffic never
// reallocates.
func (q *calQueue) popBatch(t Time, out []*event) []*event {
	start := len(out)
	var bucket []*event
	idx := t & q.mask
	if q.inBuckets > 0 && t > q.base && t-q.base <= q.nbucket {
		bucket = q.buckets[idx]
		out = append(out, bucket...)
	}
	for len(q.overflow) > 0 && q.overflow[0].at == t {
		out = append(out, heap.Pop(&q.overflow).(*event))
	}
	slices.SortFunc(out[start:], keyLess)
	if bucket != nil {
		q.inBuckets -= len(bucket)
		q.release(idx)
	}
	if t > q.base {
		q.base = t
	}
	return out
}

// release empties bucket idx into the free list, dropping its event
// references.
func (q *calQueue) release(idx Time) {
	b := q.buckets[idx]
	clear(b)
	q.free = append(q.free, b[:0])
	q.buckets[idx] = nil
}
