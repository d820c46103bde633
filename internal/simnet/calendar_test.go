package simnet

import (
	"container/heap"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestCalendarQueueMatchesHeapOrder drives the calendar queue and the old
// binary heap with identical randomized schedules and asserts both pop
// the exact same (at, ks, kc) sequence, batch by batch. Delays straddle
// the bucket horizon so the overflow heap and the same-tick
// bucket/overflow merge are exercised, not just the ring fast path.
// Pushes arrive in shuffled key order, so the test also pins popBatch's
// sort-at-pop contract, which merges a tick's bucket with its overflow
// events.
func TestCalendarQueueMatchesHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		q := newCalQueue(200) // rounds up to a 256-tick ring
		var h eventHeap
		key := uint64(0)
		now := Time(0)
		push := func(at Time, kc uint32) {
			q.push(&event{at: at, ks: key, kc: kc})
			heap.Push(&h, &event{at: at, ks: key, kc: kc})
			key++
		}
		pop := func() bool {
			bt, ok := q.peek()
			if !ok {
				if h.Len() != 0 {
					t.Fatalf("trial %d: calendar empty, heap still holds %d events", trial, h.Len())
				}
				return false
			}
			if h.Len() == 0 || h[0].at != bt {
				t.Fatalf("trial %d: calendar peek %d disagrees with heap", trial, bt)
			}
			batch := q.popBatch(bt, nil)
			if len(batch) == 0 {
				t.Fatalf("trial %d: peek reported tick %d but batch is empty", trial, bt)
			}
			for _, ev := range batch {
				want := heap.Pop(&h).(*event)
				if want.at != ev.at || want.ks != ev.ks || want.kc != ev.kc {
					t.Fatalf("trial %d: calendar popped (at=%d,ks=%d,kc=%d), heap (at=%d,ks=%d,kc=%d)",
						trial, ev.at, ev.ks, ev.kc, want.at, want.ks, want.kc)
				}
			}
			if h.Len() > 0 && h[0].at == bt {
				t.Fatalf("trial %d: calendar batch at tick %d missed events the heap still holds", trial, bt)
			}
			now = bt
			return true
		}
		for round := 0; round < 300; round++ {
			for i, k := 0, rng.Intn(8); i < k; i++ {
				// Delays up to ~2.3× the ring span: far pushes land in the
				// overflow and collide with bucketed ticks as now advances.
				push(now+Time(rng.Int63n(600))+1, uint32(rng.Intn(3)))
			}
			pop()
		}
		for pop() {
		}
	}
}

// TestCalendarQueueOverflowBoundary is the property test for the
// bucket-window edge: events landing exactly at the window's last covered
// tick (base+nbucket), one tick before it, and one beyond (the first
// overflow tick), plus far-future events several windows out, interleaved
// with window advances that pull overflowed ticks back into bucket range.
// Every batch must pop in heap-oracle order. The boundary offsets are
// deliberately adversarial: an off-by-one in push's window test files an
// event in the wrong structure, and only a drain across an advance shows
// it.
func TestCalendarQueueOverflowBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		q := newCalQueue(200) // 256-tick ring
		span := q.nbucket
		var h eventHeap
		key := uint64(0)
		push := func(at Time) {
			// Shuffled key order within a tick: split each key into a
			// randomized (ks, kc) pair so intra-tick sorting is exercised.
			kc := uint32(rng.Intn(4))
			q.push(&event{at: at, ks: key, kc: kc})
			heap.Push(&h, &event{at: at, ks: key, kc: kc})
			key++
		}
		drainOne := func() {
			bt, ok := q.peek()
			if !ok {
				if h.Len() != 0 {
					t.Fatalf("trial %d: calendar empty, heap holds %d", trial, h.Len())
				}
				return
			}
			batch := q.popBatch(bt, nil)
			for _, ev := range batch {
				want := heap.Pop(&h).(*event)
				if want.at != ev.at || want.ks != ev.ks || want.kc != ev.kc {
					t.Fatalf("trial %d: boundary pop (at=%d,ks=%d,kc=%d), oracle (at=%d,ks=%d,kc=%d)",
						trial, ev.at, ev.ks, ev.kc, want.at, want.ks, want.kc)
				}
			}
		}
		for round := 0; round < 200; round++ {
			base := q.base
			// The three window-boundary offsets relative to the current
			// base, plus a near tick and a far-future tick (multiple
			// window spans out, always overflow).
			offsets := []Time{1, span - 1, span, span + 1, span * Time(2+rng.Intn(3))}
			for _, off := range offsets {
				if rng.Intn(2) == 0 {
					push(base + off)
				}
			}
			// Window advances: drain 1–3 ticks so base moves and
			// previously-overflowed ticks fall back into bucket range.
			for i, k := 0, 1+rng.Intn(3); i < k; i++ {
				drainOne()
			}
		}
		for h.Len() > 0 {
			drainOne()
		}
		if q.len() != 0 {
			t.Fatalf("trial %d: oracle empty but calendar holds %d", trial, q.len())
		}
	}
}

// TestCalendarQueuePerLaneBoundary runs a boundary-heavy schedule through
// a Network at several lane counts: far-future timers (overflow in the
// one queue, at delays pinned to the ring span and its neighbours)
// interleaved with near sends must produce the identical delivery log at
// parallelism 1, 3, and 8 — the queue handles its overflow boundary and
// the order stays canonical however many lanes run the handlers.
func TestCalendarQueuePerLaneBoundary(t *testing.T) {
	span := newCalQueue(4*100 + 64).nbucket // the ring span New() picks for DefaultLatency
	run := func(par int) []uint64 {
		n := New(DefaultLatency(), 23)
		n.SetParallelism(par)
		var mu sync.Mutex
		var log []uint64
		for id := NodeID(0); id < 24; id++ {
			id := id
			n.Register(id, func(ctx *Context, msg Message) {
				mu.Lock()
				log = append(log, uint64(ctx.Now())<<32|uint64(uint32(id)))
				mu.Unlock()
				if ctx.Now() < 3*span {
					// One near send plus timers at the window boundary
					// offsets: one tick inside, exactly at, and one beyond
					// the ring span, all measured from the current tick.
					ctx.Send((id+1)%24, "NEAR", nil, 1)
					for _, d := range []Time{span - 1, span, span + 1} {
						ctx.After(d, func(c *Context) {
							mu.Lock()
							log = append(log, uint64(c.Now())<<32|uint64(uint32(id))|1<<31)
							mu.Unlock()
						})
					}
				}
			})
		}
		for id := NodeID(0); id < 24; id++ {
			n.Send(id, id, "NEAR", nil, 1)
		}
		n.RunUntilIdle()
		// Handlers append in lane interleaving order; sort to the canonical
		// (tick, node, kind) multiset, which pins the schedule itself.
		slices.Sort(log)
		return log
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("no deliveries")
	}
	for _, par := range []int{3, 8} {
		got := run(par)
		if len(got) != len(base) {
			t.Fatalf("par=%d: %d log entries, par=1 has %d", par, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("par=%d: log diverges at %d: %x vs %x", par, i, got[i], base[i])
			}
		}
	}
}

// TestCalendarBucketsRetainOneBurst: a burst of B events cycled through
// every slot of the ring — B pushes at the next tick, one pop, repeated
// for two full revolutions — leaves the queue holding O(B) bucket
// capacity, because an emptied bucket hands its slice to the free list
// and the next occupied one takes it back, not B in each of the nbucket
// slots. Once warm, a further revolution allocates nothing.
func TestCalendarBucketsRetainOneBurst(t *testing.T) {
	const burst = 64
	q := newCalQueue(200) // 256-tick ring
	evs := make([]*event, burst)
	for i := range evs {
		evs[i] = &event{}
	}
	out := make([]*event, 0, burst)
	key := uint64(0)
	revolution := func() {
		for i := Time(0); i < q.nbucket; i++ {
			at := q.base + 1
			for _, ev := range evs {
				*ev = event{at: at, ks: key}
				key++
				q.push(ev)
			}
			if out = q.popBatch(at, out[:0]); len(out) != burst {
				t.Fatalf("tick %d: popped %d events, pushed %d", at, len(out), burst)
			}
		}
	}
	revolution()
	revolution()
	retained := 0
	for _, b := range q.buckets {
		retained += cap(b)
	}
	for _, b := range q.free {
		retained += cap(b)
	}
	if retained > 2*burst {
		t.Fatalf("a %d-event burst through %d slots retains %d bucket slots, want at most %d",
			burst, q.nbucket, retained, 2*burst)
	}
	if raceEnabled {
		return // allocation counting is unreliable under -race
	}
	if allocs := testing.AllocsPerRun(5, revolution); allocs > 0 {
		t.Fatalf("a warm revolution allocates %.1f times, want 0", allocs)
	}
}
