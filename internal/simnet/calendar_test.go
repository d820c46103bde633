package simnet

import (
	"container/heap"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"
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

// TestCalendarQueueHoldsNoBucketStorage: traffic spread over many ticks
// occupied at once, each with its own burst size and their pushes
// interleaved as a step's effects interleave, pops in key order with
// every slot empty after the drain, and push and popBatch allocate
// nothing, on a cold queue and on a warm one. A slot threads its events
// through event.next, so the queue keeps no per-tick storage that a burst
// could grow and a later tick inherit; an event stays 96 bytes with that
// link, so the event pool costs no more either.
func TestCalendarQueueHoldsNoBucketStorage(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 96 {
		t.Fatalf("event is %d bytes, want at most 96", sz)
	}
	const span = 200 // ticks occupied at once, inside the 256-tick ring
	var bursts [span]int
	total, peak := 0, 0
	for i := range bursts {
		bursts[i] = 1 + (i*i*7+i*3)%61 // uneven: 1..61 events
		total += bursts[i]
		peak = max(peak, bursts[i])
	}
	pool := make([]event, total)
	out := make([]*event, 0, peak)
	key := uint64(0)
	traffic := func(q *calQueue) {
		base := q.base
		n := 0
		for r := 0; r < peak; r++ {
			for i, b := range bursts {
				if r < b {
					ev := &pool[n]
					n++
					*ev = event{at: base + 1 + Time(i), ks: key}
					key++
					q.push(ev)
				}
			}
		}
		for i, b := range bursts {
			at, ok := q.peek()
			if !ok || at != base+1+Time(i) {
				t.Fatalf("peek = %d, %v; want tick %d", at, ok, base+1+Time(i))
			}
			out = q.popBatch(at, out[:0])
			if len(out) != b {
				t.Fatalf("tick %d: popped %d events, pushed %d", at, len(out), b)
			}
			for j, ev := range out {
				if ev.at != at || ev.next != nil || (j > 0 && ev.ks <= out[j-1].ks) {
					t.Fatalf("tick %d: event %d is (at=%d, ks=%d, next set %v) out of order",
						at, j, ev.at, ev.ks, ev.next != nil)
				}
			}
		}
		if q.len() != 0 {
			t.Fatalf("drained queue holds %d events", q.len())
		}
		for i, s := range q.ring {
			if s != (tick{}) {
				t.Fatalf("slot %d still links events after the drain", i)
			}
		}
	}

	warm := newCalQueue(200)
	for range 3 { // wraps the ring
		traffic(warm)
	}
	if raceEnabled {
		return // allocation counting is unreliable under -race
	}
	cold := []*calQueue{newCalQueue(200), newCalQueue(200)}
	if allocs := testing.AllocsPerRun(1, func() {
		traffic(cold[0])
		cold = cold[1:]
	}); allocs > 0 {
		t.Fatalf("traffic through a cold queue allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { traffic(warm) }); allocs > 0 {
		t.Fatalf("traffic through a warm queue allocates %.1f times, want 0", allocs)
	}
}
