package sim

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
)

// refHeap is a container/heap reference implementation with the kernel's
// exact ordering contract: ascending (at, seq).
type refHeap []event

func (h refHeap) Len() int      { return len(h) }
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refHeap) Less(i, j int) bool {
	return h[i].before(&h[j])
}
func (h *refHeap) Push(x any) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// TestQueueEquivalenceRandom is the queue-equivalence property test: the
// 4-ary heap must pop in exactly the reference container/heap's (at, seq)
// order under randomized push/pop interleavings with heavy at collisions.
// Two workload shapes are driven: "arbitrary" pushes times in any order
// (stronger than the engine needs), and "advancing" mimics the engine's
// hold model, where pushes never go behind the last popped time. Every
// step also checks firstAt against the reference head. Runs in the -race
// suite (no alloc assertions here).
func TestQueueEquivalenceRandom(t *testing.T) {
	for _, shape := range []string{"arbitrary", "advancing"} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("heap/%s/seed=%d", shape, seed), func(t *testing.T) {
				rng := NewRNG(seed * 0x9e3779b97f4a7c15)
				var q eventq
				ref := &refHeap{}
				var seq int64
				var now Time
				const ops = 30_000
				for i := 0; i < ops; i++ {
					// Push-heavy growth for the first third, drain-heavy
					// afterwards, so the heap grows deep and then drains.
					pushBias := 4
					if i > ops/3 {
						pushBias = 2
					}
					if rng.Intn(pushBias) != 0 || q.len() == 0 {
						var at Time
						switch shape {
						case "arbitrary":
							// Tie-heavy: 64 distinct times across 30k events.
							at = Time(rng.Intn(64)) * time.Millisecond
						case "advancing":
							at = now + Time(rng.Intn(2000))*time.Microsecond
						}
						ev := event{at: at, seq: seq, proc: noProc}
						seq++
						q.push(ev)
						heap.Push(ref, ev)
					} else {
						got := q.pop()
						want := heap.Pop(ref).(event)
						if got.at != want.at || got.seq != want.seq {
							t.Fatalf("op %d: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
								i, got.at, got.seq, want.at, want.seq)
						}
						if shape == "advancing" {
							now = got.at
						}
					}
					if q.len() != ref.Len() {
						t.Fatalf("op %d: size %d vs reference %d", i, q.len(), ref.Len())
					}
					checkFirstAt(t, i, &q, ref)
				}
				for ref.Len() > 0 {
					got := q.pop()
					want := heap.Pop(ref).(event)
					if got.at != want.at || got.seq != want.seq {
						t.Fatalf("drain: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
							got.at, got.seq, want.at, want.seq)
					}
				}
				if q.len() != 0 {
					t.Fatalf("drained queue still reports %d events", q.len())
				}
			})
		}
	}
}

// checkFirstAt holds eventq.firstAt (the in-place sleep test) to the
// reference head: it must admit every instant before the head and never
// the head's own instant. The pops that follow double as the check that
// firstAt never perturbs the order.
func checkFirstAt(t *testing.T, op int, q *eventq, ref *refHeap) {
	t.Helper()
	if ref.Len() == 0 {
		if !q.firstAt(0) {
			t.Fatalf("op %d: firstAt on an empty queue = false", op)
		}
		return
	}
	head := (*ref)[0].at
	if q.firstAt(head) {
		t.Fatalf("op %d: firstAt(%v) = true with an event pending then", op, head)
	}
	if !q.firstAt(head - 1) {
		t.Fatalf("op %d: firstAt(%v) = false just before the head at %v", op, head-1, head)
	}
}

// TestQueueHoldModelSteadyState drives the engine's hold model at scale: a
// large steady population of self-rescheduling timers, each pop pushing a
// successor at popped.at + period + jitter, with exact-tie frame
// boundaries and near-immediate successors mixed in. Every pop is checked
// against the reference heap.
func TestQueueHoldModelSteadyState(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := NewRNG(seed * 0x9e3779b97f4a7c15)
			var q eventq
			ref := &refHeap{}
			var seq int64
			push := func(at Time) {
				ev := event{at: at, seq: seq, proc: noProc}
				seq++
				q.push(ev)
				heap.Push(ref, ev)
			}
			const timers = 600
			const period = Time(5 * time.Millisecond)
			for i := 0; i < timers; i++ {
				push(Time(rng.Intn(int(period))))
			}
			for step := 0; step < 120_000; step++ {
				got := q.pop()
				want := heap.Pop(ref).(event)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("step %d: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
						step, got.at, got.seq, want.at, want.seq)
				}
				if q.len() != ref.Len() {
					t.Fatalf("step %d: size %d vs reference %d", step, q.len(), ref.Len())
				}
				d := period
				switch rng.Intn(4) {
				case 0:
					d += Time(rng.Intn(3000)) // tight jitter cluster
				case 1:
					d += Time(rng.Intn(300_000)) // loose jitter
				case 2:
					// exact frame tie: many events at one instant
				case 3:
					d = Time(1 + rng.Intn(100)) // near-immediate successor
				}
				push(got.at + d)
			}
		})
	}
}

// TestQueueWideHorizon spreads events across a huge, sparse time range —
// microseconds to hours, plus a dense cluster at one instant — and checks
// exact pop order.
func TestQueueWideHorizon(t *testing.T) {
	rng := NewRNG(7)
	var q eventq
	ref := &refHeap{}
	var seq int64
	const n = 20_000
	for i := 0; i < n; i++ {
		var at Time
		switch rng.Intn(4) {
		case 0:
			at = Time(rng.Intn(1000)) * time.Microsecond
		case 1:
			at = Time(rng.Intn(1000)) * time.Second
		case 2:
			at = Time(rng.Intn(10)) * time.Hour
		case 3:
			at = 42 * time.Second
		}
		ev := event{at: at, seq: seq, proc: noProc}
		seq++
		q.push(ev)
		heap.Push(ref, ev)
	}
	for ref.Len() > 0 {
		got := q.pop()
		want := heap.Pop(ref).(event)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
				got.at, got.seq, want.at, want.seq)
		}
	}
}

// TestHeapMatchesContainerHeap drives an engine's own pending-event heap
// and a container/heap reference with the same randomized push/pop
// interleaving and demands identical pop order — including the seq
// tie-break on heavily duplicated timestamps.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := NewRNG(42)
	e := NewEngine(0)
	ref := &refHeap{}
	seq := int64(0)

	const ops = 20_000
	for i := 0; i < ops; i++ {
		if rng.Intn(3) != 0 || e.pq.len() == 0 {
			// Tie-heavy times: only 64 distinct timestamps across 20k
			// events, so ordering is usually decided by seq alone.
			at := Time(rng.Intn(64)) * time.Millisecond
			ev := event{at: at, seq: seq, proc: noProc}
			seq++
			e.pq.push(ev)
			heap.Push(ref, ev)
		} else {
			got := e.pq.pop()
			want := heap.Pop(ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("op %d: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
					i, got.at, got.seq, want.at, want.seq)
			}
		}
		if e.pq.len() != ref.Len() {
			t.Fatalf("op %d: size %d vs reference %d", i, e.pq.len(), ref.Len())
		}
	}
	// Drain: the tail must come out in exactly reference order too.
	for ref.Len() > 0 {
		got := e.pq.pop()
		want := heap.Pop(ref).(event)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain: pop = (at=%v seq=%d), reference = (at=%v seq=%d)",
				got.at, got.seq, want.at, want.seq)
		}
	}
	if e.pq.len() != 0 {
		t.Fatalf("drained heap still holds %d events", e.pq.len())
	}
}

// TestHeapPopZeroesVacatedSlots checks the anti-retention invariant: slots
// past the live heap must be zeroed so popped events don't pin closures.
func TestHeapPopZeroesVacatedSlots(t *testing.T) {
	var q eventq
	marker := func() {}
	for i := 0; i < 32; i++ {
		q.push(event{at: Time(i), seq: int64(i), proc: noProc, fn: marker})
	}
	for i := 0; i < 32; i++ {
		q.pop()
	}
	for i, ev := range q.heap[:cap(q.heap)] {
		if ev.fn != nil {
			t.Fatalf("vacated slot %d still holds a closure reference", i)
		}
	}
}

// TestQueueResetClearsSlots resets a half-drained queue and verifies no
// backing slot still pins a callback: reset must clear the live events that
// pop never vacated.
func TestQueueResetClearsSlots(t *testing.T) {
	marker := func() {}
	var q eventq
	rng := NewRNG(3)
	for i := 0; i < 5000; i++ {
		q.push(event{at: Time(rng.Intn(64)) * time.Millisecond, seq: int64(i), proc: noProc, fn: marker})
	}
	for i := 0; i < 2500; i++ {
		q.pop()
	}
	q.reset()
	if q.len() != 0 {
		t.Fatalf("reset queue: len=%d, want empty", q.len())
	}
	for i, ev := range q.heap[:cap(q.heap)] {
		if ev.fn != nil {
			t.Fatalf("heap slot %d still holds a closure reference", i)
		}
	}
}

// TestQueueReuseAfterReset reuses one queue across reset cycles and demands
// identical pop sequences — the invariant pooled engines rely on
// (Engine.Reset keeps the queue's backing array).
func TestQueueReuseAfterReset(t *testing.T) {
	var q eventq
	var first []event
	for cycle := 0; cycle < 3; cycle++ {
		rng := NewRNG(11)
		var got []event
		for i := 0; i < 1000; i++ {
			q.push(event{at: Time(rng.Intn(32)) * time.Millisecond, seq: int64(i), proc: noProc})
		}
		for q.len() > 0 {
			got = append(got, q.pop())
		}
		if cycle == 0 {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("cycle %d popped %d events, first cycle %d", cycle, len(got), len(first))
		}
		for i := range got {
			if got[i].at != first[i].at || got[i].seq != first[i].seq {
				t.Fatalf("cycle %d pop %d = (at=%v seq=%d), first cycle = (at=%v seq=%d)",
					cycle, i, got[i].at, got[i].seq, first[i].at, first[i].seq)
			}
		}
		q.reset()
	}
}
