package sim

// This file is the pending-event queue behind the kernel: an inlined 4-ary
// min-heap ordered by (at, seq). Pop returns pending events in exactly
// ascending (at, seq) for any interleaving of pushes and pops, which is what
// makes equal-time events fire in schedule order; queue_test.go locks that
// contract against a container/heap reference over tie-heavy randomized
// workloads. Popped slots are zeroed so fired callbacks are not pinned, and
// the backing array is kept, so after its high-water mark the queue
// allocates nothing (the steady-state zero-alloc contract of DESIGN.md §3c).

// eventq is the pending-event queue. The zero value is an empty queue. Not
// safe for concurrent use.
type eventq struct {
	heap []event
}

// len returns the number of pending events.
func (q *eventq) len() int { return len(q.heap) }

// grow reserves capacity for n simultaneously pending events (Prealloc).
func (q *eventq) grow(n int) {
	if n > cap(q.heap) {
		grown := make([]event, len(q.heap), n)
		copy(grown, q.heap)
		q.heap = grown
	}
}

// push inserts ev.
func (q *eventq) push(ev event) {
	pq := append(q.heap, ev)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !pq[i].before(&pq[parent]) {
			break
		}
		pq[i], pq[parent] = pq[parent], pq[i]
		i = parent
	}
	q.heap = pq
}

// pop removes and returns the earliest pending event. The queue must be
// non-empty.
func (q *eventq) pop() event {
	pq := q.heap
	top := pq[0]
	n := len(pq) - 1
	last := pq[n]
	pq[n] = event{} // clear the vacated slot so callbacks are not pinned
	pq = pq[:n]
	q.heap = pq
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if pq[j].before(&pq[min]) {
				min = j
			}
		}
		if !pq[min].before(&last) {
			break
		}
		pq[i] = pq[min]
		i = min
	}
	pq[i] = last
	return top
}

// firstAt reports whether an event at at would be the next one popped:
// strictly before every pending event.
func (q *eventq) firstAt(at Time) bool {
	return len(q.heap) == 0 || at < q.heap[0].at
}
