package sim

import (
	"fmt"
	"testing"
	"time"
)

// steadyAllocs measures the total heap allocations of one engine lifetime
// delivering about `events` sleep events. With interleaved set, two
// processes sleep at alternating phases so every sleep switches coroutines;
// otherwise one process sleeps alone and every sleep completes in place.
func steadyAllocs(t *testing.T, events int, interleaved bool) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		e := NewEngine(1)
		if interleaved {
			spawnInterleaved(e, events/2)
		} else {
			e.Spawn("p", func(p *Proc) {
				for i := 0; i < events; i++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// spawnInterleaved spawns two processes that each sleep n times for 2µs,
// the second offset by 1µs: every wake-up finds the other process's
// wake-up pending before it, so no sleep can complete in place.
func spawnInterleaved(e *Engine, n int) {
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			for s := 0; s < n; s++ {
				p.Sleep(2 * time.Microsecond)
			}
		})
	}
}

// The kernel's steady state is allocation-free (DESIGN.md §3c), and the
// span-tracer hooks must keep it that way when tracing is off: scaling the
// event count 100x must not add a single allocation — everything measured
// belongs to engine setup. This is the tracing-off half of the tentpole's
// zero-cost contract; the instrumented components pay one nil check per
// operation and nothing else. Both sleep paths are held to it: a lone
// sleeper (in place) and two interleaved sleepers (a switch per sleep).
func TestSteadyStateZeroAllocsWithTracingOff(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	for _, interleaved := range []bool{false, true} {
		base := steadyAllocs(t, 200, interleaved)
		long := steadyAllocs(t, 20_000, interleaved)
		if delta := long - base; delta > 0 {
			t.Fatalf("steady state (interleaved=%v) allocates: %0.f allocs over 19800 extra events (base %.0f, long %.0f)",
				interleaved, delta, base, long)
		}
	}
}

// pingPongAllocs measures the total heap allocations of one engine
// lifetime driving a Block/Wake-heavy workload: a waiter parked in a
// Signal and a peer that broadcasts every microsecond — one release edge
// per round, exercising exactly the kernel paths the critical-path
// recorder hooks (Block, Wake, Spawn, deliver).
func pingPongAllocs(t *testing.T, rounds int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		e := NewEngine(1)
		var sig Signal
		e.Spawn("waiter", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				sig.Wait(p)
			}
		})
		e.Spawn("waker", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Sleep(time.Microsecond)
				sig.Broadcast()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// The critical-path recorder hooks must be invisible when no recorder is
// installed: 100x more Block/Wake edges, zero extra allocations. This is
// the disabled-path half of the §3k zero-cost contract (the enabled path
// is bounded by the graph size, not the event count; the off path costs
// one nil check per hook site).
func TestCritpathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	base := pingPongAllocs(t, 200)
	long := pingPongAllocs(t, 20_000)
	if delta := long - base; delta > 0 {
		t.Fatalf("recorder-off Block/Wake path allocates: %.0f allocs over 19800 extra rounds (base %.0f, long %.0f)", delta, base, long)
	}
}
