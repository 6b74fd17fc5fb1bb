package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// expectNoLeakedProcs fails the test unless the goroutine count is back to
// before: every process coroutine has run to the end of its body. A
// finished coroutine exits inside the switch that ends it, so the count
// settles as soon as Run returns; the short poll only tolerates unrelated
// runtime goroutines winding down.
func expectNoLeakedProcs(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d: a process coroutine leaked", before, after)
	}
}

// spawnSleepers starts n processes that would sleep for an hour; the
// returned counter reports how many of them were unwound (their deferred
// cleanup ran) rather than finishing.
func spawnSleepers(e *Engine, n int) *int {
	unwound := new(int)
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			finished := false
			defer func() {
				if !finished {
					*unwound++
				}
			}()
			p.Sleep(time.Hour)
			finished = true
		})
	}
	return unwound
}

var errTestDevice = errors.New("test: device failed")

// A process that panics with an error keeps the chain: callers match the
// wrapped sentinel with errors.Is on Run's error, and the sleeping
// bystanders are unwound.
func TestProcPanicWrappedSentinel(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(3)
	unwound := spawnSleepers(e, 4)
	e.Spawn("writer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic(fmt.Errorf("write frame: %w", errTestDevice))
	})
	err := e.Run()
	if !errors.Is(err, errTestDevice) {
		t.Fatalf("err = %v, want it to wrap errTestDevice", err)
	}
	if want := `sim: process "writer" failed: write frame: `; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %q, want prefix %q", err, want)
	}
	if *unwound != 4 {
		t.Fatalf("%d of 4 sleepers unwound", *unwound)
	}
	expectNoLeakedProcs(t, before)
}

// A process whose first delivery dies with the queue never runs user code:
// abort finishes its coroutine without entering fn.
func TestProcAbortedBeforeFirstDelivery(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	ran := false
	var child *Proc
	e.Spawn("parent", func(p *Proc) {
		child = p.Engine().Spawn("child", func(*Proc) { ran = true })
		panic(errTestDevice) // fails before the child's start event fires
	})
	if err := e.Run(); !errors.Is(err, errTestDevice) {
		t.Fatalf("err = %v, want errTestDevice", err)
	}
	if ran {
		t.Fatal("aborted process ran its body")
	}
	if !child.done || !child.aborted {
		t.Fatalf("child done=%v aborted=%v, want both", child.done, child.aborted)
	}
	if e.live != 0 {
		t.Fatalf("live = %d after Run, want 0", e.live)
	}
	expectNoLeakedProcs(t, before)
}

// spawnAllocs measures the heap allocations of one engine lifetime that
// spawns procs processes which finish at once. The proc table and event
// queue are preallocated so they do not grow with procs.
func spawnAllocs(procs int) float64 {
	return testing.AllocsPerRun(5, func() {
		e := NewEngine(1)
		e.Prealloc(procs, procs)
		for i := 0; i < procs; i++ {
			e.Spawn("p", finishAtOnce)
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
	})
}

func finishAtOnce(*Proc) {}

// maxSpawnAllocs caps the allocations per spawned-and-finished process:
// the Proc and the iter.Pull coroutine with its closures (13 objects when
// the budget was set). Steady-state switches stay at zero
// (TestSteadyStateZeroAllocsWithTracingOff); spawn is where a process
// pays, so a change that makes spawning dearer must move this line.
const maxSpawnAllocs = 13

func TestSpawnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	small, large := spawnAllocs(100), spawnAllocs(1_000)
	if per := (large - small) / 900; per > maxSpawnAllocs {
		t.Fatalf("spawn allocates %.2f objects per process, budget %d (100 procs: %.0f, 1000 procs: %.0f)",
			per, maxSpawnAllocs, small, large)
	}
}
