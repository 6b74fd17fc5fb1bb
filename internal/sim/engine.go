// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock over a priority queue of events and
// runs simulated processes as coroutines built on iter.Pull: at any instant
// at most one process executes, and control passes between the kernel and
// the running process by a direct coroutine switch ("baton passing") that
// never touches a channel or the Go run queue. Given the same seed and the
// same spawn order, a simulation is fully deterministic and independent of
// wall-clock scheduling.
//
// A switch is the kernel's main host cost, so the kernel skips the ones
// that cannot matter: when a sleeping process's own wake-up is the
// next event to fire, Sleep advances the clock in place — same sequence
// number, sampler boundaries, watchdog budget, and event count as the
// popped event — and returns without yielding (see Proc.Sleep). Switches
// counts the switches that remain.
//
// The kernel is the substrate for every simulated subsystem in this
// repository: storage devices, network fabrics, filesystems, the Lustre and
// DYAD services, and the MD workflow processes themselves. Millions of
// events flow through it per experiment sweep, so the hot path (sleep,
// block, wake, deliver) is allocation-free in steady state; see DESIGN.md
// §3c for the kernel performance model.
package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/critpath"
	"repro/internal/trace"
)

// Time is a point in virtual time, expressed as the elapsed duration since
// the start of the simulation (t=0).
type Time = time.Duration

// event is a scheduled occurrence. The dominant kind — delivering the baton
// to a sleeping or woken process — is encoded as the process's index, so
// scheduling it allocates nothing; the general kind carries a callback.
// Events with equal time fire in schedule order (seq), which makes runs
// deterministic.
type event struct {
	at   Time
	seq  int64
	proc int32 // index into Engine.procs, or noProc for callback events
	fn   func()
}

// noProc marks an event that runs fn instead of delivering to a process.
const noProc = int32(-1)

// before reports whether a fires before b: earlier time first, schedule
// order breaking ties.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ErrStranded is reported by Run when the event queue drains while one or
// more processes are still blocked on a signal or resource that can never
// be granted. Stranded processes are aborted so no goroutines leak.
var ErrStranded = errors.New("sim: processes stranded at end of run")

// ErrWatchdog is reported by Run when a watchdog limit set with SetWatchdog
// is exceeded: the run executed more events or advanced further in virtual
// time than the configured budget. It converts a livelocked simulation (for
// example a retry loop that never stops re-scheduling itself) into a
// descriptive error instead of an endless spin.
var ErrWatchdog = errors.New("sim: watchdog limit exceeded")

// Engine is a discrete-event simulation instance. Create one with NewEngine,
// spawn processes with Spawn, then call Run. Engines are not safe for use
// from multiple OS threads; all interaction must happen either before Run or
// from within simulated processes.
type Engine struct {
	now Time
	seq int64
	// pq holds the pending events by (at, seq): an inlined 4-ary min-heap
	// (queue.go).
	pq      eventq
	procs   []*Proc
	live    int // procs spawned and not yet finished
	seed    uint64
	failure error
	tracer  func(t Time, procName, msg string)
	rec     *trace.Recorder
	cp      *critpath.Recorder
	curProc int32 // proc currently holding the baton, noProc in the kernel

	// inPlace is set while Run's event loop drives the run: Sleep may then
	// fire its own wake-up without a coroutine switch (see Proc.Sleep).
	// forceSwitch keeps it off — the schedule-and-yield reference path the
	// package's differential tests compare against.
	inPlace     bool
	forceSwitch bool
	switches    int64 // coroutine resumes in deliver

	// Watchdog limits (0 = unlimited); see SetWatchdog.
	maxEvents int64
	maxTime   Time
	fired     int64 // events fired so far

	// Sampler hook (nil = off); see SetSampler.
	sampleEvery Time
	sampleNext  Time
	sampleFn    func(t Time)
}

// NewEngine returns an engine with its virtual clock at zero. The seed
// drives every per-process random stream; two engines with equal seeds and
// equal workloads produce identical event timelines.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		seed:    seed,
		curProc: noProc,
	}
}

// Prealloc reserves capacity for an expected workload: procs processes and
// events simultaneously pending events. Harnesses that know their ensemble
// size call it once per run so repetition sweeps never re-grow the process
// table or the event heap. Undersized (or unset) hints only cost the usual
// amortized growth; they never limit the run.
func (e *Engine) Prealloc(procs, events int) {
	if procs > cap(e.procs) {
		grown := make([]*Proc, len(e.procs), procs)
		copy(grown, e.procs)
		e.procs = grown
	}
	e.pq.grow(events)
}

// Reset returns the engine to its initial state under a new seed, keeping
// every backing array — the event heap and the process table — so
// harnesses can reuse one engine across repetitions instead of reallocating
// the rig per rep (core's pooled RunMany; DESIGN.md §3h). A reset engine is
// observationally identical to NewEngine(seed): every run-visible field is
// cleared, and per-process random streams derive only from the seed and the
// spawn order. Call between Runs only.
func (e *Engine) Reset(seed uint64) {
	if e.live > 0 {
		panic("sim: Reset while processes are live")
	}
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.switches = 0
	for i := range e.procs {
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
	e.seed = seed
	e.failure = nil
	e.tracer = nil
	e.rec = nil
	e.cp = nil
	e.curProc = noProc
	e.maxEvents, e.maxTime = 0, 0
	e.sampleEvery, e.sampleNext, e.sampleFn = 0, 0, nil
	e.pq.reset()
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() uint64 { return e.seed }

// SetTracer installs a callback invoked by Proc.Tracef. A nil tracer (the
// default) makes tracing free.
func (e *Engine) SetTracer(fn func(t Time, procName, msg string)) { e.tracer = fn }

// SetRecorder installs a span recorder: modeled operations emit virtual-time
// spans through it (see Proc.Rec and package trace). A nil recorder (the
// default) disables span tracing at zero cost — emission sites pay one nil
// check and never allocate.
func (e *Engine) SetRecorder(r *trace.Recorder) { e.rec = r }

// Recorder returns the installed span recorder, or nil when span tracing
// is off.
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// SetWatchdog arms run limits: Run aborts with an error wrapping ErrWatchdog
// once it has fired more than maxEvents events or virtual time passes
// maxTime. Zero disables the respective limit (the default). The watchdog is
// the backstop that keeps a livelocked workload — a recovery policy retrying
// forever, processes ping-ponging wakes at one instant — from hanging a
// batch; aborted runs unwind cleanly like any other failed run.
func (e *Engine) SetWatchdog(maxEvents int64, maxTime Time) {
	if maxEvents < 0 || maxTime < 0 {
		panic("sim: negative watchdog limit")
	}
	e.maxEvents = maxEvents
	e.maxTime = maxTime
}

// Events returns the number of events fired so far, counting each sleep
// that completed in place (see Proc.Sleep) as the event it stands for.
func (e *Engine) Events() int64 { return e.fired }

// Switches returns the number of coroutine switches into processes so far:
// the deliveries that resumed a process. The other events Events counts are
// callbacks, sleeps that completed in place, and a watchdog's tripping
// event.
func (e *Engine) Switches() int64 { return e.switches }

// SetSampler installs a fixed-interval virtual-time sampler: before each
// event fires, fn runs once for every elapsed boundary t = every, 2*every,
// ... up to and including the event's time, with Now() set to the boundary.
// The hook is not an event — it keeps nothing alive in the queue, does not
// count toward the watchdog's event budget, and stops with the last real
// event, so installing a sampler cannot change the event timeline. fn must
// only observe state (no scheduling, no RNG draws). A nil fn (the default)
// disables sampling; the run loop then pays one nil check per event.
//
// Two boundary rules keep sampled series well-formed:
//
//   - The first boundary is the first multiple of every strictly after the
//     current clock. Re-arming a sampler mid-run therefore never replays
//     past boundaries (which would run fn with the clock parked before
//     Now()) and never double-samples a boundary the previous sampler
//     already took when the run horizon landed exactly on it.
//   - Boundaries fire only for events that actually execute. An event that
//     trips the watchdog aborts the run before any of the boundaries it
//     would have carried the timeline across, so an ErrWatchdog unwind
//     takes no samples past the last healthy event.
func (e *Engine) SetSampler(every Time, fn func(t Time)) {
	if fn != nil && every <= 0 {
		panic("sim: nonpositive sample interval")
	}
	e.sampleEvery = every
	e.sampleFn = fn
	e.sampleNext = 0
	if fn != nil {
		e.sampleNext = (e.now/every + 1) * every
	}
}

// schedule enqueues fn to run at absolute virtual time at. Scheduling in
// the past is a programming error.
func (e *Engine) schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.pq.push(event{at: at, seq: e.seq, proc: noProc, fn: fn})
}

// scheduleDeliver enqueues baton delivery to the process at index idx —
// the steady-state event kind behind Sleep, Wake, and Spawn. Unlike
// schedule it captures no closure, so it allocates nothing.
func (e *Engine) scheduleDeliver(at Time, idx int32) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.pq.push(event{at: at, seq: e.seq, proc: idx})
}

// fire executes one popped event.
func (e *Engine) fire(ev *event) {
	if ev.proc >= 0 {
		e.deliver(e.procs[ev.proc])
		return
	}
	ev.fn()
}

// After schedules fn to run d from now. It may be called before Run or from
// within a process.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now+d, fn)
}

// Run executes events until the queue is empty or a process panics.
// It returns the first process failure, or ErrStranded if processes remain
// blocked with no pending events (a lost-signal deadlock). All stranded
// processes are aborted before Run returns, so no goroutines leak.
//
// The loop pops and executes events in (at, seq) order; while it runs, Sleep
// may complete in place (see Proc.Sleep).
func (e *Engine) Run() error {
	e.inPlace = !e.forceSwitch
	for e.pq.len() > 0 {
		ev := e.pq.pop()
		if !e.advance(ev.at) {
			break
		}
		e.fire(&ev)
		if e.failure != nil {
			break
		}
	}
	e.inPlace = false
	return e.finish()
}

// overBudget reports whether firing one more event at at exceeds a
// watchdog limit.
func (e *Engine) overBudget(at Time) bool {
	return (e.maxEvents > 0 && e.fired+1 > e.maxEvents) || (e.maxTime > 0 && at > e.maxTime)
}

// advance carries the run up to the firing of one event at at: it checks
// the watchdog, fires the sampler for every boundary the event carries the
// timeline across, then sets the clock and counts the event. It returns
// false, with the run's failure recorded, when the watchdog trips. Run and
// the in-place sleep (Proc.Sleep) both go through advance, so an event
// costs the same budget and takes the same samples on either path.
func (e *Engine) advance(at Time) bool {
	// The watchdog is checked before the sampler so an aborting run takes
	// no samples for boundaries its final, never-executed event would have
	// crossed (see SetSampler).
	if e.overBudget(at) {
		e.now = at
		e.fired++
		e.failure = fmt.Errorf("%w: %d events fired, virtual time %v (limits: %d events, %v)",
			ErrWatchdog, e.fired, e.now, e.maxEvents, e.maxTime)
		return false
	}
	if e.sampleFn != nil {
		// Fire every sample boundary the timeline is about to cross,
		// with the clock parked on the boundary so time-integrated
		// probes (Resource.BusyUnitNanos) integrate exactly to it.
		// Boundaries at the event's own instant sample before it fires.
		for e.sampleNext <= at {
			e.now = e.sampleNext
			e.sampleFn(e.sampleNext)
			e.sampleNext += e.sampleEvery
		}
	}
	e.now = at
	e.fired++
	return true
}

// finish unwinds the run: stranded and orphaned processes are aborted,
// cleanup events are drained, and the first failure (or strandedness) is
// reported.
func (e *Engine) finish() error {
	var stranded []string
	for _, p := range e.procs {
		switch {
		case p.done:
		case p.waiting:
			stranded = append(stranded, p.name)
			p.abort()
		case e.failure != nil:
			// An aborted run (process failure or watchdog) can strand
			// processes that are merely sleeping — their delivery events
			// die with the queue. Unwind them too so no goroutines leak.
			p.abort()
		}
	}
	// Drain any events scheduled by aborting procs (there should be none,
	// but be safe against user cleanup code). Like the main loop, stop at
	// the first failure: a panic during cleanup must not keep executing
	// subsequent events against now-inconsistent state.
	for e.pq.len() > 0 && e.failure == nil {
		ev := e.pq.pop()
		e.now = ev.at
		e.fire(&ev)
	}
	// Keep the backing arrays for engines that run again; clear residual
	// events (present only after a failure) so their callbacks are freed.
	e.pq.reset()
	if e.failure != nil {
		return e.failure
	}
	if len(stranded) > 0 {
		return fmt.Errorf("%w: %v", ErrStranded, stranded)
	}
	return nil
}
