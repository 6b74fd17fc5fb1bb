//go:build go1.23

// The go1.23 constraint raises this file's language version above the
// module's go 1.22 line: iter.Pull, which the process kernel is built on,
// arrived in go1.23. Raising the go line in go.mod instead would make every
// -mod=mod build of a module that requires this one rewrite that module's
// go.mod. Building the package therefore needs a go1.23 or newer toolchain.

package sim

import (
	"fmt"
	"iter"
	"time"

	"repro/internal/trace"
)

// Proc is a simulated process: a coroutine (iter.Pull) that runs user code
// and yields to the kernel whenever it sleeps or blocks. The kernel resumes
// it with a direct coroutine switch — no channel operation, no run queue —
// and exactly one Proc executes at a time, so user code never needs locks
// for simulation state.
type Proc struct {
	e       *Engine
	name    string
	idx     int32                   // index in Engine.procs; identifies the proc in events
	next    func() (struct{}, bool) // resumes the coroutine until it yields or finishes
	suspend func(struct{}) bool     // the coroutine's yield: switches back to next's caller
	done    bool
	waiting bool // blocked on a signal/resource (not a timed event)
	aborted bool
	rng     RNG
}

// procAbort is panicked inside a stranded process to unwind it at the end
// of a run. It is recovered by the spawn wrapper and never escapes.
type procAbort struct{}

// Spawn creates a process named name running fn, starting at the current
// virtual time. It may be called before Run or from within another process.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		e:    e,
		name: name,
		idx:  int32(len(e.procs)),
		rng:  NewRNG(e.seed ^ hash64(name) ^ uint64(len(e.procs)+1)*0x9e3779b97f4a7c15),
	}
	e.procs = append(e.procs, p)
	e.live++
	// The stop function is never needed: every coroutine runs its sequence
	// function to the end, normally or unwound by abort.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.suspend = yield
		defer func() {
			if r := recover(); r != nil {
				if _, isAbort := r.(procAbort); !isAbort && e.failure == nil {
					if err, ok := r.(error); ok {
						// Processes abort by panicking with an error value;
						// keep the chain so callers can errors.Is against
						// the wrapped sentinel (faults.ErrDeviceFailed, ...).
						e.failure = fmt.Errorf("sim: process %q failed: %w", p.name, err)
					} else {
						e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
					}
				}
			}
			if cp := e.cp; cp != nil && !p.aborted {
				cp.EndProc(p.idx, e.now)
			}
			p.done = true
			e.live--
		}()
		// Park until the first delivery; a process aborted before it
		// unwinds from here without running user code.
		p.yield()
		fn(p)
	})
	// Run the prologue up to that park now: iter.Pull builds its yield
	// closure on a coroutine's first resume, and paying that allocation in
	// Spawn keeps Run's switches allocation-free from the first one on.
	p.next()
	if cp := e.cp; cp != nil {
		cp.StartProc(p.idx, name, e.curProc, e.now)
	}
	e.scheduleDeliver(e.now, p.idx)
	return p
}

// deliver switches to p and returns once p yields back (by sleeping,
// blocking, or finishing). Events fire only on the goroutine that called
// Run, so next is never called concurrently.
func (e *Engine) deliver(p *Proc) {
	if p.done {
		panic(fmt.Sprintf("sim: wake of finished process %q", p.name))
	}
	p.waiting = false
	// curProc lets Wake and Spawn hooks attribute releases to the proc
	// that caused them; the kernel is suspended in next while p runs, so
	// the field is stable for p's whole turn.
	e.curProc = p.idx
	e.switches++
	p.next()
	e.curProc = noProc
}

// yield switches back to the kernel and returns once p is re-delivered.
func (p *Proc) yield() {
	p.suspend(struct{}{})
	if p.aborted {
		panic(procAbort{})
	}
}

// abort unwinds a process that can never be delivered again so its
// coroutine exits. Called by the kernel only, from finish: for stranded
// (blocked) procs, and after a failure for procs whose delivery died with
// the queue.
func (p *Proc) abort() {
	p.aborted = true
	p.e.curProc = p.idx
	p.next()
	p.e.curProc = noProc
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Rand returns the process's deterministic random stream.
func (p *Proc) Rand() *RNG { return &p.rng }

// Rec returns the engine's span recorder, nil when span tracing is off.
// Instrumentation sites call p.Rec().Emit(...) unconditionally (Emit is
// nil-safe) or guard extra work with p.Rec().Enabled().
func (p *Proc) Rec() *trace.Recorder { return p.e.rec }

// Sleep advances the process by d of virtual time. Negative d panics.
// Events already pending at the wake-up instant (including the current
// instant when d is zero) still run first.
//
// When the wake-up would be the next event to fire anyway — nothing is
// pending before it or at the same instant — the run fires it in place:
// the clock, sequence counter, event count, sampler, and watchdog advance
// exactly as if the kernel had popped it, and Sleep returns without a
// coroutine switch. Only Run's event loop enables this: processes
// unwinding in finish (aborted ones included) always yield.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q sleeping negative duration %v", p.name, d))
	}
	e := p.e
	at := e.now + d
	// Strictly before the queue head: an event pending at the same instant
	// carries a smaller seq and must fire first. A wake-up that would trip
	// the watchdog takes the switching path, so Run trips it as usual.
	if e.inPlace && e.pq.firstAt(at) && !e.overBudget(at) {
		e.seq++
		e.advance(at)
		return
	}
	e.scheduleDeliver(at, p.idx)
	p.yield()
}

// Block parks the calling process until another process calls Wake on it.
// It is the building block for external synchronization primitives
// (signals, resources, lock managers, key-value watches). A process that is
// never woken is reported as stranded by Run.
func (p *Proc) Block() {
	if cp := p.e.cp; cp != nil {
		cp.BeginWait(p.idx, p.e.now)
	}
	p.waiting = true
	p.yield()
	if cp := p.e.cp; cp != nil {
		cp.EndWait(p.idx, p.e.now)
	}
}

// Wake schedules delivery of a process parked in Block at the current
// virtual time. Calling Wake on a process that is not blocked (or waking it
// twice) is a programming error and will panic inside the kernel.
func (p *Proc) Wake() {
	if cp := p.e.cp; cp != nil {
		cp.Release(p.e.curProc, p.idx, p.e.now)
	}
	p.e.scheduleDeliver(p.e.now, p.idx)
}

// hash64 is FNV-1a, used to derive per-process RNG streams from names.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
