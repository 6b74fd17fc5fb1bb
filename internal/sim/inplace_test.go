package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// diffRun is everything a run exposes that the in-place sleep path must
// leave untouched.
type diffRun struct {
	resumes  []string // "proc@now" after every blocking call returns, "cb@now" per callback
	samples  []string // "boundary busy..." per sampler call
	events   int64
	now      Time
	seq      int64 // schedule counter: later events keep their tie-break ranks
	err      string
	switches int64
}

// diffWorkload runs one randomized workload shaped by seed. forceSwitch
// selects the schedule-and-yield reference path for every sleep. The
// workload mixes zero, tied, and distinct sleeps, shared resources, signal
// wait/broadcast, After callbacks, mid-run spawns (from processes and from
// callbacks), a sampler, and watchdog limits that may trip mid-run.
func diffWorkload(seed uint64, forceSwitch bool) diffRun {
	var out diffRun
	g := NewRNG(seed)
	e := NewEngine(seed)
	e.forceSwitch = forceSwitch

	res := make([]*Resource, 1+g.Intn(3))
	for i := range res {
		res[i] = NewResource(e, fmt.Sprintf("r%d", i), 1+g.Intn(2))
	}
	var sig Signal

	every := Time(1+g.Intn(7)) * time.Microsecond
	e.SetSampler(every, func(t Time) {
		s := fmt.Sprintf("%v now=%v", t, e.Now())
		for _, r := range res {
			s += fmt.Sprintf(" %d", r.BusyUnitNanos())
		}
		out.samples = append(out.samples, s)
	})
	switch g.Intn(3) {
	case 1:
		e.SetWatchdog(int64(20+g.Intn(400)), 0)
	case 2:
		e.SetWatchdog(0, Time(5+g.Intn(60))*time.Microsecond)
	}

	resumed := func(p *Proc) {
		out.resumes = append(out.resumes, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
	}
	sleepFor := func(p *Proc) Time {
		switch p.Rand().Intn(4) {
		case 0:
			return 0
		case 1, 2:
			// Tied: a handful of round durations, so wake-ups collide.
			return Time(1+p.Rand().Intn(3)) * time.Microsecond
		default:
			return Time(1 + p.Rand().Intn(5000)) // distinct, in ns
		}
	}
	child := func(p *Proc) {
		for i, n := 0, 1+p.Rand().Intn(6); i < n; i++ {
			p.Sleep(sleepFor(p))
			resumed(p)
		}
	}

	workers := 2 + g.Intn(8)
	finished := 0
	for w := 0; w < workers; w++ {
		e.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
			defer func() { finished++ }()
			for i, n := 0, 5+p.Rand().Intn(30); i < n; i++ {
				switch p.Rand().Intn(8) {
				case 0, 1, 2:
					p.Sleep(sleepFor(p))
				case 3:
					res[p.Rand().Intn(len(res))].Use(p, sleepFor(p))
				case 4:
					sig.Wait(p)
				case 5:
					id := fmt.Sprintf("%s.cb%d", p.Name(), i)
					p.Engine().After(sleepFor(p), func() {
						out.resumes = append(out.resumes, fmt.Sprintf("%s@%v", id, e.Now()))
						if len(out.resumes)%2 == 0 {
							e.Spawn(id+".child", child)
						}
					})
				case 6:
					p.Engine().Spawn(fmt.Sprintf("%s.c%d", p.Name(), i), child)
				default:
					sig.Broadcast()
				}
				resumed(p)
			}
		})
	}
	// The broadcaster keeps waking waiters until every worker is done, so
	// no worker strands on the signal.
	e.Spawn("bcast", func(p *Proc) {
		for finished < workers {
			p.Sleep(sleepFor(p) + time.Microsecond)
			sig.Broadcast()
			resumed(p)
		}
	})

	if err := e.Run(); err != nil {
		out.err = err.Error()
	}
	out.events, out.now, out.seq, out.switches = e.Events(), e.Now(), e.seq, e.Switches()
	return out
}

// The in-place sleep path must be observationally identical to the
// schedule-and-yield path it replaces: the same process resumes at the same
// virtual times in the same order, the same sampler boundaries see the same
// state, the same event count, final clock, and schedule counter, and the
// same error (watchdog trips included). Only the number of coroutine
// switches may differ, and only downward.
func TestInPlaceSleepMatchesSwitchingPath(t *testing.T) {
	const seeds = 300
	var elided, tripped int64
	for seed := uint64(1); seed <= seeds; seed++ {
		got := diffWorkload(seed, false)
		want := diffWorkload(seed, true)
		if !reflect.DeepEqual(got.resumes, want.resumes) {
			t.Fatalf("seed %d: resume log diverged\n got  %v\n want %v", seed, got.resumes, want.resumes)
		}
		if !reflect.DeepEqual(got.samples, want.samples) {
			t.Fatalf("seed %d: sampler diverged\n got  %v\n want %v", seed, got.samples, want.samples)
		}
		if got.events != want.events || got.now != want.now || got.seq != want.seq || got.err != want.err {
			t.Fatalf("seed %d: end state diverged: got events=%d now=%v seq=%d err=%q, want events=%d now=%v seq=%d err=%q",
				seed, got.events, got.now, got.seq, got.err, want.events, want.now, want.seq, want.err)
		}
		if got.switches > want.switches {
			t.Fatalf("seed %d: in-place path switched more (%d) than the reference (%d)", seed, got.switches, want.switches)
		}
		elided += want.switches - got.switches
		if want.err != "" {
			tripped++
		}
	}
	// The comparison is only meaningful if both features were exercised.
	if elided == 0 {
		t.Fatal("no sleep completed in place across the seeds")
	}
	if tripped == 0 {
		t.Fatal("no watchdog tripped across the seeds")
	}
}

// Switches counts exactly the sleeps that could not complete in place. A
// lone sleeper's wake-up is always the next event, so after its start-up
// delivery it never switches (unless forced); spawnInterleaved's two
// sleepers (BenchmarkSleepSwitch, the zero-alloc test) must switch on
// every sleep. The event count is the same either way. The deep row keeps
// 2048 long sleeps pending under the lone sleeper: firstAt compares
// against the exact head however deep the queue is, so the lone sleeper
// still never switches, and each long sleeper switches only at its
// start-up and its one wake-up.
func TestSleepSwitchCounts(t *testing.T) {
	lone := func(e *Engine) {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	deep := func(e *Engine) {
		for i := 0; i < 2048; i++ {
			e.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) {
				p.Sleep(time.Second + time.Duration(i))
			})
		}
		lone(e)
	}
	for _, tc := range []struct {
		name             string
		spawn            func(e *Engine)
		force            bool
		events, switches int64
	}{
		{"lone", lone, false, 101, 1},
		{"lone/forced", lone, true, 101, 101},
		// 2 start-ups, 2 phase offsets, 200 sleeps.
		{"interleaved", func(e *Engine) { spawnInterleaved(e, 100) }, false, 204, 204},
		// 2049 start-ups, 2048 long sleeps, 100 short ones.
		{"deep", deep, false, 4197, 4097},
	} {
		e := NewEngine(1)
		e.forceSwitch = tc.force
		tc.spawn(e)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.Events() != tc.events || e.Switches() != tc.switches {
			t.Errorf("%s: events=%d switches=%d, want %d and %d",
				tc.name, e.Events(), e.Switches(), tc.events, tc.switches)
		}
	}
}
