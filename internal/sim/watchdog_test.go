package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// A process that re-schedules itself forever at the same instant is the
// canonical livelock: the queue never drains and virtual time never moves.
// The event watchdog must convert it into ErrWatchdog instead of spinning.
func TestWatchdogAbortsEventLivelock(t *testing.T) {
	e := NewEngine(1)
	e.SetWatchdog(10_000, 0)
	e.Spawn("livelock", func(p *Proc) {
		for {
			p.Sleep(0)
		}
	})
	err := e.Run()
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
}

// A retry loop that always re-arms a future timer livelocks in virtual time
// instead of event count. The time watchdog must catch it.
func TestWatchdogAbortsVirtualTimeRunaway(t *testing.T) {
	e := NewEngine(1)
	e.SetWatchdog(0, 50*time.Millisecond)
	e.Spawn("retry-forever", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	err := e.Run()
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	if e.Now() > 60*time.Millisecond {
		t.Fatalf("run advanced to %v, well past the %v limit", e.Now(), 50*time.Millisecond)
	}
}

// A watchdog abort strands well-behaved sleeping processes: their delivery
// events die with the queue. They must be unwound so no coroutines leak.
func TestWatchdogAbortLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e := NewEngine(uint64(i))
		e.SetWatchdog(1_000, 0)
		unwound := spawnSleepers(e, 8)
		e.Spawn("livelock", func(p *Proc) {
			for {
				p.Sleep(0)
			}
		})
		if err := e.Run(); !errors.Is(err, ErrWatchdog) {
			t.Fatalf("iteration %d: err = %v, want ErrWatchdog", i, err)
		}
		if *unwound != 8 {
			t.Fatalf("iteration %d: %d of 8 sleepers unwound", i, *unwound)
		}
	}
	expectNoLeakedProcs(t, before)
}

// Below its limits the watchdog must be invisible: same timeline, no error.
func TestWatchdogInertUnderLimits(t *testing.T) {
	run := func(armed bool) (Time, error) {
		e := NewEngine(7)
		if armed {
			e.SetWatchdog(1_000_000, time.Hour)
		}
		e.Spawn("worker", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(time.Millisecond)
			}
		})
		err := e.Run()
		return e.Now(), err
	}
	plainEnd, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	armedEnd, err := run(true)
	if err != nil {
		t.Fatalf("armed run failed: %v", err)
	}
	if plainEnd != armedEnd {
		t.Fatalf("armed watchdog changed the timeline: %v vs %v", armedEnd, plainEnd)
	}
}

func TestSetWatchdogRejectsNegativeLimits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative watchdog limit accepted")
		}
	}()
	NewEngine(1).SetWatchdog(-1, 0)
}
