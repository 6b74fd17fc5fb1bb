package core

import "testing"

// Result.Events and Result.Switches report the simulator's own work. The
// event counts are pinned to the kernel that switched coroutines on every
// sleep: completing sleeps in place must not change how many events a run
// fires, only how many of them cost a switch.
func TestResultSelfMetrics(t *testing.T) {
	for _, tc := range []struct {
		cfg    Config
		events int64
	}{
		{Config{Backend: DYAD, Model: tinyModel(), Frames: 6, Pairs: 2, SingleNode: true, Seed: 7}, 248},
		// One XFS pair: two symmetric pairs wake at tied instants, so every
		// one of their sleeps switches.
		{Config{Backend: XFS, Model: tinyModel(), Frames: 6, Pairs: 1, SingleNode: true, Seed: 7}, 80},
		{Config{Backend: Lustre, Model: tinyModel(), Frames: 6, Pairs: 2, LustreNoise: true, Seed: 7}, 714},
	} {
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := tc.cfg.Label()
		if res.Events != tc.events {
			t.Errorf("%s: Events = %d, want %d", label, res.Events, tc.events)
		}
		if res.Switches <= 0 || res.Switches >= res.Events {
			t.Errorf("%s: Switches = %d, want in (0, Events=%d)", label, res.Switches, res.Events)
		}
	}
}
