package core

import "testing"

// With every observation layer off — no spans, no metrics, no
// critical-path recorder — a workflow run allocates a fixed number of
// objects. The ceilings are the measured counts for these exact configs
// (2 pairs x 16 frames), so a hook whose arguments are built even when no
// recorder is installed fails here: the per-frame Sprintf and path
// canonicalization that once leaked into recorder-off runs cost 256
// (DYAD) and 448 (XFS) extra allocations on these runs, and the text
// tracer's two per-frame calls cost 64 more on each backend. The Lustre run
// keeps its background noise processes on, as the paper's Lustre runs do.
// A change that legitimately moves a count must move its line.
func TestObservationOffRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	for _, tc := range []struct {
		backend Backend
		max     float64
	}{
		{DYAD, 1806},
		{XFS, 505},
		{Lustre, 1017},
	} {
		cfg := Config{Backend: tc.backend, Model: tinyModel(), Frames: 16, Pairs: 2,
			SingleNode: tc.backend == XFS, LustreNoise: tc.backend == Lustre, Seed: 1}
		got := testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%v: observation-off run allocates %.0f objects, budget %.0f", tc.backend, got, tc.max)
		}
	}
}
