package repro

import (
	"io"
	"testing"

	"repro/internal/experiments"
)

// Each benchmark regenerates one paper artifact end to end (reduced sweep:
// Quick options shrink frames/reps so a -bench run stays minutes-scale;
// cmd/experiments runs the full paper-faithful sweeps). The reported
// ns/op is the wall time to reproduce the artifact once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	opts := experiments.Options{Quick: true, Reps: 2, Frames: 24}
	for i := 0; i < b.N; i++ {
		exp, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := exp.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		rep.Render(io.Discard)
	}
}

// BenchmarkTable1 regenerates Table I (molecular model characteristics).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table II (strides and frequencies).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig5 regenerates Figure 5 (single-node DYAD vs XFS, JAC).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (two-node DYAD vs Lustre, JAC).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (multi-node ensemble scaling).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (molecular model size scaling).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (Thicket call-tree analysis, DYAD).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (Thicket call-tree analysis, Lustre).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (frequency scaling, JAC).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (frequency scaling, STMV).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkAblation regenerates the extension ablation study (per-DYAD-
// mechanism contribution).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkWorkflowDYAD measures one raw DYAD workflow run (8 pairs, JAC)
// — the simulator's own throughput, useful when tuning the kernel.
func BenchmarkWorkflowDYAD(b *testing.B) {
	b.ReportAllocs()
	jac, err := ModelByName("JAC")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Backend: DYAD, Model: jac, Pairs: 8, Frames: 32, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkflowLustre measures one raw Lustre workflow run.
func BenchmarkWorkflowLustre(b *testing.B) {
	b.ReportAllocs()
	jac, err := ModelByName("JAC")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Backend: Lustre, Model: jac, Pairs: 8, Frames: 32, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkflowLargePairs measures a fleet-scale DYAD run: 1024
// producer-consumer pairs (2048 processes, 256 compute nodes), which keeps
// a few thousand events pending in the kernel's heap. It is the end-to-end
// view of the deepest queue any workload reaches; BenchmarkScaleEvents
// measures the heap alone at that depth and beyond.
func BenchmarkWorkflowLargePairs(b *testing.B) {
	b.ReportAllocs()
	jac, err := ModelByName("JAC")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Backend: DYAD, Model: jac, Pairs: 1024, Frames: 2, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepeatPooled measures RunMany over 8 repetitions on one worker —
// the pooled-reuse hot path: after the first repetition, engine, cluster,
// and event-queue state recycle across reps instead of being rebuilt.
func BenchmarkRepeatPooled(b *testing.B) {
	b.ReportAllocs()
	jac, err := ModelByName("JAC")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Backend: DYAD, Model: jac, Pairs: 8, Frames: 16, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := RepeatWorkers(cfg, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}
