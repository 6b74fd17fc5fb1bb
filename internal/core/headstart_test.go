package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/models"
	"repro/internal/trace"
)

func headstartConfig(b Backend, head time.Duration) Config {
	jac, err := models.ByName("JAC")
	if err != nil {
		panic(err)
	}
	return Config{
		Backend: b, Model: jac, Pairs: 2, Frames: 8, SingleNode: true,
		Seed: 7, ConsumerHeadStart: head,
	}
}

// A DYAD consumer's first touch blocks on the producer's first commit. With
// a producer head start the consumer arrives later but unblocks at the same
// instant, so the head start must come out of the idle column exactly —
// one-for-one — while movement, the producer, and the makespan stay
// byte-identical. This pins the §IV-C breakdown consistency the knob
// promises: job-launch delay is not measured time.
func TestConsumerHeadStartShrinksDYADIdleExactly(t *testing.T) {
	const head = 300 * time.Millisecond
	base, err := Run(headstartConfig(DYAD, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(headstartConfig(DYAD, head))
	if err != nil {
		t.Fatal(err)
	}
	if d := base.Consumer.Idle - got.Consumer.Idle; d != head {
		t.Errorf("consumer idle shrank by %v, want exactly %v", d, head)
	}
	if base.Consumer.Movement != got.Consumer.Movement {
		t.Errorf("consumer movement changed: %v -> %v", base.Consumer.Movement, got.Consumer.Movement)
	}
	if base.Producer != got.Producer {
		t.Errorf("producer decomposition changed: %v -> %v", base.Producer, got.Producer)
	}
	if base.Makespan != got.Makespan {
		t.Errorf("makespan changed: %v -> %v", base.Makespan, got.Makespan)
	}
}

// Under the coarse-grained backends the head start shifts the whole
// serialized pipeline: every measured total is unchanged and only the
// makespan grows by the delay.
func TestConsumerHeadStartShiftsCoarsePipeline(t *testing.T) {
	const head = 250 * time.Millisecond
	base, err := Run(headstartConfig(XFS, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(headstartConfig(XFS, head))
	if err != nil {
		t.Fatal(err)
	}
	if base.Producer != got.Producer || base.Consumer != got.Consumer {
		t.Errorf("coarse totals changed: prod %v -> %v, cons %v -> %v",
			base.Producer, got.Producer, base.Consumer, got.Consumer)
	}
	if d := got.Makespan - base.Makespan; d != head {
		t.Errorf("makespan grew by %v, want exactly %v", d, head)
	}
}

// The delay must be visible only as a detail span (job_start_delay), never
// as a caliper region: the movement/idle split sums caliper regions, so a
// leaked region would corrupt the breakdown columns.
func TestConsumerHeadStartIsDetailSpanOnly(t *testing.T) {
	cfg := headstartConfig(DYAD, 100*time.Millisecond)
	cfg.RecordSpans = true
	cfg.KeepProfiles = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	delays := 0
	for _, sp := range res.Spans {
		if sp.Name == "job_start_delay" {
			if sp.Class != trace.ClassDetail {
				t.Errorf("job_start_delay class = %v, want detail", sp.Class)
			}
			delays++
		}
	}
	if delays != cfg.Pairs {
		t.Errorf("job_start_delay spans = %d, want %d (one per consumer)", delays, cfg.Pairs)
	}
	for _, prof := range res.ConsumerProfiles {
		if d := prof.TotalOf("job_start_delay"); d != 0 {
			t.Errorf("job_start_delay leaked into a caliper region: %v", d)
		}
	}

	// Zero head start emits nothing.
	cfg = headstartConfig(DYAD, 0)
	cfg.RecordSpans = true
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range res.Spans {
		if sp.Name == "job_start_delay" {
			t.Fatal("job_start_delay span emitted with head start off")
		}
	}
}

func TestConsumerHeadStartValidation(t *testing.T) {
	cfg := headstartConfig(DYAD, -time.Millisecond)
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative ConsumerHeadStart validated")
	}
}

// SpecTune must change the hardware the run sees, and a serial batch that
// alternates tuned and untuned configs must match standalone runs: a tuned
// run never inherits an untuned cluster (or vice versa).
func TestSpecTunePooledBatchMatchesStandalone(t *testing.T) {
	slowRead := func(sp *cluster.Spec) {
		if err := sp.SetParam(cluster.ParamSSDReadLat, 600e-6); err != nil {
			panic(err)
		}
	}
	tuned := headstartConfig(XFS, 0)
	tuned.SpecTune = slowRead
	untuned := headstartConfig(XFS, 0)

	wantTuned, err := Run(tuned)
	if err != nil {
		t.Fatal(err)
	}
	wantUntuned, err := Run(untuned)
	if err != nil {
		t.Fatal(err)
	}
	if wantTuned.Consumer == wantUntuned.Consumer {
		t.Fatal("SpecTune had no observable effect")
	}

	batch, err := RunMany([]Config{tuned, untuned, tuned, untuned}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range batch {
		want := wantUntuned
		if i%2 == 0 {
			want = wantTuned
		}
		if res.Consumer != want.Consumer || res.Producer != want.Producer || res.Makespan != want.Makespan {
			t.Errorf("batch run %d drifted from standalone result", i)
		}
	}
}
