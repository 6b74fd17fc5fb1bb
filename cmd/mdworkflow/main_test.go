package main

import (
	"strings"
	"testing"
	"time"

	"repro"
)

// The -trace line format is fixed: time in seconds to 12.6f, the process
// name padded to 14 columns, then the event. Other spans are skipped, and
// the frame number counts each process's own frame events.
func TestFrameTimelineFormat(t *testing.T) {
	span := func(proc, name string, start time.Duration, bytes int64) repro.TraceSpan {
		return repro.TraceSpan{Proc: proc, Component: "workflow", Name: name, Start: start, Bytes: bytes}
	}
	res := &repro.Result{Spans: []repro.TraceSpan{
		span("producer000", "frame_produced", 818866*time.Microsecond, 659655),
		span("producer000", "md_compute", 900*time.Millisecond, 0),
		span("consumer000", "frame_consumed", 819671*time.Microsecond, 659655),
		span("producer000", "frame_produced", 1234567890*time.Nanosecond, 659655),
	}}
	got := string(frameTimeline([]*repro.Result{res}))
	want := "    0.818866 producer000    produced frame 0 (659655 bytes)\n" +
		"    0.819671 consumer000    consumed frame 0 (659655 bytes)\n" +
		"    1.234568 producer000    produced frame 1 (659655 bytes)\n"
	if got != want {
		t.Errorf("timeline:\n%s\nwant:\n%s", got, want)
	}
}

// The timeline of a repetition batch is each repetition's timeline in seed
// order, whatever the worker count.
func TestFrameTimelineIsWorkerCountIndependent(t *testing.T) {
	model, err := repro.ModelByName("JAC")
	if err != nil {
		t.Fatal(err)
	}
	cfg := repro.Config{Backend: repro.DYAD, Model: model, Pairs: 2, Frames: 4, Seed: 1, RecordSpans: true}
	timeline := func(results []*repro.Result) string { return string(frameTimeline(results)) }
	serial, err := repro.RepeatWorkers(cfg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := repro.RepeatWorkers(cfg, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	var concat string
	for _, res := range serial {
		concat += timeline([]*repro.Result{res})
	}
	if got := timeline(parallel); got != concat {
		t.Errorf("-j 3 timeline differs from the repetitions' timelines in seed order:\n%s\nwant:\n%s", got, concat)
	}
	if lines := strings.Count(concat, "\n"); lines != 3*2*2*4 {
		t.Errorf("timeline has %d lines, want %d", lines, 3*2*2*4)
	}
}
