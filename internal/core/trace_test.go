package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// frameSpans runs cfg with span recording on and returns its
// frame_produced and frame_consumed spans in emission order: the per-frame
// timeline cmd/mdworkflow -trace renders.
func frameSpans(t *testing.T, cfg Config) []trace.Span {
	t.Helper()
	cfg.RecordSpans = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Backend, err)
	}
	var out []trace.Span
	for _, s := range res.Spans {
		if s.Name == "frame_produced" || s.Name == "frame_consumed" {
			out = append(out, s)
		}
	}
	return out
}

// The frame spans must show, for every pair and frame, consumption
// strictly after production — the fundamental causality invariant of the
// data-movement study — on every backend.
func TestTraceOrderingInvariant(t *testing.T) {
	for _, b := range []Backend{DYAD, XFS, Lustre} {
		cfg := Config{Backend: b, Model: tinyModel(), Frames: 8, Pairs: 2, Seed: 7, SingleNode: b == XFS}
		spans := frameSpans(t, cfg)
		type key struct {
			pair  string
			frame int
		}
		produced := map[key]time.Duration{}
		next := map[string]int{} // proc -> ordinal of its next frame span
		for _, s := range spans {
			k := key{strings.TrimPrefix(strings.TrimPrefix(s.Proc, "producer"), "consumer"), next[s.Proc]}
			next[s.Proc]++
			if s.Name == "frame_produced" {
				produced[k] = s.Start
				continue
			}
			pt, ok := produced[k]
			if !ok {
				t.Fatalf("%s: frame %v consumed with no production event", b, k)
			}
			if s.Start <= pt {
				t.Fatalf("%s: frame %v consumed at %v, produced at %v", b, k, s.Start, pt)
			}
		}
		if want := 2 * cfg.Pairs * cfg.Frames; len(spans) != want {
			t.Fatalf("%s: %d frame spans, want %d", b, len(spans), want)
		}
	}
}

// Each frame span carries what the -trace timeline prints — the process
// name, the event kind and the frame's byte count — on every backend.
func TestTraceFormat(t *testing.T) {
	m := tinyModel()
	for _, b := range []Backend{DYAD, XFS, Lustre} {
		cfg := Config{Backend: b, Model: m, Frames: 1, Pairs: 1, Seed: 1, SingleNode: b == XFS}
		spans := frameSpans(t, cfg)
		if len(spans) != 2 {
			t.Fatalf("%s: %d frame spans, want 2: %+v", b, len(spans), spans)
		}
		for i, want := range []trace.Span{
			{Proc: "producer000", Component: "workflow", Name: "frame_produced", Bytes: m.FrameBytes(), Attr: pairPath(0, 0)},
			{Proc: "consumer000", Component: "workflow", Name: "frame_consumed", Bytes: m.FrameBytes()},
		} {
			got := spans[i]
			want.Start = got.Start
			if got != want {
				t.Errorf("%s: frame span %d = %+v, want %+v", b, i, got, want)
			}
		}
	}
}
