package trace

import (
	"fmt"
	"io"
	"strconv"
	"time"
)

// Run is one traced workflow run: a label (config + repetition), its span
// stream, and optional sampled counter tracks (utilization curves from
// internal/metrics). WriteChrome renders each run as one Chrome trace
// process.
type Run struct {
	Label    string
	Spans    []Span
	Counters []Counter
	// Flows are per-frame provenance arrows (internal/critpath lineages)
	// stitched across proc tracks; empty unless the run recorded a
	// dependency graph.
	Flows []Flow
}

// Flow is one Chrome flow event: the start (ph "s") or a step (ph "f",
// binding point "e") of a named arrow with a shared ID, anchored to a proc
// track at a virtual time.
type Flow struct {
	Name  string
	ID    int64
	Proc  string
	At    time.Duration
	Start bool
}

// Counter is one sampled counter track: a value per virtual sample time.
// Perfetto renders counter tracks as line charts under the span rows.
type Counter struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// WriteChrome serializes traced runs in the Chrome trace-event JSON format
// (the "JSON Object Format" with a traceEvents array), loadable in
// Perfetto and chrome://tracing. Each run becomes one process (pid = run
// index + 1) named by its label; each simulated proc becomes one thread
// (tid = order of first appearance). Spans are complete events (ph "X")
// with ts/dur in virtual microseconds at nanosecond resolution; zero-length
// spans become instant events (ph "i").
//
// The output is written with a fixed field order and fixed number
// formatting, so a deterministic span stream serializes to deterministic
// bytes — the property the -j1 vs -j8 trace identity check relies on. It is
// a thin loop over ChromeStream, so buffered and streamed exports of the
// same runs are byte-identical by construction.
func WriteChrome(w io.Writer, runs []Run) error {
	cs := NewChromeStream(w)
	for _, run := range runs {
		rec := cs.StartRun(run.Label)
		for _, s := range run.Spans {
			cs.span(rec, s)
		}
		for _, f := range run.Flows {
			cs.flow(rec, f)
		}
		cs.EndRun(rec, run.Counters)
	}
	return cs.Close()
}

// AppendMicros appends a virtual duration as microseconds at nanosecond
// resolution: an integer when whole, otherwise exactly three fractional
// digits. Fixed formatting keeps the serialized trace byte-stable. A
// negative non-whole duration keeps the historical "%d.%03d" rendering of
// its truncated quotient and remainder (both signed), so every exporter
// that shares this helper stays byte-identical for any input.
func AppendMicros(dst []byte, d time.Duration) []byte {
	ns := int64(d)
	rem := ns % 1000
	if rem == 0 {
		return strconv.AppendInt(dst, ns/1000, 10)
	}
	if ns < 0 {
		return fmt.Appendf(dst, "%d.%03d", ns/1000, rem)
	}
	dst = strconv.AppendInt(dst, ns/1000, 10)
	return append(dst, '.', byte('0'+rem/100), byte('0'+rem/10%10), byte('0'+rem%10))
}

// appendQuote appends s as a quoted string literal, exactly as
// strconv.Quote renders it. Names and labels are printable-ASCII
// identifiers without quotes or backslashes, for which Quote adds only the
// surrounding quotes; anything else (escapes, control bytes, non-ASCII,
// invalid UTF-8) goes through strconv.AppendQuote.
func appendQuote(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
