package trace

import (
	"bufio"
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
// bytes — the property the -j1 vs -j8 trace identity check relies on.
func WriteChrome(w io.Writer, runs []Run) error {
	e := &chromeEncoder{bw: bufio.NewWriter(w), first: true, tids: make(map[string]int)}
	e.bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i, run := range runs {
		e.startRun(i+1, run.Label)
		for _, s := range run.Spans {
			e.span(s)
		}
		for _, f := range run.Flows {
			e.flow(f)
		}
		e.counters(run.Counters)
	}
	e.bw.WriteString("\n]}\n")
	return e.bw.Flush()
}

// chromeEncoder writes the event lines of one Chrome trace document. Each
// line is encoded with strconv.Append* into one scratch buffer the encoder
// owns, then copied into the bufio.Writer, so once every proc of a run has
// its tid an event costs no allocation.
type chromeEncoder struct {
	bw    *bufio.Writer
	buf   []byte         // scratch for the event line being encoded
	first bool           // no event line emitted yet (comma placement)
	pid   int            // current run's process id
	tids  map[string]int // current run's proc -> tid, in first-appearance order
}

// event starts one event line in the scratch buffer with the document's
// comma discipline: prefix (the opening brace through `"pid":`), the pid,
// then the tid field.
func (e *chromeEncoder) event(prefix string, tid int) []byte {
	b := e.buf[:0]
	if !e.first {
		b = append(b, ",\n"...)
	}
	e.first = false
	b = append(b, prefix...)
	b = strconv.AppendInt(b, int64(e.pid), 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// emit writes the finished event line and keeps its (possibly grown)
// storage as the next line's scratch.
func (e *chromeEncoder) emit(b []byte) {
	e.bw.Write(b)
	e.buf = b
}

// metadata emits a process_name (tid 0) or thread_name event.
func (e *chromeEncoder) metadata(tid int, kind, name string) {
	b := e.event(`{"ph":"M","pid":`, tid)
	b = append(append(b, `,"name":"`...), kind...)
	b = appendQuote(append(b, `","args":{"name":`...), name)
	e.emit(append(b, "}}"...))
}

// startRun opens run pid as a Chrome process named by label, with an empty
// thread table.
func (e *chromeEncoder) startRun(pid int, label string) {
	e.pid = pid
	clear(e.tids)
	e.metadata(0, "process_name", label)
}

// tid returns proc's thread id in the current run, emitting its
// thread-name metadata on first appearance (tid = order of first
// appearance).
func (e *chromeEncoder) tid(proc string) int {
	tid, ok := e.tids[proc]
	if !ok {
		tid = len(e.tids) + 1
		e.tids[proc] = tid
		e.metadata(tid, "thread_name", proc)
	}
	return tid
}

// span serializes one span. The cat field is quoted from its two parts:
// strconv.Quote escapes rune by rune and the class part starts with an
// ASCII comma, so quoting the component and appending ",class" inside the
// closing quote equals quoting the concatenation.
func (e *chromeEncoder) span(s Span) {
	tid := e.tid(s.Proc)
	prefix := `{"ph":"X","pid":`
	if s.Dur == 0 {
		prefix = `{"ph":"i","pid":`
	}
	b := e.event(prefix, tid)
	b = AppendMicros(append(b, `,"ts":`...), s.Start)
	if s.Dur == 0 {
		b = append(b, `,"s":"t"`...)
	} else {
		b = AppendMicros(append(b, `,"dur":`...), s.Dur)
	}
	b = appendQuote(append(b, `,"name":`...), s.Name)
	b = appendQuote(append(b, `,"cat":`...), s.Component)
	b = append(b[:len(b)-1], ',')
	b = append(append(b, s.Class.String()...), '"')
	if s.Bytes != 0 || s.Attr != "" {
		b = append(b, `,"args":{`...)
		if s.Bytes != 0 {
			b = strconv.AppendInt(append(b, `"bytes":`...), s.Bytes, 10)
		}
		if s.Attr != "" {
			if s.Bytes != 0 {
				b = append(b, ',')
			}
			b = appendQuote(append(b, `"attr":`...), s.Attr)
		}
		b = append(b, '}')
	}
	e.emit(append(b, '}'))
}

// flow serializes one flow event, reusing the run's thread table (a flow
// anchored to a proc that never emitted a span still gets its thread-name
// metadata first, exactly like span does).
func (e *chromeEncoder) flow(f Flow) {
	tid := e.tid(f.Proc)
	prefix := `{"ph":"f","bp":"e","pid":`
	if f.Start {
		prefix = `{"ph":"s","pid":`
	}
	b := e.event(prefix, tid)
	b = AppendMicros(append(b, `,"ts":`...), f.At)
	b = strconv.AppendInt(append(b, `,"id":`...), f.ID, 10)
	b = appendQuote(append(b, `,"name":`...), f.Name)
	e.emit(append(b, `,"cat":"provenance"}`...))
}

// counters serializes the current run's sampled counter tracks.
func (e *chromeEncoder) counters(counters []Counter) {
	for _, c := range counters {
		for i, t := range c.Times {
			b := e.event(`{"ph":"C","pid":`, 0)
			b = AppendMicros(append(b, `,"ts":`...), t)
			b = appendQuote(append(b, `,"name":`...), c.Name)
			b = strconv.AppendFloat(append(b, `,"args":{"value":`...), c.Values[i], 'g', -1, 64)
			e.emit(append(b, "}}"...))
		}
	}
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
