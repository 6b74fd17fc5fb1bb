package trace

import (
	"bufio"
	"io"
	"strconv"
)

// ChromeStream is the incremental Chrome trace-event writer: the streaming
// counterpart of WriteChrome for runs too large to retain their span vector
// in memory. The document is written front to back — header at creation,
// one process block per StartRun, spans as they are emitted, footer at
// Close — so writer memory stays O(buffer), independent of run length.
//
// WriteChrome is itself built on ChromeStream, so the streamed bytes of a
// run are identical to the buffered export of the same span sequence by
// construction — the property verify.sh's streaming gate checks end to end.
//
// Each event line is encoded with strconv.Append* into one scratch buffer
// the stream owns, then copied into the bufio.Writer, so once every proc
// has its tid an event costs no allocation.
//
// A stream serializes one run at a time: StartRun opens the next Chrome
// process and returns a streaming Recorder bound to it; the caller must
// finish emitting through that recorder (and call EndRun) before starting
// the next run. Concurrently executing traced runs must not share a stream.
type ChromeStream struct {
	bw    *bufio.Writer
	buf   []byte // scratch for the event line being encoded
	first bool   // no event line emitted yet (comma placement)
	runs  int    // runs started; pid = run index + 1, as in WriteChrome
}

// NewChromeStream starts a Chrome trace-event JSON document on w.
func NewChromeStream(w io.Writer) *ChromeStream {
	cs := &ChromeStream{bw: bufio.NewWriter(w), first: true}
	cs.bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	return cs
}

// event starts one event line in the scratch buffer with the document's
// comma discipline: prefix (the opening brace through `"pid":`), the pid,
// then the tid field.
func (cs *ChromeStream) event(prefix string, pid, tid int) []byte {
	b := cs.buf[:0]
	if !cs.first {
		b = append(b, ",\n"...)
	}
	cs.first = false
	b = append(b, prefix...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// emit writes the finished event line and keeps its (possibly grown)
// storage as the next line's scratch.
func (cs *ChromeStream) emit(b []byte) {
	cs.bw.Write(b)
	cs.buf = b
}

// metadata emits a process_name (tid 0) or thread_name event.
func (cs *ChromeStream) metadata(pid, tid int, kind, name string) {
	b := cs.event(`{"ph":"M","pid":`, pid, tid)
	b = append(append(b, `,"name":"`...), kind...)
	b = appendQuote(append(b, `","args":{"name":`...), name)
	cs.emit(append(b, "}}"...))
}

// StartRun opens the next run as a Chrome process named by label and
// returns a streaming recorder for it: every span emitted through the
// recorder is serialized immediately instead of retained, and per-operation
// statistics (Recorder.Stats) are folded incrementally.
func (cs *ChromeStream) StartRun(label string) *Recorder {
	cs.runs++
	cs.metadata(cs.runs, 0, "process_name", label)
	return &Recorder{stream: cs, pid: cs.runs, tids: make(map[string]int)}
}

// tid returns proc's thread id in rec's run, emitting its thread-name
// metadata on first appearance (tid = order of first appearance).
func (cs *ChromeStream) tid(rec *Recorder, proc string) int {
	tid, ok := rec.tids[proc]
	if !ok {
		tid = len(rec.tids) + 1
		rec.tids[proc] = tid
		cs.metadata(rec.pid, tid, "thread_name", proc)
	}
	return tid
}

// span serializes one span of rec's run — the exact event sequence
// WriteChrome produces for a buffered run. The cat field is quoted from its
// two parts: strconv.Quote escapes rune by rune and the class part starts
// with an ASCII comma, so quoting the component and appending ",class"
// inside the closing quote equals quoting the concatenation.
func (cs *ChromeStream) span(rec *Recorder, s Span) {
	tid := cs.tid(rec, s.Proc)
	prefix := `{"ph":"X","pid":`
	if s.Dur == 0 {
		prefix = `{"ph":"i","pid":`
	}
	b := cs.event(prefix, rec.pid, tid)
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
	cs.emit(append(b, '}'))
}

// flow serializes one flow event of rec's run, reusing the run's thread
// table (a flow anchored to a proc that never emitted a span still gets
// its thread-name metadata first, exactly like span does).
func (cs *ChromeStream) flow(rec *Recorder, f Flow) {
	tid := cs.tid(rec, f.Proc)
	prefix := `{"ph":"f","bp":"e","pid":`
	if f.Start {
		prefix = `{"ph":"s","pid":`
	}
	b := cs.event(prefix, rec.pid, tid)
	b = AppendMicros(append(b, `,"ts":`...), f.At)
	b = strconv.AppendInt(append(b, `,"id":`...), f.ID, 10)
	b = appendQuote(append(b, `,"name":`...), f.Name)
	cs.emit(append(b, `,"cat":"provenance"}`...))
}

// EndRun closes rec's run, emitting its sampled counter tracks (nil for
// none). Runs aborted before EndRun leave a valid document — their partial
// span stream shows the timeline up to the failure.
func (cs *ChromeStream) EndRun(rec *Recorder, counters []Counter) {
	for _, c := range counters {
		for i, t := range c.Times {
			b := cs.event(`{"ph":"C","pid":`, rec.pid, 0)
			b = AppendMicros(append(b, `,"ts":`...), t)
			b = appendQuote(append(b, `,"name":`...), c.Name)
			b = strconv.AppendFloat(append(b, `,"args":{"value":`...), c.Values[i], 'g', -1, 64)
			cs.emit(append(b, "}}"...))
		}
	}
}

// Close terminates the JSON document and flushes the buffer. The stream
// must not be used afterwards.
func (cs *ChromeStream) Close() error {
	cs.bw.WriteString("\n]}\n")
	return cs.bw.Flush()
}
