package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// oracleUS is the fmt-based microsecond formatter the append encoders
// replaced, kept as the reference AppendMicros must reproduce.
func oracleUS(d time.Duration) string {
	ns := int64(d)
	if ns%1000 == 0 {
		return strconv.FormatInt(ns/1000, 10)
	}
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// oracleChrome renders runs with the Sprintf/strconv.Quote event
// formatting the append encoders replaced: the reference document
// WriteChrome must reproduce byte for byte.
func oracleChrome(runs []Run) string {
	q := strconv.Quote
	var b strings.Builder
	b.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for ri, run := range runs {
		pid := ri + 1
		emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":%s}}", pid, q(run.Label)))
		tids := map[string]int{}
		tidOf := func(proc string) int {
			tid, ok := tids[proc]
			if !ok {
				tid = len(tids) + 1
				tids[proc] = tid
				emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}", pid, tid, q(proc)))
			}
			return tid
		}
		for _, s := range run.Spans {
			tid := tidOf(s.Proc)
			args := ""
			if s.Bytes != 0 {
				args = fmt.Sprintf(",\"args\":{\"bytes\":%d}", s.Bytes)
			}
			if s.Attr != "" {
				if args == "" {
					args = fmt.Sprintf(",\"args\":{\"attr\":%s}", q(s.Attr))
				} else {
					args = fmt.Sprintf(",\"args\":{\"bytes\":%d,\"attr\":%s}", s.Bytes, q(s.Attr))
				}
			}
			cat := q(s.Component + "," + s.Class.String())
			if s.Dur == 0 {
				emit(fmt.Sprintf("{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":%s,\"cat\":%s%s}",
					pid, tid, oracleUS(s.Start), q(s.Name), cat, args))
				continue
			}
			emit(fmt.Sprintf("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s,\"cat\":%s%s}",
				pid, tid, oracleUS(s.Start), oracleUS(s.Dur), q(s.Name), cat, args))
		}
		for _, f := range run.Flows {
			tid := tidOf(f.Proc)
			if f.Start {
				emit(fmt.Sprintf("{\"ph\":\"s\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"id\":%d,\"name\":%s,\"cat\":\"provenance\"}",
					pid, tid, oracleUS(f.At), f.ID, q(f.Name)))
				continue
			}
			emit(fmt.Sprintf("{\"ph\":\"f\",\"bp\":\"e\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"id\":%d,\"name\":%s,\"cat\":\"provenance\"}",
				pid, tid, oracleUS(f.At), f.ID, q(f.Name)))
		}
		for _, c := range run.Counters {
			for i, t := range c.Times {
				emit(fmt.Sprintf("{\"ph\":\"C\",\"pid\":%d,\"tid\":0,\"ts\":%s,\"name\":%s,\"args\":{\"value\":%s}}",
					pid, oracleUS(t), q(c.Name), strconv.FormatFloat(c.Values[i], 'g', -1, 64)))
			}
		}
	}
	b.WriteString("\n]}\n")
	return b.String()
}

// fuzzRuns builds a two-run document from one fuzzed input covering every
// event kind: X and i spans under every Bytes/Attr combination, thread
// metadata for three procs, a flow start and step, and two counter samples
// (the value and its negation), plus an empty run's process metadata.
func fuzzRuns(label, proc, comp, name, attr string, class uint8, start, dur, nbytes, id int64, valueBits uint64) []Run {
	base := Span{Proc: proc, Component: comp, Name: name, Class: Class(class),
		Start: time.Duration(start), Dur: time.Duration(dur), Bytes: nbytes, Attr: attr}
	var spans []Span
	for _, d := range []time.Duration{base.Dur, 0} {
		for _, by := range []int64{0, base.Bytes} {
			for _, a := range []string{"", base.Attr} {
				s := base
				s.Dur, s.Bytes, s.Attr = d, by, a
				spans = append(spans, s)
			}
		}
	}
	spans = append(spans, Span{Proc: name, Component: attr, Name: comp, Class: Class(class + 1), Start: time.Duration(dur), Dur: time.Duration(start)})
	v := math.Float64frombits(valueBits)
	return []Run{
		{
			Label: label,
			Spans: spans,
			Flows: []Flow{
				{Name: name, ID: id, Proc: proc, At: time.Duration(start), Start: true},
				{Name: name, ID: id, Proc: attr, At: time.Duration(dur)},
			},
			Counters: []Counter{{Name: comp, Times: []time.Duration{time.Duration(start), time.Duration(dur)}, Values: []float64{v, -v}}},
		},
		{Label: proc},
	}
}

// firstDiff reports the first differing line of two documents.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}

// The append encoders must be a byte-identical replacement for the
// Sprintf/strconv.Quote formatting: every event kind, for any string
// (quotes, backslashes, control bytes, invalid UTF-8, non-ASCII), any
// duration (negative, whole-µs, sub-µs), any counter value (NaN, ±Inf,
// -0, subnormals), and any Class. The seeds below and the committed corpus
// under testdata/fuzz run on every go test; go test -fuzz explores further.
func FuzzChromeEncoding(f *testing.F) {
	type seed struct {
		label, proc, comp, name, attr string
		class                         uint8
		start, dur, nbytes, id        int64
		bits                          uint64
	}
	seeds := []seed{
		{"DYAD rep 0", "producer000", "ssd", "write", "node0/ssd", 0, 1500, 2000, 4096, 1, math.Float64bits(0.5)},
		{"run \"B\"", "consumer\\0", "lustre", "ost_rpc", "a\tb\nc", 1, -1500, -2000, -1, -7, math.Float64bits(math.NaN())},
		{"\x00\x1f\x7f", "\xff\xfe", "\xe2\x82", "é", "日本", 2, -500, 999, math.MaxInt64, math.MinInt64, math.Float64bits(math.Inf(1))},
		{"", "", "", "", "", 3, 0, 1, 0, 0, math.Float64bits(math.Copysign(0, -1))},
		{"x", "p", "kvs", "commit", "", 4, math.MinInt64, math.MaxInt64, 16, 2, 1},
		{"y", "p", "cap", "stall", "", 5, 123456789, 1000, 0, 3, math.Float64bits(math.Inf(-1))},
		{"z", "p", "c", "n", "", 200, 999, -1000, 0, 4, math.Float64bits(5e-324)},
	}
	for _, s := range seeds {
		f.Add(s.label, s.proc, s.comp, s.name, s.attr, s.class, s.start, s.dur, s.nbytes, s.id, s.bits)
	}
	f.Fuzz(func(t *testing.T, label, proc, comp, name, attr string, class uint8, start, dur, nbytes, id int64, bits uint64) {
		for _, d := range []int64{start, dur} {
			if got, want := string(AppendMicros(nil, time.Duration(d))), oracleUS(time.Duration(d)); got != want {
				t.Fatalf("AppendMicros(%d) = %q, want %q", d, got, want)
			}
		}
		runs := fuzzRuns(label, proc, comp, name, attr, class, start, dur, nbytes, id, bits)
		var got bytes.Buffer
		if err := WriteChrome(&got, runs); err != nil {
			t.Fatal(err)
		}
		if want := oracleChrome(runs); got.String() != want {
			t.Fatalf("WriteChrome diverged from the reference formatting at %s", firstDiff(got.String(), want))
		}
	})
}

// synthSpans builds a deterministic span stream exercising every serializer
// branch: whole and fractional timestamps, zero-duration instants, bytes,
// attributes, classes, and multiple procs.
func synthSpans(n int) []Span {
	procs := []string{"producer000", "consumer000", "broker"}
	spans := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		s := Span{
			Proc:      procs[i%len(procs)],
			Component: "ssd",
			Name:      "write",
			Class:     Class(i % 5),
			Start:     time.Duration(i) * 123456 * time.Nanosecond,
			Dur:       time.Duration(i%7) * 1500 * time.Nanosecond,
		}
		if i%3 == 0 {
			s.Bytes = int64(i) * 4096
		}
		if i%5 == 0 {
			s.Attr = "node0/ssd"
		}
		spans = append(spans, s)
	}
	return spans
}

// chromeAllocs measures the allocations of one WriteChrome of a run with n
// spans, n flows and n counter samples.
func chromeAllocs(t *testing.T, n int) float64 {
	t.Helper()
	spans := synthSpans(n)
	flows := make([]Flow, n)
	times := make([]time.Duration, n)
	values := make([]float64, n)
	for i := range flows {
		flows[i] = Flow{Name: "/ensemble/pair000/frame00001.pb", ID: int64(i), Proc: spans[i].Proc, At: spans[i].Start, Start: i%4 == 0}
		times[i] = spans[i].Start
		values[i] = float64(i) / 3
	}
	runs := []Run{{Label: "alloc", Spans: spans, Flows: flows, Counters: []Counter{{Name: "util", Times: times, Values: values}}}}
	return testing.AllocsPerRun(5, func() {
		if err := WriteChrome(io.Discard, runs); err != nil {
			t.Fatal(err)
		}
	})
}

// Once every proc has its tid, an event costs no allocation: 100x more
// spans, flows and counter samples through WriteChrome add zero
// allocations — everything measured is per-document and per-thread setup.
func TestChromeStreamZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	base := chromeAllocs(t, 200)
	long := chromeAllocs(t, 20_000)
	if delta := long - base; delta > 0 {
		t.Fatalf("Chrome export allocates per event: %.0f allocs over 19800 extra events (base %.0f, long %.0f)", delta, base, long)
	}
}

// BenchmarkWriteChrome measures WriteChrome over a span-heavy multi-run
// input: four runs of 20k spans each, with flows and a counter track.
func BenchmarkWriteChrome(b *testing.B) {
	var runs []Run
	for r := 0; r < 4; r++ {
		spans := synthSpans(20_000)
		var flows []Flow
		var times []time.Duration
		var values []float64
		for i := 0; i < len(spans); i += 10 {
			flows = append(flows, Flow{Name: "/ensemble/pair000/frame00001.pb", ID: int64(i), Proc: spans[i].Proc, At: spans[i].Start, Start: i%40 == 0})
			times = append(times, spans[i].Start)
			values = append(values, float64(i)/7)
		}
		runs = append(runs, Run{Label: fmt.Sprintf("DYAD rep %d", r), Spans: spans, Flows: flows,
			Counters: []Counter{{Name: "core/frames_produced", Times: times, Values: values}}})
	}
	var doc bytes.Buffer
	if err := WriteChrome(&doc, runs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChrome(io.Discard, runs); err != nil {
			b.Fatal(err)
		}
	}
}
