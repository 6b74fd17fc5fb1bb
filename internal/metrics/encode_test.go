package metrics

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

// oracleCSV renders runs with the FormatFloat-per-field row formatting the
// append encoder replaced: the reference WriteCSV must reproduce byte for
// byte.
func oracleCSV(runs []Run) string {
	var b strings.Builder
	for ri, run := range runs {
		if ri > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("# " + csvComment(run.Label) + "\ntime_s")
		for _, s := range run.Reg.Series() {
			b.WriteString("," + s.Name)
		}
		b.WriteByte('\n')
		for i, t := range run.Reg.Times() {
			b.WriteString(strconv.FormatFloat(t.Seconds(), 'g', -1, 64))
			for _, s := range run.Reg.Series() {
				b.WriteString("," + strconv.FormatFloat(s.Samples[i], 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// gaugeRun registers one gauge per value on r and samples every value at
// each of the times: a gauge samples its probe verbatim, so the row
// carries the fuzzed bits unchanged.
func gaugeRun(r *Registry, values []float64, times []time.Duration) {
	for i := range values {
		v := &values[i]
		r.Gauge(fmt.Sprintf("g%d", i), func() float64 { return *v })
	}
	for _, t := range times {
		r.Sample(t)
	}
}

// The CSV row encoder must be a byte-identical replacement for the
// FormatFloat formatting for any timestamp and any value (NaN, ±Inf, -0,
// subnormals, extremes).
func FuzzMetricsCSVRow(f *testing.F) {
	f.Add("DYAD rep 0", int64(250*time.Millisecond), math.Float64bits(0.5), math.Float64bits(1e21))
	f.Add("hostile\nlabel\\", int64(-1), math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)))
	f.Add("", int64(math.MaxInt64), math.Float64bits(math.Copysign(0, -1)), uint64(1))
	f.Add("x", int64(math.MinInt64), math.Float64bits(math.Inf(1)), math.Float64bits(math.MaxFloat64))
	f.Fuzz(func(t *testing.T, label string, ts int64, a, b uint64) {
		values := []float64{math.Float64frombits(a), math.Float64frombits(b), -math.Float64frombits(a)}
		times := []time.Duration{time.Duration(ts), time.Duration(ts) / 3, 0}

		r := New(time.Second)
		gaugeRun(r, values, times)
		runs := []Run{{Label: label, Reg: r}, {Label: label, Reg: r}}
		want := oracleCSV(runs)
		var got bytes.Buffer
		if err := WriteCSV(&got, runs); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Fatalf("WriteCSV diverged from the reference formatting:\n got %q\nwant %q", got.String(), want)
		}
	})
}

// csvTimes returns n sample boundaries one interval apart.
func csvTimes(n int) []time.Duration {
	times := make([]time.Duration, n)
	for i := range times {
		times[i] = time.Duration(i+1) * 250 * time.Millisecond
	}
	return times
}

// The CSV exporter allocates per document, not per row: 100x more rows
// through WriteCSV add zero allocations.
func TestCSVRowsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation budget checked without -race")
	}
	values := []float64{0.25, 1.0 / 3, 123456.789, 0}
	writeAllocs := func(n int) float64 {
		r := New(250 * time.Millisecond)
		gaugeRun(r, values, csvTimes(n))
		runs := []Run{{Label: "a", Reg: r}, {Label: "b", Reg: r}}
		return testing.AllocsPerRun(5, func() {
			if err := WriteCSV(io.Discard, runs); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, long := writeAllocs(200), writeAllocs(20_000)
	if delta := long - base; delta > 0 {
		t.Errorf("WriteCSV allocates per row: %.0f allocs over 19800 extra rows (base %.0f, long %.0f)", delta, base, long)
	}
}

// BenchmarkWriteMetricsCSV measures WriteCSV over four runs of 16 series
// and 2000 sample boundaries each.
func BenchmarkWriteMetricsCSV(b *testing.B) {
	var runs []Run
	for ri := 0; ri < 4; ri++ {
		r := New(250 * time.Millisecond)
		values := make([]float64, 16)
		for i := range values {
			values[i] = float64(ri*16+i) / 7
		}
		gaugeRun(r, values, csvTimes(2000))
		runs = append(runs, Run{Label: fmt.Sprintf("DYAD rep %d", ri), Reg: r})
	}
	var doc bytes.Buffer
	if err := WriteCSV(&doc, runs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCSV(io.Discard, runs); err != nil {
			b.Fatal(err)
		}
	}
}
