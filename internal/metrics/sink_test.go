package metrics

import (
	"bytes"
	"testing"
	"time"
)

// registerSinkSeries wires one series of every kind plus a histogram onto
// r, driven by the shared cumulative state.
func registerSinkSeries(r *Registry, total, busy, inFlight *float64) *Histogram {
	r.Gauge("gauge", func() float64 { return *inFlight })
	r.Counter("counter", func() float64 { return *total })
	r.Rate("rate", func() float64 { return *total }).OnDashboard()
	r.Util("util", 2, func() float64 { return *busy })
	r.Ratio("ratio", func() float64 { return *busy }, func() float64 { return *total })
	return r.Histogram("lat")
}

// drive samples n boundaries with evolving state.
func drive(r *Registry, h *Histogram, total, busy, inFlight *float64, n int) {
	for i := 1; i <= n; i++ {
		*total += float64(i) * 3
		*busy += float64(i) * 0.4e9
		*inFlight = float64(i % 4)
		h.Observe(time.Duration(i) * 37 * time.Microsecond)
		r.Sample(time.Duration(i) * time.Second)
	}
}

// A sink-attached registry must write byte-for-byte the CSV that buffered
// sampling plus WriteCSV produces for the same probe history — across
// multiple runs on one sink, each on a fresh registry.
func TestCSVSinkMatchesWriteCSV(t *testing.T) {
	const boundaries = 5

	// Buffered reference: two runs, fresh registries.
	var runs []Run
	for run := 0; run < 2; run++ {
		r := New(time.Second)
		var total, busy, inFlight float64
		h := registerSinkSeries(r, &total, &busy, &inFlight)
		drive(r, h, &total, &busy, &inFlight, boundaries)
		runs = append(runs, Run{Label: "sinkrun", Reg: r})
	}
	var want bytes.Buffer
	if err := WriteCSV(&want, runs); err != nil {
		t.Fatal(err)
	}

	// Streamed: a fresh registry per run, all on one sink.
	var got bytes.Buffer
	sink := NewCSVSink(&got)
	var streamed []*Registry
	for run := 0; run < 2; run++ {
		r := New(time.Second)
		var total, busy, inFlight float64
		h := registerSinkSeries(r, &total, &busy, &inFlight)
		sink.StartRun("sinkrun", r)
		drive(r, h, &total, &busy, &inFlight, boundaries)
		streamed = append(streamed, r)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("sink CSV diverged from WriteCSV:\n got:\n%s\nwant:\n%s", got.String(), want.String())
	}
	// A sink-attached registry retains no sample vectors.
	for _, r := range streamed {
		if r.Len() != 0 {
			t.Errorf("sink-attached registry buffered %d sample rows", r.Len())
		}
		for _, s := range r.Series() {
			if len(s.Samples) != 0 {
				t.Errorf("series %q buffered %d samples in sink mode", s.Name, len(s.Samples))
			}
		}
	}
}
