package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// resultScalars compares the measurement-bearing fields of two results.
func resultScalars(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Producer != want.Producer || got.Consumer != want.Consumer ||
		got.Makespan != want.Makespan || got.FramesRead != want.FramesRead ||
		got.BytesRead != want.BytesRead || got.Recovery != want.Recovery {
		t.Errorf("%s: result diverged:\n got  %+v %+v %v\n want %+v %+v %v",
			what, got.Producer, got.Consumer, got.Makespan,
			want.Producer, want.Consumer, want.Makespan)
	}
}

// Streaming a run's spans into a ChromeStream must produce byte-for-byte
// the document that buffered recording plus WriteChrome produces.
func TestTraceStreamMatchesBuffered(t *testing.T) {
	cfg := Config{Backend: DYAD, Model: tinyModel(), Frames: 5, Pairs: 2, SingleNode: true, Seed: 21}

	buffered := cfg
	buffered.RecordSpans = true
	res, err := Run(buffered)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.WriteChrome(&want, []trace.Run{{Label: cfg.Label(), Spans: res.Spans}}); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	stream := trace.NewChromeStream(&got)
	streamed := cfg
	streamed.TraceStream = stream
	sres, err := Run(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("streamed Chrome trace diverged from buffered export (%d vs %d bytes)", got.Len(), want.Len())
	}
	if sres.Spans != nil {
		t.Errorf("streaming run retained %d spans, want none", len(sres.Spans))
	}
	// The incremental statistics must equal the buffered aggregation.
	if len(sres.SpanStats) != len(res.SpanStats) {
		t.Fatalf("streaming SpanStats has %d ops, buffered %d", len(sres.SpanStats), len(res.SpanStats))
	}
	for i := range sres.SpanStats {
		if sres.SpanStats[i] != res.SpanStats[i] {
			t.Errorf("SpanStats[%d] diverged: %+v vs %+v", i, sres.SpanStats[i], res.SpanStats[i])
		}
	}
	resultScalars(t, "trace stream", sres, res)
}

// Streaming sampled metrics into a CSVSink across a batch must produce
// byte-for-byte the CSV that buffered sampling plus WriteCSV produces.
func TestMetricsSinkMatchesBuffered(t *testing.T) {
	base := Config{Backend: DYAD, Model: tinyModel(), Frames: 5, Pairs: 2, SingleNode: true, Seed: 33}
	const reps = 3
	interval := 2 * time.Millisecond

	// Buffered reference: each rep retains its registry.
	cfgs := RepeatConfigs(base, reps)
	for i := range cfgs {
		cfgs[i].MetricsInterval = interval
	}
	results, err := RunMany(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs []metrics.Run
	for _, res := range results {
		if res.Metrics == nil || res.Metrics.Len() == 0 {
			t.Fatal("buffered rep missing metrics")
		}
		runs = append(runs, metrics.Run{Label: base.Label(), Reg: res.Metrics})
	}
	var want bytes.Buffer
	if err := metrics.WriteCSV(&want, runs); err != nil {
		t.Fatal(err)
	}

	// Streamed: all reps share one sink on one serial worker.
	var got bytes.Buffer
	sink := metrics.NewCSVSink(&got)
	cfgs = RepeatConfigs(base, reps)
	for i := range cfgs {
		cfgs[i].MetricsInterval = interval
		cfgs[i].MetricsSink = sink
	}
	sresults, err := RunMany(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("streamed metrics CSV diverged from buffered export:\n got:\n%s\nwant:\n%s", got.String(), want.String())
	}
	for i, res := range sresults {
		if res.Metrics != nil {
			t.Errorf("streaming rep %d retained its registry", i)
		}
		resultScalars(t, "metrics sink", res, results[i])
	}
}
