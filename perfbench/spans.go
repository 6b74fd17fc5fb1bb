package main

import "time"

// span is one host-time interval recorded by the benchmark around a call
// into the simulator: an experiment run or render, a workflow batch, an
// exporter, or a layer probe. Spans are held in memory and written with the
// pass record when the pass ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Layer  string `json:"layer"`  // module the call enters, e.g. "experiments"
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host ns since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder collects spans. A nil recorder records nothing, so untraced
// passes run the same code path with one nil check per boundary.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open span and returns a function
// that closes it.
func (r *recorder) begin(layer, name string) func() {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i, Parent: parent, Layer: layer, Name: name, Start: r.since()})
	r.open = append(r.open, i)
	return func() {
		r.spans[i].End = r.since()
		r.open = r.open[:len(r.open)-1]
	}
}

func (r *recorder) since() int64 { return int64(time.Since(r.t0)) }

// selfTimes returns each span's duration minus the part its direct children
// cover, summed per layer+name key. Children never overlap (the recorder is
// single-threaded), so the covered part is the sum of child durations.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Layer+"."+s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}
