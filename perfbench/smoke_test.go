package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type metricMap struct {
	PerLayer map[string]struct {
		Unit, Kind, Source string
	} `json:"per_layer"`
}

func loadJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestSmoke runs every workload and the layer probes at a tiny size and
// checks that every metric BENCHMARK.json names is emitted with its unit,
// that exact metrics repeat bit-for-bit, and that every layer of the metric
// map has a span or a probe record.
func TestSmoke(t *testing.T) {
	var spec benchSpec
	var mm metricMap
	loadJSON(t, "../BENCHMARK.json", &spec)
	loadJSON(t, "metric_map.json", &mm)
	if len(mm.PerLayer) != len(spec.PerLayer) {
		t.Errorf("metric_map.json maps %d per-layer metrics, BENCHMARK.json lists %d", len(mm.PerLayer), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		e, ok := mm.PerLayer[m.Name]
		if !ok || e.Unit != m.Unit || (e.Kind != "exact" && e.Kind != "timed") {
			t.Errorf("metric_map.json entry for %s = %+v, want unit %q and kind exact or timed", m.Name, e, m.Unit)
		}
	}

	covered := map[string]bool{}
	const seed = 5
	for _, w := range spec.Workloads {
		if _, err := runPass(w.Name, seed, false, true, true, io.Discard); err != nil {
			t.Fatalf("%s set-up: %v", w.Name, err)
		}
		var recs [2]*passRecord
		for i, traced := range []bool{false, true} {
			r, err := runPass(w.Name, seed, traced, false, true, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			recs[i] = r.(*passRecord)
		}
		plain, traced := recs[0], recs[1]
		if plain.Failed+traced.Failed != 0 || plain.Attempted == 0 {
			t.Errorf("%s: attempted %d, failures %v %v", w.Name, plain.Attempted, plain.Failures, traced.Failures)
		}
		if plain.Digest != traced.Digest {
			t.Errorf("%s: traced pass output differs from the untraced pass", w.Name)
		}
		if len(traced.Spans) == 0 || len(plain.Spans) != 0 {
			t.Errorf("%s: %d traced spans, %d untraced", w.Name, len(traced.Spans), len(plain.Spans))
		}
		for _, s := range traced.Spans {
			covered[s.Layer] = true
		}
		// run.py reads the end-to-end metrics (set-up aside) and the
		// runtime counters straight from the pass record.
		var fields map[string]any
		b, err := json.Marshal(plain)
		if err == nil {
			err = json.Unmarshal(b, &fields)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range spec.EndToEnd {
			if m.Name == "setup_s" {
				continue
			}
			if v, ok := fields[m.Name].(float64); !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.Name, m.Name, fields[m.Name])
			}
		}
		for _, f := range []string{"gc_cycles", "gc_cpu_s"} {
			if _, ok := fields[f]; !ok {
				t.Errorf("%s: pass record lacks %s", w.Name, f)
			}
		}
	}

	probes := [2]*probeRecord{runProbes(seed, true), runProbes(seed, true)}
	for _, p := range probes {
		for _, f := range p.Failures {
			t.Errorf("probe failure: %s", f)
		}
		for _, s := range p.Spans {
			covered[s.Layer] = true
		}
	}
	for _, m := range spec.PerLayer {
		e := mm.PerLayer[m.Name]
		if e.Source == "workload pass" {
			continue // derived by run.py from the pass records checked above
		}
		got, ok := probes[0].Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("probe metric %s = %+v, want unit %q", m.Name, got, m.Unit)
			continue
		}
		covered[strings.SplitN(m.Name, ".", 2)[0]] = true
		if e.Kind == "exact" && probes[1].Metrics[m.Name] != got {
			t.Errorf("exact metric %s: %v then %v", m.Name, got.Value, probes[1].Metrics[m.Name].Value)
		}
	}
	for _, layer := range []string{"experiments", "core", "sim", "cluster", "kvs", "dyad", "lustre", "xfs",
		"mpi", "capacity", "faults", "trace", "critpath", "metrics", "observe", "ops"} {
		if !covered[layer] {
			t.Errorf("layer %s has no span and no probe record", layer)
		}
	}
}
