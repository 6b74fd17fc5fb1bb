package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
)

// defaultSeed is the benchmark seed that reproduces the command-line
// defaults (experiments Options.Seed 0 resolves to 0xD1AD); only on it are
// outputs compared byte-for-byte against golden.json.
const defaultSeed = 0

// programSeed maps the benchmark seed onto the simulator's seed: the default
// seed keeps the experiments' own default so paper-quick stays comparable
// with `cmd/experiments -quick -j 1 all`.
func programSeed(seed uint64) uint64 {
	if seed == defaultSeed {
		return 0xD1AD
	}
	return seed
}

// passResult is what one pass of a workload produced, before host metrics.
type passResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Digest    string            `json:"digest"`     // sha256 over every output byte of the pass
	OpDigests map[string]string `json:"op_digests"` // per operation, for golden comparison
	Frames    int64             `json:"frames"`     // frames consumed, where results are visible
	Counts    map[string]int64  `json:"counts,omitempty"`
}

func (r *passResult) fail(op string, err error) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", op, err))
}

// workload is one benchmark input set. prepare is the set-up: it builds the
// pass inputs from the seed and returns the pass, which may be run with a
// span recorder (traced) or without (nil).
type workload struct {
	name    string
	prepare func(seed uint64, tiny bool) func(rec *recorder) passResult
}

var workloads = []workload{
	{"paper-quick", paperQuick},
	{"fleet-1024", fleet1024},
	{"observed-stress", observedStress},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// paperQuick is the in-process equivalent of
// `experiments -quick -j 1 all`: every artifact run serially and rendered as
// the command renders it to stdout.
func paperQuick(seed uint64, tiny bool) func(*recorder) passResult {
	opts := repro.ExperimentOptions{Quick: true, Workers: 1, Seed: programSeed(seed)}
	if tiny {
		opts.Reps, opts.Frames = 1, 2
	}
	var ids []string
	for _, e := range repro.Experiments() {
		ids = append(ids, e.ID)
	}
	return func(rec *recorder) passResult {
		res := passResult{OpDigests: map[string]string{}}
		var out bytes.Buffer
		for _, id := range ids {
			res.Attempted++
			end := rec.begin("experiments", "run."+id)
			rep, err := repro.RunExperiment(id, opts)
			end()
			if err != nil {
				res.fail(id, err)
				continue
			}
			end = rec.begin("experiments", "render."+id)
			start := out.Len()
			repro.RenderReport(&out, rep)
			fmt.Fprintln(&out)
			end()
			res.OpDigests[id] = sum(out.Bytes()[start:])
		}
		res.Digest = sum(out.Bytes())
		return res
	}
}

// fleet1024 runs 4 seeds x {DYAD, Lustre without noise} of a 1024-pair JAC
// ensemble (2048 processes on 256 compute nodes) through RunMany's parallel
// fan-out.
func fleet1024(seed uint64, tiny bool) func(*recorder) passResult {
	jac, err := repro.ModelByName("JAC")
	if err != nil {
		panic(err)
	}
	pairs, frames, reps := 1024, 8, 4
	if tiny {
		pairs, frames, reps = 16, 2, 1
	}
	var cfgs []repro.Config
	for _, b := range []repro.Backend{repro.DYAD, repro.Lustre} {
		base := repro.Config{Backend: b, Model: jac, Pairs: pairs, Frames: frames,
			Seed: programSeed(seed), ComputeJitter: 0.004}
		cfgs = append(cfgs, core.RepeatConfigs(base, reps)...)
	}
	workers := fleetWorkers()
	frameBytes := jac.FrameBytes()
	return func(rec *recorder) passResult {
		res := passResult{OpDigests: map[string]string{}, Counts: map[string]int64{}}
		end := rec.begin("core", "run_many")
		results, batchErr := repro.RunMany(cfgs, workers)
		end()
		h := sha256.New()
		for i, r := range results {
			op := fmt.Sprintf("%s/%d", cfgs[i].Label(), i)
			res.Attempted++
			if r == nil {
				res.fail(op, fmt.Errorf("no result (batch error: %v)", batchErr))
				continue
			}
			if err := checkRun(r, frameBytes); err != nil {
				res.fail(op, err)
			}
			d := sum([]byte(runDigest(r)))
			res.OpDigests[op] = d
			io.WriteString(h, d)
			res.Frames += int64(r.FramesRead)
			res.Counts["capacity.evictions"] += r.Capacity.Evictions
			res.Counts["faults.retries"] += r.Recovery.Retries
		}
		res.Digest = hex.EncodeToString(h.Sum(nil))
		return res
	}
}

// fleetWorkers is fleet-1024's RunMany worker count: two, or one on a
// single-core host.
func fleetWorkers() int { return min(2, runtime.NumCPU()) }

// runDigest renders every result field fleet-1024 pins: makespan,
// producer/consumer totals, frames, bytes, recovery and capacity.
func runDigest(r *repro.Result) string {
	return fmt.Sprintf("makespan=%d prod=%d/%d cons=%d/%d frames=%d bytes=%d recovery={%s} capacity={%s}",
		r.Makespan, r.Producer.Movement, r.Producer.Idle, r.Consumer.Movement, r.Consumer.Idle,
		r.FramesRead, r.BytesRead, r.Recovery.String(), r.Capacity.String())
}

// checkRun verifies the invariants every healthy run holds on any seed:
// each consumer read each frame once, and every byte written was read.
func checkRun(r *repro.Result, frameBytes int64) error {
	want := r.Cfg.Pairs * r.Cfg.Frames
	if r.FramesRead != want {
		return fmt.Errorf("FramesRead %d != Pairs*Frames %d", r.FramesRead, want)
	}
	if r.BytesRead != int64(want)*frameBytes {
		return fmt.Errorf("BytesRead %d != %d frames x %d B", r.BytesRead, want, frameBytes)
	}
	if r.Makespan <= 0 {
		return errors.New("non-positive makespan")
	}
	return nil
}

// observedStress is the in-process equivalent of `experiments -quick -j 1
// -reps 1 -frames 128 -trace T -critpath C -metrics M straggler faultsweep
// capsweep`: every run is observed, and the three exported artifacts are
// hashed instead of written.
func observedStress(seed uint64, tiny bool) func(*recorder) passResult {
	frames := 128
	if tiny {
		frames = 4
	}
	ids := []string{"straggler", "faultsweep", "capsweep"}
	return func(rec *recorder) passResult {
		res := passResult{OpDigests: map[string]string{}, Counts: map[string]int64{}}
		tc := repro.NewTraceCollector()
		mc := repro.NewMetricsCollector()
		cc := repro.NewCritPathCollector()
		opts := repro.ExperimentOptions{Quick: true, Workers: 1, Reps: 1, Frames: frames,
			Seed: programSeed(seed), Trace: tc, Metrics: mc, CritPath: cc}
		var out bytes.Buffer
		checked := 0
		for _, id := range ids {
			res.Attempted++
			mc.SetScope(id)
			end := rec.begin("experiments", "run."+id)
			rep, err := repro.RunExperiment(id, opts)
			end()
			if err != nil {
				res.fail(id, err)
				continue
			}
			end = rec.begin("experiments", "render."+id)
			start := out.Len()
			crit := cc.Drain(id)
			for _, r := range []*repro.ExperimentReport{rep, tc.Drain(id), mc.Drain(id), crit} {
				if r != nil {
					repro.RenderReport(&out, r)
					fmt.Fprintln(&out)
				}
			}
			end()
			res.OpDigests[id] = sum(out.Bytes()[start:])
			if crit != nil {
				checked++
				if err := checkCritNotes(crit); err != nil {
					res.fail(id, err)
				}
			}
		}
		if checked == 0 && res.Failed == 0 {
			res.fail("critpath", errors.New("no experiment produced a critical-path report"))
		}
		exports := []struct {
			layer, name string
			write       func(io.Writer) error
		}{
			{"trace", "chrome_write", func(w io.Writer) error { return repro.WriteChromeTrace(w, tc.Runs) }},
			{"metrics", "csv_write", func(w io.Writer) error { return repro.WriteMetricsCSV(w, mc.Runs) }},
			{"critpath", "waterfall_write", cc.WriteWaterfall},
		}
		for _, x := range exports {
			res.Attempted++
			h := sha256.New()
			cw := &countingWriter{w: h}
			end := rec.begin(x.layer, x.name)
			err := x.write(cw)
			end()
			if err == nil && cw.n == 0 {
				err = errors.New("empty export")
			}
			if err != nil {
				res.fail(x.layer, err)
				continue
			}
			res.OpDigests[x.layer] = hex.EncodeToString(h.Sum(nil))
			res.Counts[x.layer+".bytes"] = cw.n
		}
		for _, r := range tc.Runs {
			res.Counts["trace.spans"] += int64(len(r.Spans))
		}
		for _, l := range cc.Lineages {
			res.Frames += int64(len(l.Frames))
		}
		res.OpDigests["reports"] = sum(out.Bytes())
		h := sha256.New()
		for _, k := range []string{"reports", "trace", "metrics", "critpath"} {
			io.WriteString(h, res.OpDigests[k])
		}
		res.Digest = hex.EncodeToString(h.Sum(nil))
		return res
	}
}

// countingWriter counts the bytes an exporter writes and passes them on.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.w.Write(p)
}

// critNote matches the per-run summary line of a critical-path blame
// report (experiments.CritCollector.Drain).
var critNote = regexp.MustCompile(`makespan (\S+), attributed (\S+) \([^)]*\), untracked (\S+),`)

// checkCritNotes verifies Attributed + Untracked == Makespan on every
// recorded run of an experiment. The report prints each duration rounded
// (stats.FormatSeconds), so the sum may differ by the three roundings.
func checkCritNotes(rep *repro.ExperimentReport) error {
	n := 0
	for _, note := range rep.Notes {
		m := critNote.FindStringSubmatch(note)
		if m == nil {
			continue
		}
		var d [3]time.Duration
		var tol time.Duration
		for i := range d {
			v, err := time.ParseDuration(m[i+1])
			if err != nil {
				return fmt.Errorf("critical path note %q: %v", note, err)
			}
			d[i] = v
			tol += printUnit(v) / 2
		}
		if diff := d[1] + d[2] - d[0]; diff > tol || diff < -tol {
			return fmt.Errorf("critical path: attributed+untracked %v != makespan %v", d[1]+d[2], d[0])
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("no critical-path summary in report %s", rep.ID)
	}
	return nil
}

// printUnit is the last printed digit of stats.FormatSeconds for v.
func printUnit(v time.Duration) time.Duration {
	switch {
	case v >= time.Second:
		return time.Millisecond
	case v >= time.Millisecond:
		return 10 * time.Microsecond
	default:
		return 100 * time.Nanosecond
	}
}
