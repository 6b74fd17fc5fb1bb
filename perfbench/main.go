// Command perfbench is the measuring process of the repository benchmark.
// run.py builds it and starts one process per pass, so every pass gets a
// fresh heap and its own peak resident set.
//
//	perfbench pass -workload paper-quick -seed 1            # one untraced pass
//	perfbench pass -workload fleet-1024 -seed 1 -traced     # one traced pass
//	perfbench pass -workload observed-stress -setup-only    # set-up, then exit
//	perfbench probes -seed 1                                # layer probes
//
// Each process prints "ready" once its inputs are built, then one JSON
// record. run.py times set-up as the interval from process start to "ready".
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: perfbench pass|probes [flags]")
		return 2
	}
	fs := flag.NewFlagSet("perfbench "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (pass)")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	traced := fs.Bool("traced", false, "record spans around every call into the simulator")
	setupOnly := fs.Bool("setup-only", false, "build the inputs, print ready, and exit")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	var rec any
	var err error
	switch args[0] {
	case "pass":
		rec, err = runPass(*name, *seed, *traced, *setupOnly, false, stdout)
	case "probes":
		fmt.Fprintln(stdout, "ready")
		rec, err = runProbes(*seed, false), nil
	default:
		err = fmt.Errorf("unknown subcommand %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rec == nil {
		return 0
	}
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// passRecord is one pass's host measurements and outputs.
type passRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	Env      envInfo `json:"env"`
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	AllocMB  float64 `json:"alloc_mb"`
	AllocsM  float64 `json:"allocs_m"`
	MaxRSSMB float64 `json:"max_rss_mb"`
	GCCycles uint32  `json:"gc_cycles"`
	GCCPUS   float64 `json:"gc_cpu_s"`
	FramesPS float64 `json:"frames_per_s"`
	Golden   string  `json:"golden"` // "match", "mismatch" or "skipped"
	passResult
	Spans []span             `json:"spans,omitempty"`
	Self  map[string]float64 `json:"self_ms,omitempty"` // span self time per layer.name
}

type envInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
}

func currentEnv() envInfo {
	return envInfo{runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), fleetWorkers()}
}

// runPass builds a workload's inputs, prints "ready", and runs one pass.
// tiny shrinks the inputs for the smoke test.
func runPass(name string, seed uint64, traced, setupOnly, tiny bool, stdout io.Writer) (any, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	pass := w.prepare(seed, tiny)
	fmt.Fprintln(stdout, "ready")
	if setupOnly {
		return nil, nil
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	before := sampleHost()
	start := time.Now()
	res := pass(rec)
	wall := time.Since(start)
	after := sampleHost()

	pr := &passRecord{
		Workload: name, Seed: seed, Traced: traced, Env: currentEnv(),
		WallS:      wall.Seconds(),
		CPUS:       after.cpu - before.cpu,
		AllocMB:    float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1e6,
		AllocsM:    float64(after.mem.Mallocs-before.mem.Mallocs) / 1e6,
		MaxRSSMB:   after.maxRSSMB,
		GCCycles:   after.mem.NumGC - before.mem.NumGC,
		GCCPUS:     after.gcCPU - before.gcCPU,
		passResult: res,
		Golden:     "skipped",
	}
	if res.Frames > 0 {
		pr.FramesPS = float64(res.Frames) / wall.Seconds()
	}
	if seed == defaultSeed && !tiny {
		pr.Golden = "match"
		if bad := checkGolden(name, res); len(bad) > 0 {
			pr.Golden = "mismatch"
			for _, op := range bad {
				pr.fail(op, errors.New("output differs from golden.json"))
			}
		}
	}
	if rec != nil {
		pr.Spans = rec.spans
		pr.Self = map[string]float64{}
		for k, d := range selfTimes(rec.spans) {
			pr.Self[k] = float64(d) / 1e6
		}
	}
	return pr, nil
}

// hostSample is the process-wide counters a pass is measured by.
type hostSample struct {
	mem      runtime.MemStats
	cpu      float64 // user+sys seconds
	maxRSSMB float64
	gcCPU    float64
}

func sampleHost() hostSample {
	var s hostSample
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		s.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(m)
	if m[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = m[0].Value.Float64()
	}
	return s
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

//go:embed golden.json
var goldenJSON []byte

// checkGolden compares a default-seed pass against golden.json and returns
// the operations that differ. The digests are sha256 sums: paper-quick's is
// the stdout of `experiments -quick -j 1 all`; observed-stress's reports,
// trace, metrics and critpath entries are the stdout and the three files of
// `experiments -quick -j 1 -reps 1 -frames 128 -trace T -critpath C
// -metrics M straggler faultsweep capsweep`; the per-artifact and
// fleet-1024 entries are this program's own output at the same commit. A
// change that alters outputs on purpose regenerates them from
// `perfbench pass -workload <name> -seed 0`.
func checkGolden(name string, res passResult) []string {
	var golden map[string]struct {
		Digest    string            `json:"digest"`
		OpDigests map[string]string `json:"op_digests"`
	}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return []string{"golden.json: " + err.Error()}
	}
	g, ok := golden[name]
	if !ok {
		return []string{"golden.json: no entry for " + name}
	}
	var bad []string
	for op, want := range g.OpDigests {
		if res.OpDigests[op] != want {
			bad = append(bad, op)
		}
	}
	if len(bad) == 0 && res.Digest != g.Digest {
		bad = append(bad, "digest")
	}
	return bad
}
