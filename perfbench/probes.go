package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/critpath"
	"repro/internal/dyad"
	"repro/internal/faults"
	"repro/internal/kvs"
	"repro/internal/lustre"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/xfs"
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// probeRecord is the output of the layer probes: per-layer metrics plus one
// span per probe (layer = the module the probe drives).
type probeRecord struct {
	Env      envInfo           `json:"env"`
	Metrics  map[string]metric `json:"metrics"`
	Spans    []span            `json:"spans"`
	Failures []string          `json:"failures,omitempty"`
}

// prober runs layer probes. Every probe builds its own sim.Engine (and,
// where the layer needs one, a cluster.CoronaProfile cluster) and drives a
// single layer's public operation from one simulated client in a closed
// loop with JAC-sized frames, timing the loop in host nanoseconds.
type prober struct {
	seed  uint64
	scale int // iterations multiplier; 1 in the smoke test
	frame int64
	rec   *recorder
	out   probeRecord
}

func runProbes(seed uint64, tiny bool) *probeRecord {
	jac, err := repro.ModelByName("JAC")
	if err != nil {
		panic(err)
	}
	pr := &prober{seed: programSeed(seed), scale: 20, frame: jac.FrameBytes(), rec: newRecorder()}
	if tiny {
		pr.scale = 1
	}
	pr.out = probeRecord{Env: currentEnv(), Metrics: map[string]metric{}}
	for _, p := range []struct {
		layer string
		run   func()
	}{
		{"sim", pr.simProbes},
		{"cluster", pr.clusterProbes},
		{"kvs", pr.kvsProbes},
		{"dyad", pr.dyadProbes},
		{"xfs", pr.xfsProbes},
		{"lustre", pr.lustreProbes},
		{"mpi", pr.mpiProbes},
		{"capacity", pr.capacityProbe},
		{"core", pr.coreProbes},
	} {
		end := pr.rec.begin(p.layer, "probe")
		p.run()
		end()
	}
	pr.out.Spans = pr.rec.spans
	return &pr.out
}

func (pr *prober) set(name string, v float64, unit string) {
	pr.out.Metrics[name] = metric{v, unit}
}

func (pr *prober) fail(what string, err error) {
	pr.out.Failures = append(pr.out.Failures, fmt.Sprintf("%s: %v", what, err))
}

// loop runs one closed-loop client on e and returns host ns per call of op.
// Paths are built before timing so only the layer's own cost is measured.
func (pr *prober) loop(e *sim.Engine, n int, op func(p *sim.Proc, i int) error) float64 {
	var host time.Duration
	e.Spawn("client", func(p *sim.Proc) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(p, i); err != nil {
				pr.fail("probe op", err)
				break
			}
		}
		host = time.Since(start)
	})
	if err := e.Run(); err != nil {
		pr.fail("probe run", err)
	}
	return float64(host.Nanoseconds()) / float64(n)
}

func paths(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s/f%06d", prefix, i)
	}
	return out
}

func (pr *prober) simProbes() {
	// Process switch: one process yielding; every event is a baton hand-off
	// to the process and back, with a single pending event.
	n := 10000 * pr.scale
	e := sim.NewEngine(pr.seed)
	pr.set("sim.switch_ns", pr.loop(e, n, func(p *sim.Proc, _ int) error {
		p.Sleep(time.Microsecond)
		return nil
	}), "ns")

	// Event queue without switches: self-rescheduling callbacks hold the
	// pending set at a fixed size, below (heap) and above (ladder) the
	// queue's migration threshold of 1024 pending events.
	for _, q := range []struct {
		name    string
		pending int
	}{{"heap", 256}, {"ladder", 8192}} {
		e := sim.NewEngine(pr.seed)
		rng := sim.NewRNG(pr.seed)
		budget := int64(20000 * pr.scale)
		for i := 0; i < q.pending; i++ {
			var tick func()
			tick = func() {
				if budget--; budget > 0 {
					e.After(rng.Exp(time.Millisecond), tick)
				}
			}
			e.After(rng.Exp(time.Millisecond), tick)
		}
		start := time.Now()
		if err := e.Run(); err != nil {
			pr.fail("sim."+q.name, err)
		}
		pr.set("sim.event_ns."+q.name, float64(time.Since(start).Nanoseconds())/float64(e.Events()), "ns")
	}

	// Spawn: a process's whole life (spawn, first dispatch, exit).
	n = 2000 * pr.scale
	e = sim.NewEngine(pr.seed)
	start := time.Now()
	for i := 0; i < n; i++ {
		e.Spawn("p", func(p *sim.Proc) {})
	}
	if err := e.Run(); err != nil {
		pr.fail("sim.spawn", err)
	}
	pr.set("sim.spawn_ns", float64(time.Since(start).Nanoseconds())/float64(n), "ns")
}

func (pr *prober) clusterProbes() {
	n := 2000 * pr.scale
	e := sim.NewEngine(pr.seed)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	pr.set("cluster.transfer_ns", pr.loop(e, n, func(p *sim.Proc, _ int) error {
		cl.Transfer(p, cl.Node(0), cl.Node(1), pr.frame)
		return nil
	}), "ns")

	e = sim.NewEngine(pr.seed)
	cl = cluster.New(e, cluster.CoronaProfile(2))
	srv := sim.NewResource(e, "server", 1)
	pr.set("cluster.rpc_ns", pr.loop(e, n, func(p *sim.Proc, _ int) error {
		cl.RPC(p, cl.Node(0), cl.Node(1), 256, 64, srv, 50*time.Microsecond)
		return nil
	}), "ns")

	// Construction of the 256-node cluster fleet-1024 runs on.
	var ms []float64
	for i := 0; i < 5*pr.scale; i++ {
		e := sim.NewEngine(pr.seed)
		start := time.Now()
		cluster.New(e, cluster.CoronaProfile(256))
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	pr.set("cluster.new_ms", median(ms), "ms")
}

func (pr *prober) kvsProbes() {
	n := 2000 * pr.scale
	keys := paths("/kvs", n)
	value := make([]byte, 64)
	e := sim.NewEngine(pr.seed)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	st := kvs.New(cl, cl.Node(0), kvs.DefaultParams())
	pr.set("kvs.commit_ns", pr.loop(e, n, func(p *sim.Proc, i int) error {
		st.Commit(p, cl.Node(1), keys[i], value)
		return nil
	}), "ns")
	// The store keeps the committed keys: lookups all hit.
	pr.set("kvs.lookup_ns", pr.loop(e, n, func(p *sim.Proc, i int) error {
		_, err := st.Lookup(p, cl.Node(1), keys[i])
		return err
	}), "ns")
}

func (pr *prober) dyadProbes() {
	n := 500 * pr.scale
	keys := paths("/flow", n)
	e := sim.NewEngine(pr.seed)
	cl := cluster.New(e, cluster.CoronaProfile(2))
	sys := dyad.New(cl, cl.Node(0), dyad.DefaultParams())
	prod, cons := sys.NewClient(cl.Node(0)), sys.NewClient(cl.Node(1))
	payload := vfs.SizeOnly(pr.frame)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pr.set("dyad.produce_ns", pr.loop(e, n, func(p *sim.Proc, i int) error {
		return prod.Produce(p, nil, keys[i], payload)
	}), "ns")
	pr.set("dyad.consume_ns", pr.loop(e, n, func(p *sim.Proc, i int) error {
		_, err := cons.Consume(p, nil, keys[i])
		return err
	}), "ns")
	runtime.ReadMemStats(&m1)
	pr.set("dyad.allocs_per_frame", float64(m1.Mallocs-m0.Mallocs)/float64(n), "count")
	pr.set("sim.events_per_frame.dyad", float64(e.Events())/float64(n), "count")
}

func (pr *prober) xfsProbes() {
	n := 2000 * pr.scale
	keys := paths("/xfs", n)
	e := sim.NewEngine(pr.seed)
	cl := cluster.New(e, cluster.CoronaProfile(1))
	fs := xfs.New(cl.Node(0), xfs.DefaultParams())
	payload := vfs.SizeOnly(pr.frame)
	pr.set("xfs.write_ns", pr.loop(e, n, func(p *sim.Proc, i int) error {
		return fs.WriteFile(p, keys[i], payload)
	}), "ns")
	pr.set("xfs.read_ns", pr.loop(e, n, func(p *sim.Proc, i int) error {
		_, err := fs.ReadFile(p, keys[i])
		return err
	}), "ns")
	pr.set("sim.events_per_frame.xfs", float64(e.Events())/float64(n), "count")
}

// lustreRig is a two-client Lustre deployment: one MDS and four OSTs on
// dedicated server nodes.
func (pr *prober) lustreRig(noise bool) (*sim.Engine, *cluster.Cluster, *lustre.FS) {
	e := sim.NewEngine(pr.seed)
	cl := cluster.New(e, cluster.CoronaProfile(7))
	params := lustre.DefaultParams()
	if !noise {
		params.BackgroundLoad = 0
	}
	var osts []*cluster.Node
	for i := 3; i < 7; i++ {
		osts = append(osts, cl.Node(i))
	}
	return e, cl, lustre.New(cl, cl.Node(2), osts, params)
}

func (pr *prober) lustreProbes() {
	n := 500 * pr.scale
	keys := paths("/lustre", n)
	payload := vfs.SizeOnly(pr.frame)
	e, cl, fs := pr.lustreRig(false)
	w, r := fs.Client(cl.Node(0)), fs.Client(cl.Node(1))
	pr.set("lustre.write_ns", pr.loop(e, n, func(p *sim.Proc, i int) error {
		return w.WriteFile(p, keys[i], payload)
	}), "ns")
	pr.set("lustre.read_ns", pr.loop(e, n, func(p *sim.Proc, i int) error {
		_, err := r.ReadFile(p, keys[i])
		return err
	}), "ns")
	pr.set("sim.events_per_frame.lustre", float64(e.Events())/float64(n), "count")

	// The host cost the background-interference processes add per client
	// write: the same write loop on fresh deployments with noise on and
	// off, alternated, medians of three.
	var quiet, noisy []float64
	for i := 0; i < 3; i++ {
		for _, noise := range []bool{false, true} {
			e, cl, fs := pr.lustreRig(noise)
			w := fs.Client(cl.Node(0))
			fs.StartNoise()
			ns := pr.loop(e, n, func(p *sim.Proc, i int) error {
				err := w.WriteFile(p, keys[i], payload)
				if i == n-1 {
					fs.StopNoise()
				}
				return err
			})
			if noise {
				noisy = append(noisy, ns)
			} else {
				quiet = append(quiet, ns)
			}
		}
	}
	pr.set("lustre.noise_ns_per_op", median(noisy)-median(quiet), "ns")
}

func (pr *prober) mpiProbes() {
	const ranks = 8
	rounds := 500 * pr.scale
	e := sim.NewEngine(pr.seed)
	cl := cluster.New(e, cluster.CoronaProfile(ranks))
	var nodes []*cluster.Node
	for i := 0; i < ranks; i++ {
		nodes = append(nodes, cl.Node(i))
	}
	comm := mpi.NewComm(cl, nodes)
	for r := 0; r < ranks; r++ {
		r := r
		e.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				comm.Barrier(p, r)
			}
		})
	}
	start := time.Now()
	if err := e.Run(); err != nil {
		pr.fail("mpi.barrier", err)
	}
	pr.set("mpi.barrier_ns", float64(time.Since(start).Nanoseconds())/float64(rounds), "ns")
}

func (pr *prober) capacityProbe() {
	n := 5000 * pr.scale
	keys := paths("/staging", n)
	e := sim.NewEngine(pr.seed)
	// Four frame slots: from the fifth reservation on, each one evicts.
	st := capacity.NewStore("probe", 4*pr.frame, capacity.NewEvictor(capacity.PolicyLRU), false, nil, nil)
	pr.set("capacity.reserve_evict_ns", pr.loop(e, n, func(p *sim.Proc, i int) error {
		return st.Reserve(p, keys[i], pr.frame)
	}), "ns")
}

// coreProbes run a fixed set of small workflow runs: DYAD, XFS and Lustre
// with observation off and on (spans, critical path and metrics sampling),
// plus one DYAD run with a finite burst buffer and one with an injected
// broker crash. They give the workflow-run cost, the observation overhead,
// the exporters' cost and the exact simulated-work counters.
func (pr *prober) coreProbes() {
	jac, err := repro.ModelByName("JAC")
	if err != nil {
		panic(err)
	}
	// XFS is node-local: its pairs share one node of at most 8 processes.
	pairs, xfsPairs, frames, reps := 16, 4, 32, 3
	if pr.scale == 1 {
		pairs, xfsPairs, frames, reps = 2, 2, 4, 1
	}
	base := []repro.Config{
		{Backend: repro.DYAD, Pairs: pairs},
		{Backend: repro.XFS, Pairs: xfsPairs, SingleNode: true},
		{Backend: repro.Lustre, Pairs: pairs, LustreNoise: true},
	}
	for i := range base {
		base[i].Model, base[i].Frames, base[i].Seed, base[i].ComputeJitter = jac, frames, pr.seed, 0.004
	}
	observed := make([]repro.Config, len(base))
	for i, c := range base {
		c.RecordSpans, c.CritPath, c.MetricsInterval = true, true, 250*time.Millisecond
		observed[i] = c
	}

	// runSet runs cfgs serially and returns host seconds, allocated bytes
	// and mallocs.
	runSet := func(cfgs []repro.Config) (res []*repro.Result, secs float64, alloc, mallocs uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for _, c := range cfgs {
			r, err := repro.Run(c)
			if err != nil {
				pr.fail("core "+c.Label(), err)
				continue
			}
			res = append(res, r)
		}
		secs = time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		return res, secs, m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
	}
	var offS, onS, chromeS, csvS, waterS []float64
	var offAlloc, onAlloc, offMallocs uint64
	var onRes []*repro.Result
	for rep := 0; rep < reps; rep++ {
		end := pr.rec.begin("core", "run_off")
		_, s, a, m := runSet(base)
		end()
		offS, offAlloc, offMallocs = append(offS, s), a, m
		end = pr.rec.begin("core", "run_observed")
		onRes, s, a, _ = runSet(observed)
		end()
		onS, onAlloc = append(onS, s), a

		var tr []trace.Run
		var mr []metrics.Run
		var lin []critpath.LineageSet
		for _, r := range onRes {
			tr = append(tr, trace.Run{Label: r.Cfg.Label(), Spans: r.Spans})
			mr = append(mr, metrics.Run{Label: r.Cfg.Label(), Reg: r.Metrics})
			lin = append(lin, critpath.LineageSet{Label: r.Cfg.Label(), Frames: r.Crit.Frames})
		}
		s, chromeBytes := pr.timeExport("trace", "chrome_write", func(w io.Writer) error { return trace.WriteChrome(w, tr) })
		chromeS = append(chromeS, s)
		s, _ = pr.timeExport("metrics", "csv_write", func(w io.Writer) error { return metrics.WriteCSV(w, mr) })
		csvS = append(csvS, s)
		s, _ = pr.timeExport("critpath", "waterfall_write", func(w io.Writer) error { return critpath.WriteWaterfall(w, lin) })
		waterS = append(waterS, s)
		pr.set("trace.chrome_bytes", float64(chromeBytes), "bytes")
	}
	var frameCount, spans int64
	ops := map[string]int64{}
	for _, r := range onRes {
		frameCount += int64(r.FramesRead)
		spans += int64(len(r.Spans))
		for _, st := range r.SpanStats {
			ops[st.Component+"."+st.Name] += st.Count
		}
		if p := r.Crit.Path; p.Attributed+p.Untracked != p.Makespan {
			pr.fail("critpath "+r.Cfg.Label(), fmt.Errorf("attributed %v + untracked %v != makespan %v",
				p.Attributed, p.Untracked, p.Makespan))
		}
		if err := checkRun(r, jac.FrameBytes()); err != nil {
			pr.fail("core "+r.Cfg.Label(), err)
		}
	}
	pr.set("core.run_ms", median(offS)*1e3, "ms")
	pr.set("core.allocs_per_frame", float64(offMallocs)/float64(frameCount), "count")
	pr.set("core.frames", float64(frameCount), "count")
	pr.set("observe.overhead_frac", median(onS)/median(offS)-1, "ratio")
	pr.set("observe.alloc_mb", (float64(onAlloc)-float64(offAlloc))/1e6, "MB")
	pr.set("trace.chrome_write_s", median(chromeS), "s")
	pr.set("metrics.csv_write_s", median(csvS), "s")
	pr.set("critpath.waterfall_write_s", median(waterS), "s")
	pr.set("trace.spans", float64(spans), "count")
	for _, op := range []string{"net.transfer", "net.rpc_service", "kvs.commit", "kvs.lookup",
		"lustre.ost_rpc", "lustre.mds_rpc", "ssd.write", "ssd.read"} {
		pr.set("ops."+op+".count", float64(ops[op]), "count")
	}

	// Capacity pressure and fault recovery: exact counters the runs
	// publish on Result.Capacity and Result.Recovery.
	pressured := base[0]
	pressured.LustreFallback = true
	pressured.Capacity = &repro.CapacitySpec{StagingBytes: 2 * jac.FrameBytes(), Policy: repro.PolicyLRU}
	faulted := base[0]
	faulted.LustreFallback = true
	faulted.Faults = &repro.FaultSpec{Events: []repro.FaultEvent{
		{At: 2 * time.Second, Kind: faults.BrokerCrash, Target: 0, For: 500 * time.Millisecond},
	}}
	end := pr.rec.begin("core", "run_pressured")
	res, _, _, _ := runSet([]repro.Config{pressured, faulted})
	end()
	var capm repro.CapacityMetrics
	var rec repro.RecoveryMetrics
	for _, r := range res {
		capm.Add(r.Capacity)
		rec.Add(r.Recovery)
	}
	pr.set("capacity.evictions", float64(capm.Evictions), "count")
	pr.set("capacity.spilled_frames", float64(capm.SpilledFrames), "count")
	pr.set("faults.retries", float64(rec.Retries), "count")
	pr.set("faults.degraded_reads", float64(rec.DegradedReads), "count")
}

// timeExport runs one exporter under a span and returns its seconds and
// the bytes it wrote. The bytes go to io.Discard, so the timing measures
// serialization, not a file system.
func (pr *prober) timeExport(layer, name string, write func(io.Writer) error) (float64, int64) {
	w := &countingWriter{w: io.Discard}
	end := pr.rec.begin(layer, name)
	start := time.Now()
	err := write(w)
	secs := time.Since(start).Seconds()
	end()
	if err == nil && w.n == 0 {
		err = fmt.Errorf("empty export")
	}
	if err != nil {
		pr.fail(layer+"."+name, err)
	}
	return secs, w.n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
