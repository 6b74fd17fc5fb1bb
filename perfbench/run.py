#!/usr/bin/env python3
"""Repository benchmark: host cost of the simulator on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper-quick --seed 1 --seconds 20 --trace 0

It builds perfbench/ (a Go module that uses the simulator as a library)
into .bench_build/, then starts one measuring process per pass:

  --trace 0  set-up samples, then untraced passes until --seconds have
             elapsed; prints the end-to-end metrics (medians over passes).
  --trace 1  one untraced pass, one traced pass (spans around every call
             into the simulator) and the layer probes; prints the
             per-layer metrics.

Every pass's outputs are checked (digests against golden.json on the
default seed 0, determinism across passes, invariants on any seed). The
last line of stdout is one JSON object: correct, attempted, failed,
metrics. All records, spans included, are written under
.bench_build/perfbench/records/. Exits non-zero if an output is wrong.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper-quick", "fleet-1024", "observed-stress")
SETUP_SAMPLES = 15  # set-up-only processes per run, on top of one per pass
DEADLINE_S = 170  # a run must end within 180 s; leave room to report


class BenchError(Exception):
    pass


def go_env():
    """Keeps every file the Go toolchain writes inside the checkout."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),  # toolchain telemetry
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod -buildvcs=false",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        raise BenchError("no go.mod at the repository root: the simulator sources are missing")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    r = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout.decode(errors="replace"))


def stamp():
    """Source identity: the git revision when there is one, and always a
    digest of every Go source and module file of the repository."""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL)
        if r.returncode == 0:
            rev = r.stdout.decode().strip()
    h = hashlib.sha256()
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if not x.startswith("."))
        for f in sorted(files):
            if f.endswith(".go") or f in ("go.mod", "golden.json"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return {"git_rev": rev, "source_sha256": h.hexdigest()}


def spawn(args, deadline):
    """Runs one measuring process. Returns (setup seconds, JSON record or
    None). Set-up is the time from process start to its "ready" line."""
    start = time.perf_counter()
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != b"ready":
            raise BenchError("%s: no ready line (got %r)" % (" ".join(args), line))
        rest = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))[0]
    except subprocess.TimeoutExpired:
        raise BenchError("%s: exceeded the run deadline" % " ".join(args))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError("%s: exit status %d" % (" ".join(args), proc.returncode))
    rest = rest.strip()
    return setup, (json.loads(rest.splitlines()[-1]) if rest else None)


def pass_args(workload, seed, traced=False, setup_only=False):
    a = ["pass", "-workload", workload, "-seed", str(seed)]
    if traced:
        a.append("-traced")
    if setup_only:
        a.append("-setup-only")
    return a


def check_passes(recs):
    """Counts failed operations: reported failures, golden mismatches, and
    passes whose output differs from the first pass of the same seed."""
    failed = sum(r["failed"] for r in recs)
    for r in recs[1:]:
        if r["digest"] != recs[0]["digest"]:
            failed += 1
            print("check: pass digest %s differs from first pass %s" % (r["digest"], recs[0]["digest"]))
    for r in recs:
        for f in r.get("failures") or []:
            print("check: " + f)
    return sum(r["attempted"] for r in recs), failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    setups, recs = [], []
    for _ in range(SETUP_SAMPLES):
        s, _ = spawn(pass_args(args.workload, args.seed, setup_only=True), deadline)
        setups.append(s)
    t0 = time.monotonic()
    while not recs or time.monotonic() - t0 < args.seconds:
        s, rec = spawn(pass_args(args.workload, args.seed), deadline)
        setups.append(s)
        recs.append(rec)
    med = lambda k: statistics.median(r[k] for r in recs)
    m = {
        "wall_s": metric(med("wall_s"), "s"),
        "cpu_s": metric(med("cpu_s"), "s"),
        "alloc_mb": metric(med("alloc_mb"), "MB"),
        "allocs_m": metric(med("allocs_m"), "millions"),
        "max_rss_mb": metric(med("max_rss_mb"), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    extra = {"passes": len(recs), "setup_samples": len(setups)}
    if recs[0]["frames"]:
        extra["frames_per_s"] = med("frames_per_s")
    return recs, m, extra


def per_layer(args, deadline):
    _, plain = spawn(pass_args(args.workload, args.seed), deadline)
    _, traced = spawn(pass_args(args.workload, args.seed, traced=True), deadline)
    _, probes = spawn(["probes", "-seed", str(args.seed)], deadline)
    recs = [plain, traced]
    m = {k: v for k, v in sorted(probes["metrics"].items())}
    m["trace_overhead_frac"] = metric(traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    m["host.gc_cycles"] = metric(plain["gc_cycles"], "count")
    m["host.gc_cpu_s"] = metric(plain["gc_cpu_s"], "s")
    # Numbers only this workload exposes (metric_map.json, workload_only):
    # span self times, exact counters and throughput. Printed and
    # recorded, not part of the result line.
    extra = {}
    for key, ms in traced["self_ms"].items():
        layer, name = key.split(".", 1)
        if name.startswith("run.") and layer == "experiments":
            extra["experiments.run_s." + name[4:]] = ms / 1e3
        elif name.startswith("render.") and layer == "experiments":
            extra["experiments.render_ms"] = extra.get("experiments.render_ms", 0) + ms
        else:
            extra["pass.%s_s" % key] = ms / 1e3
    extra.update({"count." + k: v for k, v in (traced.get("counts") or {}).items()})
    if traced["frames"]:
        extra["frames_per_s"] = traced["frames_per_s"]
        extra["frames"] = traced["frames"]
    extra["traced_wall_s"] = traced["wall_s"]
    extra["untraced_wall_s"] = plain["wall_s"]
    return recs, probes, m, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    build()
    env = stamp()
    deadline = max(deadline, time.monotonic() + DEADLINE_S - 10)  # a cold build gets its own budget

    probes = None
    if args.trace:
        recs, probes, m, extra = per_layer(args, deadline)
        want = spec["per_layer"]
    else:
        recs, m, extra = end_to_end(args, deadline)
        want = spec["end_to_end"]
    # check_passes also compares the traced pass with the untraced one:
    # tracing is observation-only, so their outputs must be identical.
    attempted, failed = check_passes(recs)
    if probes is not None:
        attempted += len(probes["metrics"])
        for f in probes.get("failures") or []:
            failed += 1
            print("check: probe " + f)
        m["fail_frac"] = metric(failed / attempted, "ratio")

    missing = [x["name"] for x in want if x["name"] not in m]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    env.update(recs[0]["env"])
    env.update({"workload": args.workload, "seed": args.seed, "trace": args.trace})
    goldens = sorted({r["golden"] for r in recs})

    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    out = os.path.join(BUILD, "records", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(out, "w") as fh:
        json.dump({"env": env, "metrics": m, "extra": extra, "passes": recs, "probes": probes}, fh)

    print("env: " + " ".join("%s=%s" % kv for kv in sorted(env.items())))
    print("golden: %s" % ",".join(goldens))
    for name, v in sorted(m.items()):
        print("%-40s %16.6g %s" % (name, v["value"], v["unit"]))
    for name, v in sorted(extra.items()):
        print("%-40s %16.6g (%s only)" % (name, v, args.workload))
    print("records: " + os.path.relpath(out, ROOT))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {x["name"]: m[x["name"]] for x in want},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        sys.exit(1)
