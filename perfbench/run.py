#!/usr/bin/env python3
"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload graph|dense|serve --seed N \
        --seconds S --trace 0|1

Builds the simulator library and the perfbench binary from source
(CMake, Release) under $CARGO_TARGET_DIR (default .bench_build) of the
checkout, runs the workload for about S seconds, checks that every
simulated run validated and repeated its exact counts, and prints one
JSON object as the last line of stdout. --trace 0 measures the
end-to-end metrics with tracing off; --trace 1 is the separate traced
run that yields the per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

HEADLINE = "headline"  # the six configs of the paper's headline figures

# Inputs are <workload>:<scale>. Graph and dense scales are chosen so
# every job lasts tens to a couple of hundred ms and none dominates;
# the serve mix is many short requests.
WORKLOADS = {
    "graph": {
        "inputs": "bfs:0.5,pch:0.25,pr:0.05",
        "configs": HEADLINE,
        "rate": 5.0,
    },
    "dense": {
        "inputs": "dis:0.5,tra:1.5,fdt:0.5,cho:0.75,adi:1,sei:0.75,"
                  "pf:0.75,nw:0.75,pca:0.75",
        "configs": HEADLINE,
        "rate": 10.0,
    },
    "serve": {
        "inputs": "fdt:0.25,bfs:0.25,nw:0.25,sei:0.25",
        "configs": "Dist-DA-IO,Dist-DA-F,OoO",
        "rate": 60.0,
    },
}

# Self-test sizes: the same workloads, small enough to run in seconds.
TINY_INPUTS = {
    "graph": "bfs:0.05,pch:0.02,pr:0.01",
    "dense": "fdt:0.1,sei:0.1,nw:0.1",
    "serve": "fdt:0.1,nw:0.1",
}

# Daemon pool workers; with the generator's 2 connections (kConnections
# in serve.cc) the served side stays within 4 hardware threads.
POOL_JOBS = 2
SERVE_SETUP_REPS = 15
READY_TIMEOUT_S = 60.0

# Host times are reported as measured x REF_MS / (the interquartile
# mean time of the host-speed reference chunks, referenceMs in
# common.hh, timed alongside them: set-up times with the chunks timed
# between set-ups, the rest with the chunks timed between jobs or
# batches): seconds at a fixed reference speed. 10 ms is close to the chunk's median on
# the 4-thread Xeon host this benchmark was defined on (about 9.5 ms).
REF_MS = 10.0

# Metric names and units come from BENCHMARK.json.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build perfbench; returns the build directory."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir


def run_json(args, timeout):
    """Run a perfbench mode and parse the JSON document it prints."""
    out = subprocess.run(["./perfbench"] + args, check=True, text=True,
                         stdout=subprocess.PIPE, timeout=timeout).stdout
    return json.loads(out.strip().splitlines()[-1])


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail(values, q=0.99):
    """The q-quantile if ten samples lie beyond it, else the highest
    quantile that has ten beyond it (never below the median). Returns
    (value, quantile used)."""
    used = max(0.5, min(q, 1.0 - 10.0 / len(values)))
    return quantile(values, used), used


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def iqm(values):
    """Interquartile mean: the mean of the middle half."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.mean(v[cut:len(v) - cut])


class Daemon:
    """One `perfbench daemon`; stop() drains it and returns its stats."""

    SOCKET = "perfbench.sock"  # relative: AF_UNIX paths are short

    def __init__(self):
        self.proc = subprocess.Popen(
            ["./perfbench", "daemon", "--socket=" + self.SOCKET,
             "--jobs=%d" % POOL_JOBS],
            stdout=subprocess.PIPE, text=True)
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        ready = sel.select(READY_TIMEOUT_S)
        sel.close()
        if not ready or self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise BenchError("daemon did not start")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("daemon did not drain")
        lines = [ln for ln in out.splitlines() if ln.startswith("{")]
        return json.loads(lines[-1]) if lines else None


def first_request(cfg):
    """One cold request on a fresh daemon: the first input under the
    first config (fixed, so set-up time does not depend on the seed)."""
    wl, scale = cfg["inputs"].split(",")[0].split(":")
    model = cfg["configs"].split(",")[0]
    if model == HEADLINE:
        model = "OoO"
    req = {"id": 1, "workload": wl, "config": model, "scale": float(scale)}
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(60)
        s.connect(Daemon.SOCKET)
        s.sendall((json.dumps(req) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    try:
        return json.loads(buf).get("ok") is True
    except ValueError:
        return False


def serve_setup(cfg, reps):
    """Daemon start + first cold request, `reps` times, each after the
    reference chunks of a `perfbench ref`; the last daemon is left
    running. Returns (seconds list, reference ms list, daemon,
    attempted, failed)."""
    times, ref_ms, failed, daemon = [], [], 0, None
    for _ in range(reps):
        if daemon:
            daemon.stop()
        ref_ms += run_json(["ref"], 60)["ref_ms"]
        t0 = time.perf_counter()
        daemon = Daemon()
        try:
            ok = first_request(cfg)
        except OSError:
            ok = False
        times.append(time.perf_counter() - t0)
        failed += 0 if ok else 1
    return times, ref_ms, daemon, reps, failed


def sweep_args(cfg, args, seconds, trace):
    out = ["sweep", "--inputs=" + cfg["inputs"],
           "--configs=" + cfg["configs"], "--seed=%d" % args.seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace]
    if trace:
        out.append("--spans-out=spans-%s.json" % args.workload)
    return out


def load_args(cfg, args, seconds, rate):
    return ["load", "--socket=" + Daemon.SOCKET,
            "--inputs=" + cfg["inputs"], "--configs=" + cfg["configs"],
            "--seed=%d" % args.seed, "--seconds=%g" % seconds,
            "--rate=%g" % rate]


def normalise(raw, notes):
    """Host times at reference speed; see REF_MS. `raw` maps a metric
    to (measured value, reference chunk ms timed alongside it)."""
    out = {}
    for name, (value, ref) in raw.items():
        factor = REF_MS / iqm(ref)
        notes.append("raw.%s %.6g (host speed factor %.4f)"
                     % (name, value, factor))
        out[name] = value * factor
    return out


def sweep_metrics(sweep, notes):
    """End-to-end metrics of a timed sweep. Passes and jobs are averaged
    over the run, not medianed: the host's speed drifts within a run,
    and a mean follows the mixture where a median jumps between
    modes."""
    ref, setup_ref = sweep["ref_ms"], sweep["setup_ref_ms"]
    m = normalise({
        "wall_s": (statistics.mean(sweep["pass_ms"]) / 1000.0, ref),
        "run_ms_geomean": (geomean(
            [statistics.mean(j["ms"]) for j in sweep["jobs"]]), ref),
        "setup_s": (statistics.median(sweep["setup_ms"]) / 1000.0,
                    setup_ref),
    }, notes)
    m["peak_rss_mb"] = sweep["peak_rss_mb"]
    return m


def serve_metrics(load, setup_s, setup_ref, daemon_stats, notes):
    """End-to-end metrics of the timed closed-loop serve run."""
    by_kind = {}
    for kind, probe, ok, lat, _late, _run, _bytes in load["requests"]:
        by_kind.setdefault((kind, probe), []).append(lat)
    ref = load["ref_ms"]
    m = normalise({
        "wall_s": (statistics.mean(load["batch_ms"]) / 1000.0, ref),
        "run_ms_geomean": (geomean(
            [statistics.median(v) for v in by_kind.values()]), ref),
        "setup_s": (statistics.median(setup_s), setup_ref),
    }, notes)
    m["peak_rss_mb"] = daemon_stats["peak_rss_mb"]
    return m


def layer_metrics(sweep, load, notes):
    """Per-layer metrics from a traced sweep and an open-loop phase."""
    tr = sweep["trace"]

    def med(src, *names):
        return statistics.median(
            sum(d.get(n, 0.0) for n in names) for d in src)

    def total(name):
        return sum(j["counts"][name] for j in sweep["jobs"])

    def ratio(a, b):
        return a / b if b else 0.0

    passes, setups = tr["pass_spans"], tr["setup_spans"]
    run_ms = med(passes, "engine.run.ooo", "engine.run.accel")
    reqs = load["requests"]
    ok_reqs = [r for r in reqs if r[2]]
    late, late_q = tail([r[4] for r in reqs])
    notes.append("serve.late_ms is p%.1f of %d requests"
                 % (100 * late_q, len(reqs)))
    probe_runs = [r[5] for r in ok_reqs if r[1]] or [0.0]
    m = {
        "workloads.setup_ms": med(passes, "workloads.make",
                                  "driver.system", "workloads.setup"),
        "workloads.validate_ms": med(passes, "workloads.validate"),
        "compiler.compile_ms": med(setups, "compiler.compile"),
        "compiler.kernels": tr["kernels"],
        "compiler.plan_cache.hit_rate": ratio(
            load["plan_hits"], load["plan_hits"] + load["plan_misses"]),
        "verify.verify_ms": med(setups, "verify.verify"),
        "engine.run_ms.ooo": med(passes, "engine.run.ooo"),
        "engine.run_ms.accel": med(passes, "engine.run.accel"),
        "engine.insts": total("engine.insts"),
        "engine.ns_per_inst": ratio(run_ms * 1e6, total("engine.insts")),
        "offload.invocations": total("offload.invocations"),
        "offload.mmio_ops": total("offload.mmio_ops"),
        "mem.cache_accesses": total("mem.cache_accesses"),
        "mem.l1d.accesses": total("mem.l1d.accesses"),
        "mem.l1d.hit_ratio": ratio(total("mem.l1d.hits"),
                                   total("mem.l1d.accesses")),
        "mem.l2.accesses": total("mem.l2.accesses"),
        "mem.l2.hit_ratio": ratio(total("mem.l2.hits"),
                                  total("mem.l2.accesses")),
        "mem.acp.accesses": total("mem.acp.accesses"),
        "mem.l3.accesses": total("mem.l3.accesses"),
        "mem.l3.hit_ratio": 1.0 - ratio(total("mem.l3.misses"),
                                        total("mem.l3.accesses")),
        "mem.dram.reads": total("mem.dram.reads"),
        "mem.dram.row_hit_ratio": ratio(
            total("mem.dram.row_hits"),
            total("mem.dram.row_hits") + total("mem.dram.row_misses")),
        "mem.ns_per_access": ratio(run_ms * 1e6,
                                   total("mem.cache_accesses")),
        "noc.packets": total("noc.packets"),
        "noc.hop_flits": total("noc.hop_flits"),
        "noc.bytes": total("noc.bytes"),
        "sim.time_ns": total("sim.time_ns"),
        "sim.rate": ratio(total("sim.time_ns"),
                          statistics.median(sweep["pass_ms"])),
        "driver.report_ms": med(passes, "driver.report"),
        "serve.parse_us": load["parse_us"],
        "serve.run_ms": statistics.median(r[5] for r in ok_reqs),
        "serve.queue_ms": statistics.median(r[3] - r[5] for r in ok_reqs),
        "serve.probe_run_ms": statistics.median(probe_runs),
        "serve.response_kb": statistics.mean(r[6] for r in reqs) / 1000.0,
        "serve.late_ms": late,
        "trace.overhead_pct": 100.0 * (
            statistics.median(tr["traced_pass_ms"])
            / statistics.median(sweep["pass_ms"]) - 1.0),
    }
    return m


def counts_record(sweep, load):
    """Digests of every job's and request kind's exact counts."""
    rec = {}
    if sweep:
        rec.update({"sweep:" + j["id"]: j["digest"] for j in sweep["jobs"]})
    if load:
        rec.update({"serve:" + k["id"]: k["digest"] for k in load["kinds"]})
    return rec


def run(args, cfg):
    """Returns (metrics, units, attempted, failed, errors, counts)."""
    seconds = args.seconds
    errors, notes = [], []
    sweep = load = None
    if args.trace:
        # Half the time each: the traced in-process sweep, and an
        # open-loop phase of the same inputs through the daemon.
        sweep = run_json(sweep_args(cfg, args, seconds / 2, 1), 170)
        daemon = Daemon()
        try:
            load = run_json(load_args(cfg, args, seconds / 2, cfg["rate"]),
                            170)
        finally:
            stats = daemon.stop()
        metrics = layer_metrics(sweep, load, notes)
        log("spans written to %s"
            % os.path.abspath("spans-%s.json" % args.workload))
        units = PER_LAYER
        attempted = sweep["attempted"] + load["attempted"]
        failed = sweep["failed"] + load["failed"]
        errors = sweep["errors"] + load["errors"]
        # A served run must report exactly what the same run does
        # in-process.
        direct = {j["id"]: j["digest"] for j in sweep["jobs"]}
        for kind in load["kinds"]:
            if kind["digest"] != direct.get(kind["id"]):
                failed += 1
                errors.append("served %s differs from the in-process run"
                              % kind["id"])
    elif args.workload != "serve":
        sweep = run_json(sweep_args(cfg, args, seconds, 0), 170)
        metrics = sweep_metrics(sweep, notes)
        units = END_TO_END
        attempted, failed = sweep["attempted"], sweep["failed"]
        errors = sweep["errors"]
        stats = {"errors": 0}
    else:
        setup_s, setup_ref, daemon, attempted, failed = serve_setup(
            cfg, SERVE_SETUP_REPS)
        try:
            load = run_json(load_args(cfg, args, seconds, 0.0), 170)
        finally:
            stats = daemon.stop()
        metrics = serve_metrics(load, setup_s, setup_ref, stats, notes)
        units = END_TO_END
        attempted += load["attempted"]
        failed += load["failed"]
        errors = load["errors"]
    if stats is None or stats["errors"]:
        failed += 1
        errors.append("daemon reported errors: %s" % stats)
    for n in notes:
        print("note: " + n)
    return metrics, units, attempted, failed, errors, counts_record(
        sweep, load)


def main():
    global POOL_JOBS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes instead of the benchmark's")
    ap.add_argument("--pool-jobs", type=int, default=POOL_JOBS,
                    help="daemon pool width (self-test)")
    ap.add_argument("--counts-out",
                    help="write exact-count digests here (self-test)")
    args = ap.parse_args()

    POOL_JOBS = args.pool_jobs
    cfg = dict(WORKLOADS[args.workload])
    if args.tiny:
        cfg["inputs"] = TINY_INPUTS[args.workload]

    try:
        build_dir = build()
        os.chdir(build_dir)
        metrics, units, attempted, failed, errors, counts = run(args, cfg)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1

    for e in errors:
        log("failed: " + e)
    if args.counts_out:
        with open(os.path.join(ROOT, args.counts_out), "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)
    for name, unit in units.items():
        print("%-30s %14.6g %s" % (name, metrics[name], unit))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
