"""Closed-loop benchmark of tailshift: one workload per fresh process.

    python3 bench/run.py --workload study --seed 1 --seconds 20 --trace 0

One caller sends requests back to back, each only after the last returned,
for ``--seconds`` seconds (and at least the workload's error panel).  The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of BENCHMARK.json.  Metric names, units and directions are
read from BENCHMARK.json and documented in bench/README.md.  Every time in
the end-to-end metrics is divided by the host's slowdown, measured by the
reference work of speed.py around each request and inside each set-up probe.

The traced run alternates an untraced and a traced call on the same request
seed, so the trace overhead and the bit-identity of cvar_hat between the two
are measured on identical work.  Spans go to .bench_out/trace-<workload>.jsonl.

Exits 0 after the result line.  Where it cannot run (no package source, no
configs, a failed self-check) it exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# BLAS runs on one thread, set before numpy loads it (set-up probes inherit
# it).  With the default of one thread per core, every BLAS call in a request
# waits for a worker on the other core, so a request's time follows whatever
# else that core runs: a busy loop on it doubles `study`'s wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from common import BENCH, OUT_DIR, REFERENCES, ROOT, BenchError, import_tailshift
from speed import Speed
from tracing import Patcher, Tracer
from workloads import WORKLOADS

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SETUP_PROBES = 7
WARMUP_REQUEST = 2**31


@dataclass
class Record:
    wall: float
    cpu: float
    outcome: object
    slowdown: float = 1.0     # of the host around the request (speed.py)

    @property
    def norm_wall(self):
        return self.wall / self.slowdown

    @property
    def norm_cpu(self):
        return self.cpu / self.slowdown


def declared_metrics():
    """{mode: {name: unit}} from BENCHMARK.json, names checked."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        out[mode] = {m["name"]: m["unit"] for m in doc[key]}
        bad = [name for name in out[mode] if not NAME_RE.fullmatch(name)]
        if bad:
            raise BenchError(f"metric names outside [A-Za-z0-9_.-]: {bad}")
    return out


def machine_record():
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def time_setup(workload):
    """Seconds from starting a fresh interpreter to the workload being ready,
    and the slowdown the reference work saw in that interpreter."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "setup_probe.py"), workload],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        speed_line = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or not speed_line.startswith("speed ") or code != 0:
        raise BenchError(f"set-up probe for {workload} failed (exit {code})")
    return ready - started, float(speed_line[len("speed "):])


def timed_call(wl, seed):
    """One timed request; the output checks run after the clock stops."""
    c0, t0 = time.process_time(), time.perf_counter()
    result = wl.call(seed)
    t1, c1 = time.perf_counter(), time.process_time()
    return t1 - t0, c1 - c0, result


def timed_loop(wl, seed, seconds, speed):
    """Requests back to back, each bracketed by the reference work: a
    request's slowdown is the mean of the one measured just before it and
    the one just after (which is also the next request's before)."""
    records = []
    before = speed.measure()
    started = time.perf_counter()
    while len(records) < wl.panel or time.perf_counter() - started < seconds:
        s = wl.request_seed(seed, len(records))
        wall, cpu, result = timed_call(wl, s)
        after = speed.measure()
        records.append(Record(wall, cpu, wl.outcome(s, result), (before + after) / 2.0))
        before = after
    return records


def end_to_end(wl, records, setup, reference, attempted, failed):
    """The end-to-end metrics; every time in them is normalised (speed.py)."""
    per_estimate = [r.norm_wall / r.outcome.estimates for r in records]
    level_rows = [row for r in records[:wl.panel] for row in r.outcome.level_rows]
    cvars = np.array([c for c, _ in level_rows])
    ses = np.array([s for _, s in level_rows])
    if cvars.size == 0:
        raise BenchError("every panel request failed at the reference level")
    rel_rmse = math.sqrt(float(np.mean((cvars - reference) ** 2))) / float(np.mean(cvars))
    wall_per_estimate = statistics.median(per_estimate)
    return {
        "setup_s": statistics.median(s / slowdown for s, slowdown in setup),
        "samples_per_s": statistics.median(
            wl.n * r.outcome.estimates / r.norm_wall for r in records),
        "cpu_s": statistics.median(r.norm_cpu for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cvar_rel_rmse": rel_rmse,
        "work_norm_error": rel_rmse ** 2 * wall_per_estimate,
        "ci95_coverage": float(np.mean(np.abs(cvars - reference) <= 1.96 * ses)),
        "ok_frac": 1.0 - failed / attempted,
    }


def traced_loop(wl, seed, seconds, tracer):
    """Pairs of untraced and traced calls on the same seed.

    Returns (records of both passes, pairs run, overhead fraction, problems).
    """
    records, problems = [], []
    plain_wall = traced_wall = 0.0
    started = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - started < seconds:
        s = wl.request_seed(seed, i)
        wall, cpu, result = timed_call(wl, s)
        plain = Record(wall, cpu, wl.outcome(s, result))
        patcher = Patcher()
        tracer.request = i
        try:
            tracer.install(patcher)
            wall_t, cpu_t, result = timed_call(wl, s)
        finally:
            patcher.restore()
        not_restored = patcher.check_restored()
        if not_restored:
            raise BenchError(f"patched functions not restored: {not_restored}")
        traced = Record(wall_t, cpu_t, wl.outcome(s, result))
        if (np.asarray(plain.outcome.cvars, dtype=float).tobytes()
                != np.asarray(traced.outcome.cvars, dtype=float).tobytes()):
            problems.append(f"request {i}: traced cvar_hat differs from untraced")
            traced.outcome.failed = traced.outcome.estimates
        records += [plain, traced]
        plain_wall += plain.wall
        traced_wall += traced.wall
        i += 1
    return records, i, traced_wall / plain_wall - 1.0, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = declared_metrics()
    ts = import_tailshift()
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](ts, workdir)
    try:
        reference = references[wl.reference]["cvar"]
        speed = Speed(wl.python_share)
        speed.measure()
        wl.outcome(WARMUP_REQUEST, wl.call(WARMUP_REQUEST))
        if args.trace:
            tracer = Tracer()
            records, requests, overhead, problems = traced_loop(
                wl, args.seed, args.seconds, tracer)
            metrics = {**tracer.layer_metrics(requests), "trace.overhead_frac": overhead}
            tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl", {
                "workload": args.workload, "seed": args.seed, "requests": requests,
                "machine": machine})
        else:
            setup = [time_setup(args.workload) for _ in range(SETUP_PROBES)]
            records = timed_loop(wl, args.seed, args.seconds, speed)
            problems = []
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for r in records:
        problems.extend(r.outcome.problems)
    for p in problems[:20]:
        print(f"check failed: {p}", flush=True)
    attempted = sum(r.outcome.estimates for r in records)
    failed = sum(r.outcome.failed for r in records)
    if not args.trace:
        metrics = end_to_end(wl, records, setup, reference, attempted, failed)
        print(f"requests {len(records)}, raw medians: wall "
              f"{statistics.median(r.wall for r in records):.4f} s, cpu "
              f"{statistics.median(r.cpu for r in records):.4f} s, setup "
              f"{statistics.median(s for s, _ in setup):.4f} s; host slowdown median "
              f"{statistics.median(r.slowdown for r in records):.3f}, set-up "
              f"{statistics.median(d for _, d in setup):.3f}", flush=True)
    units = declared[args.trace]
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
