"""Run every workload on several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 [--first-seed 1] [--out FILE]

Every workload of BENCHMARK.json runs for its ``run_seconds``, on seeds
``first-seed`` onwards.  Runs are sequential, one benchmark process at a
time.  For each end-to-end metric it prints the median over the seeds and
the spread: the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, next to the
metric's bound from BENCHMARK.json.  A spread above a third of the bound is
marked.  Each workload then gets one
traced run (``--trace 1``) on the first seed for its per-layer numbers.
``--out`` saves every run's result, the summary, the traced run and the
machine record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH, ROOT


def run_one(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return json.loads(lines[-1]), machine


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    seconds = doc["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in doc["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.perf_counter()
            result, machine = run_one(workload, seed, seconds)
            runs.append({"seed": seed, "process_s": time.perf_counter() - started, **result})
            report["machine"] = machine
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"({runs[-1]['process_s']:.1f} s)", flush=True)
        summary = {}
        for name, bound in bounds.items():
            median, share = spread([r["metrics"][name]["value"] for r in runs])
            summary[name] = {"median": median, "spread": share, "bound": bound,
                             "unit": runs[0]["metrics"][name]["unit"]}
            mark = "" if share < bound / 3 else ("  > bound/3" if share <= bound else "  > BOUND")
            print(f"  {name:16s} median {median:<12.6g} spread {share:.4f} "
                  f"bound {bound}{mark}", flush=True)
        traced, _ = run_one(workload, args.first_seed, seconds, trace=1)
        print(f"  traced: correct={traced['correct']} overhead "
              f"{traced['metrics']['trace.overhead_frac']['value']:+.4f}", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
