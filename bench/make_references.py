"""Compute the reference cvar values the benchmark scores its estimates against.

Slow (about 15 s on a 2-core machine) and deterministic: run it only
when the reference definition changes, then commit ``references.json``.

    python3 bench/make_references.py

References, each the mean of k independent runs with SE = sd / sqrt(k):

* portfolio (configs/portfolio.json model) at beta = 1e-6: importance
  sampling with h = 2.6, 5 runs of n = 200 000;
* relu (configs/relu.json model, built-in network loss) at beta = 1e-3:
  plain Monte Carlo, 4 runs of n = 1 000 000.

The seeds come from ``derive_seed(REFERENCE_BASE_SEED, ...)``, a stream no
benchmark workload draws from.
"""

from __future__ import annotations

import json
import math
import sys
import time

from common import CONFIGS, REFERENCES, import_tailshift

REFERENCE_BASE_SEED = 7_000_001

PLAN = {
    "portfolio": {"config": "portfolio.json", "beta": 1e-6, "method": "is", "h": 2.6,
                  "n": 200_000, "runs": 5},
    "relu": {"config": "relu.json", "beta": 1e-3, "method": "naive", "h": None,
             "n": 1_000_000, "runs": 4},
}


def reference(ts, name, plan):
    spec = ts.cli.parse_config(CONFIGS / plan["config"])
    exp = spec.experiment
    values, seeds = [], []
    for k in range(plan["runs"]):
        seed = ts.derive_seed(REFERENCE_BASE_SEED, list(PLAN).index(name), plan["method"], k)
        cfg = ts.ISConfig(beta=plan["beta"], n=plan["n"], seed=seed, h=plan["h"])
        report = ts.estimate(exp.dist, exp.loss, cfg, method=plan["method"])
        values.append(report.cvar_hat)
        seeds.append(seed)
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    se = sd / math.sqrt(len(values))
    return {**plan, "cvar": mean, "se": se, "rel_se": se / mean, "seeds": seeds,
            "values": values}


def main():
    ts = import_tailshift()
    import tailshift.cli  # noqa: F401  (parse_config lives there)
    out = {}
    for name, plan in PLAN.items():
        started = time.perf_counter()
        out[name] = reference(ts, name, plan)
        print(f"{name}: cvar = {out[name]['cvar']:.6g}, rel se = {out[name]['rel_se']:.3%} "
              f"({time.perf_counter() - started:.1f} s)", file=sys.stderr)
    REFERENCES.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES}", file=sys.stderr)


if __name__ == "__main__":
    main()
