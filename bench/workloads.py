"""The four benchmark workloads: one closed-loop request each, plus its checks.

A workload is built once per process (that is the set-up ``setup_s`` times:
importing the package and parsing the config or building the model), then
``call`` is made again and again by a single caller, each call only after
the previous one returned.  ``outcome`` turns a call's result into rows and
runs its output checks.  Every row is (beta, var_hat, cvar_hat, cvar_se, status).

Why each workload exists, and which layers it should move:

* study     -- ``tailshift benchmark --method is`` on configs/portfolio.json:
  4 levels x 50 reps x n=1000, the everyday replication table.  The trace
  puts about 95% of a call in the numpy kernels (densities, sampling, the
  stretch, the sort) and about 3% in per-call overhead (estimate's own
  code, harness, the CSV writer), so batching replications can win only
  what it saves in the kernels.
* crossval  -- ``tailshift crossval`` on configs/crossval_portfolio.json:
  5 h x 20 reps at beta=1e-6 with the same seeds at every h.  Reusing the
  samples across h should win here and change nothing on study.
* large-n   -- ``estimate()`` on the portfolio model at beta=1e-6 with the config's h=2.6,
  n=1e5; no harness, no CLI.  numpy throughput of sampling, the stretch,
  the densities and the sort dominates; harness changes predict no change.
* blackbox  -- ``run_replications`` on the configs/relu.json model with the
  network wrapped as a pure-Python per-row callable (``LossModel.external``).
  The loss is about 3/4 of the traced time, so kernel wins predict little and
  any change that calls the loss more often shows.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from common import CONFIGS, BenchError
from tracing import Patcher


def request_seed(seed, i):
    """Seed of request i of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(i)]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one request produced, after its output checks."""

    estimates: int                    # estimates attempted
    failed: int = 0                   # non-ok status or failed check
    problems: list = field(default_factory=list)
    level_rows: list = field(default_factory=list)   # ok (cvar_hat, cvar_se) at the level
    cvars: list = field(default_factory=list)        # every cvar_hat, in order


def outcome_from_rows(rows, level, problems=()):
    """Check every row and collect the ones at the reference level.

    A request-level problem (bad exit code, wrong selection) fails all of
    the request's estimates.
    """
    out = Outcome(estimates=len(rows), problems=list(problems))
    for beta, var_hat, cvar_hat, cvar_se, status in rows:
        out.cvars.append(cvar_hat)
        if status != "ok":
            out.failed += 1
        elif not all(math.isfinite(v) for v in (var_hat, cvar_hat, cvar_se)):
            out.failed += 1
            out.problems.append(f"ok row with non-finite values at beta={beta!r}")
        elif beta == level:
            out.level_rows.append((cvar_hat, cvar_se))
    if out.problems:
        out.failed = out.estimates
    return out


def _table_rows(table):
    return [(r.beta, r.var_hat, r.cvar_hat, r.cvar_se, r.status) for r in table.rows]


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _csv_rows(path):
    return [(float(r["beta"]), float(r["var_hat"]), float(r["cvar_hat"]), float(r["cvar_se"]),
             r["status"]) for r in _read_csv(path)]


class Workload:
    """Set-up and one closed-loop request of a workload."""

    name = ""
    reference = ""        # key in references.json
    level = 0.0           # beta the error metrics are scored at
    n = 0                 # samples per estimate
    panel = 0             # requests whose rows the error metrics use
    python_share = 0.0    # share of plain-Python work in the reference work (speed.py)

    def __init__(self, ts, workdir):
        import tailshift.cli  # noqa: F401  (part of the set-up users pay)
        self.ts = ts
        self.workdir = workdir

    def request_seed(self, seed, i):
        return request_seed(seed, i)

    def call(self, seed):
        raise NotImplementedError

    def outcome(self, seed, result):
        raise NotImplementedError

    def close(self):
        """Undo what the set-up changed."""


class _CliWorkload(Workload):
    command = ""
    config = ""

    def __init__(self, ts, workdir):
        super().__init__(ts, workdir)
        self.spec = ts.cli.parse_config(CONFIGS / self.config)
        if self.spec.experiment.threads != 1:
            raise BenchError(f"{self.config} must run with threads=1")
        self.n = self.spec.experiment.n
        self._devnull = open(os.devnull, "w", encoding="utf-8")

    def argv(self, seed):
        return [self.command, "--config", str(CONFIGS / self.config),
                "--out", str(self.workdir), "--seed", str(seed)]

    def call(self, seed):
        with contextlib.redirect_stdout(self._devnull):
            return self.ts.cli.main(self.argv(seed))

    def close(self):
        self._devnull.close()


class Study(_CliWorkload):
    name = "study"
    command = "benchmark"
    config = "portfolio.json"
    reference = "portfolio"
    level = 1e-6
    panel = 16

    def argv(self, seed):
        return super().argv(seed) + ["--method", "is"]

    def outcome(self, seed, exit_code):
        path = self.workdir / "replications.csv"
        if exit_code != 0 or not path.is_file():
            exp = self.spec.experiment
            return Outcome(estimates=len(exp.betas) * exp.reps, failed=len(exp.betas) * exp.reps,
                           problems=[f"benchmark exited {exit_code}"])
        rows = _csv_rows(path)
        path.unlink()
        return outcome_from_rows(rows, self.level)


class Crossval(_CliWorkload):
    """The CLI reports only cv per h, so the replication tables behind it are
    tapped where ``cross_validate_h`` looks up ``run_replications``."""

    name = "crossval"
    command = "crossval"
    config = "crossval_portfolio.json"
    reference = "portfolio"
    level = 1e-6
    panel = 28

    def __init__(self, ts, workdir):
        super().__init__(ts, workdir)
        self._tables = []
        self._tap = Patcher()
        self._tap.patch_function("harness", "run_replications", self._make_tap)

    def _make_tap(self, run_replications):
        tables = self._tables

        def tapped(*args, **kwargs):
            table = run_replications(*args, **kwargs)
            tables.append(table)
            return table

        return tapped

    def call(self, seed):
        self._tables.clear()
        return super().call(seed)

    def outcome(self, seed, exit_code):
        rows = [row for table in self._tables for row in _table_rows(table)]
        path = self.workdir / "crossval.csv"
        problems = []
        if exit_code != 0 or not path.is_file():
            problems.append(f"crossval exited {exit_code}")
        else:
            problems.extend(self._check_selection(_read_csv(path)))
            path.unlink()
        return outcome_from_rows(rows, self.level, problems)

    @staticmethod
    def _check_selection(entries):
        """selected_h must be the smallest-cv ok entry (ties to the smaller h)."""
        ok = [(float(e["cv"]), float(e["h"])) for e in entries if e["status"] == "ok"]
        chosen = [float(e["h"]) for e in entries if e["selected"] == "1"]
        if not ok:
            return ["no ok crossval entry"]
        if chosen != [min(ok)[1]]:
            return [f"selected h {chosen} is not the argmin {min(ok)[1]} of cv"]
        return []

    def close(self):
        self._tap.restore()
        super().close()


class LargeN(Workload):
    """Scores its error on a fixed panel of seeds.

    One n=1e5 estimate takes about half a second, so a run holds a few dozen
    of them: too few for a steady error figure if every run drew new inputs.
    Request i uses panel seed (seed + i) mod panel instead, so the first
    ``panel`` requests of any run cover the whole panel, the error metrics
    compare code versions on identical inputs, and --seed sets the order.
    """

    name = "large-n"
    reference = "portfolio"
    level = 1e-6
    n = 100_000
    panel = 32
    PANEL_ENTROPY = 1_000_003

    def __init__(self, ts, workdir):
        super().__init__(ts, workdir)
        exp = ts.cli.parse_config(CONFIGS / "portfolio.json").experiment
        self.dist, self.loss = exp.dist, exp.loss
        self.h = exp.h_rule.h_for(self.level)

    def request_seed(self, seed, i):
        return request_seed(self.PANEL_ENTROPY, (int(seed) + i) % self.panel)

    def call(self, seed):
        cfg = self.ts.ISConfig(beta=self.level, n=self.n, seed=seed, h=self.h)
        try:
            return self.ts.estimate(self.dist, self.loss, cfg)
        except self.ts.EstimationError as exc:
            return exc

    def outcome(self, seed, report):
        if isinstance(report, Exception):
            return Outcome(estimates=1, failed=1, cvars=[math.nan])
        return outcome_from_rows(
            [(report.beta, report.var_hat, report.cvar_hat, report.cvar_se, "ok")], self.level)


def relu_row_callable(params):
    """The network w2' relu(W1 x + b1) + b2, one input row at a time, in plain Python."""
    W1 = params.W1.tolist()
    b1 = params.b1.tolist()
    w2 = params.w2.tolist()
    b2 = params.b2

    def loss(x):
        x = x.tolist()
        out = 0.0
        for weights, bias, w_out in zip(W1, b1, w2):
            pre = sum(w * v for w, v in zip(weights, x)) + bias
            if pre > 0.0:
                out += w_out * pre
        return out + b2

    return loss


class Blackbox(Workload):
    name = "blackbox"
    reference = "relu"
    level = 1e-3
    panel = 18
    python_share = 0.75   # the traced share of the per-row loss
    TOLERANCE = 1e-12     # relative; the built-in sums in another order

    def __init__(self, ts, workdir):
        super().__init__(ts, workdir)
        exp = ts.cli.parse_config(CONFIGS / "relu.json").experiment
        if exp.threads != 1:
            raise BenchError("relu.json must run with threads=1")
        self.builtin = exp
        self.external = replace(exp, loss=ts.LossModel.external(relu_row_callable(exp.loss.relu),
                                                                 rho=1.0))
        self.n = exp.n

    def call(self, seed):
        return self.ts.run_replications(replace(self.external, base_seed=seed), "is")

    def outcome(self, seed, table):
        """The rows must match those of the built-in network loss on the same seeds."""
        rows = _table_rows(table)
        expected = _table_rows(
            self.ts.run_replications(replace(self.builtin, base_seed=seed), "is"))
        same = len(rows) == len(expected) and all(
            _same_row(got, want, self.TOLERANCE) for got, want in zip(rows, expected))
        problems = [] if same else ["rows differ from the built-in relu_net loss"]
        return outcome_from_rows(rows, self.level, problems)


def _same_row(got, want, rel):
    """Same status, and values equal to a relative tolerance (nan only matches nan)."""
    if got[4] != want[4]:
        return False
    for a, b in zip(got[1:4], want[1:4]):
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                return False
        elif abs(a - b) > rel * max(abs(a), abs(b)):
            return False
    return True


WORKLOADS = {cls.name: cls for cls in (Study, Crossval, LargeN, Blackbox)}
