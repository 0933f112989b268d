"""Replication experiments: error tables, h selection, naive comparisons.

Every replication derives its own seed from (base_seed, beta index, method,
replication index) through numpy's SeedSequence, so tables are reproducible
bit for bit, independent of worker count and of which subset of levels is
run.  Failed replications are recorded with a status tag instead of
aborting the table.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .errors import DomainError, EstimationError
from .distributions import _count, _draw_size, _instance, _real, _reals
from .estimators import EstimateReport, ISConfig, _cells, _estimates, _method_code
from .losses import LossModel, _check_input_dim
from .transform import _check_beta, _check_stretch_level, extrapolation_factor

__all__ = [
    "FixedH",
    "AffineH",
    "GridH",
    "pert_h_rule",
    "ExperimentConfig",
    "ReplicationRow",
    "REPLICATION_COLUMNS",
    "ReplicationTable",
    "derive_seed",
    "run_replications",
    "relative_rmse",
    "summarize",
    "SUMMARY_COLUMNS",
    "CrossValEntry",
    "CrossValResult",
    "cross_validate_h",
]

SUMMARY_COLUMNS = (
    "method", "beta", "h", "n", "reps", "rel_rmse_var", "rel_rmse_cvar", "mean_cvar",
)


@dataclass(frozen=True)
class FixedH:
    """The same h at every level."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _real("h", self.value))

    def h_for(self, beta):
        return self.value


@dataclass(frozen=True)
class AffineH:
    """h(beta) = intercept + slope * log(1/beta) for beta in (0, 1].

    beta = 1 (the intercept) is admitted although no estimation accepts it.
    """

    intercept: float
    slope: float

    def __post_init__(self):
        for name in ("intercept", "slope"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))

    def h_for(self, beta):
        beta = _real("beta", beta, lambda b: 0.0 < b <= 1.0, "lie in (0, 1]")
        return self.intercept + self.slope * math.log(1.0 / beta)


@dataclass(frozen=True)
class GridH:
    """Distinct candidate h values: run_replications weighs each draw at every one."""

    values: tuple

    def __post_init__(self):
        try:
            vals = tuple(_real("h grid values", v) for v in self.values)
        except TypeError:                  # values is no sequence: a number, or an h rule
            raise DomainError(f"h grid values must be a sequence, got {self.values!r}") from None
        if not vals:
            raise DomainError("h grid must not be empty")
        if len(set(vals)) != len(vals):
            raise DomainError(f"h grid values must be distinct, got {vals}")
        object.__setattr__(self, "values", vals)


pert_h_rule = AffineH(2.0, 0.6)   # the affine rule for the project network runs


@dataclass(frozen=True)
class ExperimentConfig:
    """A replication study: input model, loss, levels and sizes."""

    dist: object
    loss: LossModel
    betas: tuple
    n: int
    h_rule: object
    reps: int = 50
    base_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        # object dtype keeps each level's own type, for _check_beta to judge
        betas = tuple(_check_beta(b) for b in np.atleast_1d(np.array(self.betas, dtype=object)))
        if not betas:
            raise DomainError("at least one beta level is required")
        if len(set(betas)) != len(betas):
            raise DomainError(f"beta levels must be distinct, got {betas}")
        object.__setattr__(self, "betas", betas)
        _check_input_dim(self.loss, self.dist)
        object.__setattr__(self, "n", _draw_size(self.n, self.dist.dim))
        rule = self.h_rule
        if not (rule is None or isinstance(rule, GridH) or hasattr(rule, "h_for")):
            raise DomainError(f"h_rule must be None, a GridH or a rule with h_for such as FixedH, "
                              f"got {rule!r}")
        for name, low in (("reps", 1), ("threads", 1), ("base_seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), low))


def derive_seed(base_seed, beta_index, method, rep):
    """Stable per-replication seed from (base seed, level, method, replication), indices >= 0."""
    code = _method_code(method)
    ss = np.random.SeedSequence([_count("base_seed", base_seed, 0),
                                 _count("beta_index", beta_index, 0), code, _count("rep", rep, 0)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, kw_only=True)
class ReplicationRow(EstimateReport):
    """One replication: its EstimateReport (nan estimates if it failed), index and status tag."""

    rep: int
    status: str


REPLICATION_COLUMNS = (
    "method", "beta", "h", "n", "rep", "seed", "var_hat", "cvar_hat", "cvar_se", "status",
)


@dataclass
class ReplicationTable:
    """Rows of replication results in deterministic (beta, rep, h) order: one h but for a grid."""

    rows: list

    def rows_for(self, beta=None):
        return self.rows if beta is None else [r for r in self.rows if r.beta == beta]

    def values(self, field, beta=None):
        """Array of one field over the successful rows."""
        rows = [r for r in self.rows_for(beta) if r.status == "ok"]
        return np.array([getattr(r, field) for r in rows], dtype=float)

    def write_csv(self, path):
        # the fields as they are: astuple would deep-copy every row first
        write_rows_csv(path, REPLICATION_COLUMNS, map(attrgetter(*REPLICATION_COLUMNS), self.rows))


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_rows_csv(path, columns, rows):
    """Write a CSV deterministically: repr floats, stable order, no clock."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def run_replications(config, method):
    """Run reps independent estimations at every beta level.

    The naive method is attempted only where n * beta >= 5; infeasible
    levels still get their rows, carrying the status tag "infeasible".
    Other estimation failures inside a replication are recorded the same
    way rather than aborting: "tail-mass" (too little weighted mass, or no
    weighted sample above var) and "bad-loss" (the loss raised or returned a
    non-finite value).  An unknown method, or an importance (beta, h) cell
    that cannot stretch outward, raises DomainError before any draw, as
    does a config that is no ExperimentConfig.

    An importance run under a GridH draws each replication once and weighs
    it at every grid point, where a failure at one h leaves the others as
    they were; the rows come in (beta, rep, h) order.
    """
    def replicate(beta, cells, rep, seed):
        results = _estimates(config.dist, config.loss, ISConfig(beta=beta, n=config.n, seed=seed),
                             method, cells)
        nan = float("nan")
        return [ReplicationRow(method=method, beta=beta, h=h, n=config.n, seed=seed, var_hat=nan,
                               cvar_hat=nan, cvar_se=nan, rep=rep, status=got.status)
                if isinstance(got, EstimationError) else
                ReplicationRow(**vars(got), rep=rep, status="ok")
                for (h, _), got in zip(cells, results)]

    _instance("config", config, ExperimentConfig)
    rule = config.h_rule if method == "is" else None
    tasks = []
    for bi, beta in enumerate(config.betas):
        # without a rule h stays None, which the importance method refuses
        hs = rule.values if isinstance(rule, GridH) else (rule.h_for(beta) if rule else None,)
        cells = _cells(beta, hs, method, config.loss)
        for rep in range(config.reps):
            tasks.append((beta, cells, rep, derive_seed(config.base_seed, bi, method, rep)))
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            per_task = list(pool.map(lambda t: replicate(*t), tasks))
    else:
        per_task = [replicate(*t) for t in tasks]
    return ReplicationTable(rows=[row for rows in per_task for row in rows])


def relative_rmse(values, reference=None):
    """Relative root mean squared error of replicated estimates.

    Without a reference: sample standard deviation (n - 1 divisor) around
    the replication mean, divided by the mean (the usual coefficient of
    variation).  With a reference: sqrt(mean((v - reference)^2)) divided by
    the mean of the values.
    """
    v = _reals("values", values, np.isfinite, "be finite")
    if v.ndim != 1 or v.size == 0:
        raise DomainError("values must be a nonempty 1-d collection")
    mean = float(v.mean())
    if mean == 0.0:
        raise DomainError("relative error undefined: mean of values is zero")
    if reference is None:
        if v.size < 2:
            raise DomainError("need at least two values without a reference")
        return float(v.std(ddof=1) / mean)
    return float(math.sqrt(float(np.mean((v - _real("reference", reference)) ** 2))) / mean)


def _spread(values):
    """relative_rmse of the values, or nan for fewer than two or a zero mean."""
    v = np.asarray(values, dtype=float)
    return relative_rmse(v) if v.size >= 2 and v.mean() != 0 else float("nan")


def summarize(table):
    """Aggregate a replication table into one row per (method, beta, h).

    Relative errors follow the no-reference convention; a column with fewer
    than two successful replications, or a zero mean, reports a nan error.
    """
    _instance("table", table, ReplicationTable)
    groups = {}                        # first-seen order of the (method, beta, h) keys
    for r in table.rows:
        groups.setdefault((r.method, r.beta, r.h), []).append(r)
    out = []
    for (method, beta, h), rows in groups.items():
        ok = [r for r in rows if r.status == "ok"]
        var_vals = np.array([r.var_hat for r in ok])
        cvar_vals = np.array([r.cvar_hat for r in ok])
        out.append({
            "method": method,
            "beta": beta,
            "h": h,
            "n": rows[0].n,
            "reps": len(rows),
            "rel_rmse_var": _spread(var_vals),
            "rel_rmse_cvar": _spread(cvar_vals),
            "mean_cvar": float(cvar_vals.mean()) if len(ok) else float("nan"),
        })
    return out


@dataclass(frozen=True)
class CrossValEntry:
    h: float
    cv: float
    status: str        # "ok", "skipped: no outward extrapolation", "failed"
    n_ok: int = 0


@dataclass(frozen=True)
class CrossValResult:
    beta: float
    selected_h: float
    entries: tuple


def _select_h(entries):
    """Smallest-cv entry; exact ties go to the smaller h."""
    ok = [e for e in entries if e.status == "ok"]
    if not ok:
        raise EstimationError("cross-validation failed at every h grid point")
    best = min(ok, key=lambda e: (e.cv, e.h))
    return best.h


def _cv_reps(reps_cv):
    """reps_cv as an int of at least 2, the fewest replications that have a cv."""
    if (reps_cv := _count("reps_cv", reps_cv, 1)) < 2:
        raise DomainError(f"a replication cv needs at least 2 replications, got {reps_cv}")
    return reps_cv


def cross_validate_h(config, grid, beta, reps_cv=20):
    """Pick h from a grid by minimizing the replication cv of the cvar.

    Each grid point scores the spread of the cvar estimates of reps_cv
    importance replications at the one level beta, from the same derived
    seeds (common random numbers): one run_replications call under a GridH
    of the points that stretch outward draws each replication once and
    weighs it at all of them.  A grid that is no sequence of h values (a
    number, or a fixed or affine rule), a level outside (0, 1/e) or fewer
    than two replications raise DomainError before any draw; grid points
    whose r = h log log(1/beta) <= 1 are skipped; if every point fails, an
    EstimationError is raised.
    """
    _instance("config", config, ExperimentConfig)
    beta, reps_cv = _check_stretch_level(beta), _cv_reps(reps_cv)
    values = (grid if isinstance(grid, GridH) else GridH(grid)).values
    by_h = {}
    for h in values:
        try:
            extrapolation_factor(beta, h)
        except DomainError:
            by_h[h] = CrossValEntry(h=h, cv=float("nan"), status="skipped: no outward extrapolation")
    if live := [h for h in values if h not in by_h]:
        sub = replace(config, betas=(beta,), h_rule=GridH(tuple(live)), reps=reps_cv)
        rows = run_replications(sub, "is").rows
        for h in live:
            vals = np.array([r.cvar_hat for r in rows if r.h == h and r.status == "ok"])
            cv = _spread(vals)
            by_h[h] = CrossValEntry(h=h, cv=cv, status="failed" if math.isnan(cv) else "ok",
                                    n_ok=int(vals.size))
    entries = tuple(by_h[h] for h in values)
    return CrossValResult(beta=beta, selected_h=_select_h(entries), entries=entries)

