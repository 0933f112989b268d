"""Command line front end.

Subcommands:

* estimate   one estimation per beta level, written as CSV rows
* crossval   pick h from a grid by replication cv at one level
* benchmark  relative-error-vs-beta tables for both methods, plus the
             naive sample count needed to match the importance error
* varratio   replication cv of both methods side by side

Every run writes a manifest.json next to its CSVs holding the fully
resolved configuration; passing that manifest back via --config reproduces
the CSVs byte for byte.  Exit codes: 0 success, 1 usage or configuration
error, 2 estimation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .distributions import CorrelationMatrix, DistributionSpec, _count, _real
from .errors import ConfigError, DomainError, EstimationError, WeightsFileError
from .harness import (  # noqa: F401  (REPLICATION_COLUMNS is re-exported)
    AffineH, ExperimentConfig, FixedH, GridH, REPLICATION_COLUMNS, SUMMARY_COLUMNS,
    ReplicationTable, _cv_reps, cross_validate_h, run_replications, summarize, write_rows_csv,
)
from .losses import _KINDS, LossModel, _params_from_dict, _params_to_dict, load_relu_params
from .transform import _check_stretch_level, extrapolation_factor

_LOSS_KINDS = tuple(k for k in _KINDS if k != "external")    # a config names no callable
_METHODS = ("is", "naive", "both")
_PATTERNS = ("tridiagonal", "equicorrelated", "identity")

VARRATIO_COLUMNS = ("beta", "cv_is", "cv_naive", "naive_status")
CROSSVAL_COLUMNS = ("h", "cv", "n_ok", "status", "selected")

_MATCH_MAX_FACTOR = 64           # the naive-match search stops past max(factor * n, cap)
_MATCH_HARD_CAP = 512_000


@dataclass(frozen=True)
class RunSpec:
    """A parsed configuration: experiment plus method choice."""

    experiment: ExperimentConfig
    method: str                  # one of _METHODS
    resolved: dict               # JSON-ready config that rebuilds this spec

    @property
    def methods(self):
        return ("is", "naive") if self.method == "both" else (self.method,)


def _require(doc, field, types, where=""):
    name = f"{where}.{field}" if where else field
    if field not in doc:
        raise ConfigError("required entry is missing", field=name)
    value = doc[field]
    if types is not None and not isinstance(value, types):
        raise ConfigError(f"expected {types}, got {type(value).__name__}", field=name)
    return value


def _entries(doc, where, keys):
    """doc, checked to be an object that holds no entry outside keys, the entries it reads.

    A ConfigError names such an entry as <where>.<entry>."""
    if not isinstance(doc, dict):
        raise ConfigError("must be an object", field=where)
    if unknown := sorted(set(doc) - set(keys)):
        raise ConfigError(f"unknown entries: {', '.join(unknown)}; this object reads only "
                          f"{', '.join(sorted(keys))}",
                          field=f"{where}.{unknown[0]}" if where else unknown[0])
    return doc


def _number(value, field):
    """value as a float if it is a finite JSON number; a ConfigError naming field if not."""
    try:
        return _real(field, value)
    except DomainError:
        raise ConfigError(f"expected a finite number, got {value!r}", field=field) from None


@contextmanager
def _refused(field=None):
    """Turn a DomainError the library raises in the body into a ConfigError naming field."""
    try:
        yield
    except DomainError as exc:
        raise ConfigError(str(exc), field=field) from None


def _parse_correlation(spec, dim):
    if isinstance(spec, str):
        spec = {"pattern": spec}
    if not isinstance(spec, dict):
        raise ConfigError("must be a pattern name, a pattern object or a matrix object",
                          field="dist.correlation")
    with _refused("dist.correlation"):
        if "matrix" in spec:
            return CorrelationMatrix(_entries(spec, "dist.correlation", ("matrix",))["matrix"])
        pattern = _require(spec, "pattern", str, where="dist.correlation")
        if pattern not in _PATTERNS:
            raise ConfigError(f"unknown pattern {pattern!r}, expected one of {_PATTERNS}",
                              field="dist.correlation.pattern")
        keys = ("pattern",) if pattern == "identity" else ("pattern", "c")
        _entries(spec, "dist.correlation", keys)
        if pattern == "identity":
            return CorrelationMatrix.identity(dim)
        c = _require(spec, "c", None, where="dist.correlation")
        if pattern == "tridiagonal":
            return CorrelationMatrix.tridiagonal(dim, c)
        return CorrelationMatrix.equicorrelated(dim, c)


def _parse_loss(spec, base_dir):
    kind = _require(spec, "kind", str, where="loss")
    if kind not in _LOSS_KINDS:
        raise ConfigError(f"unknown kind {kind!r}, expected one of {_LOSS_KINDS}", field="loss.kind")
    # relu_net reads its weights inline or from a file, not both
    weights = ("weights" if "weights" in spec else "weights_file",) if kind == "relu_net" else ()
    _entries(spec, "loss", ("kind", "rho", *weights))
    rho = {"rho": _number(spec["rho"], "loss.rho")} if "rho" in spec else {}
    # outside the try: a ConfigError is a ValueError, which the try words as bad weights
    if weights == ("weights_file",):
        rel = Path(_require(spec, "weights_file", str, where="loss"))
        path = rel if rel.is_absolute() else base_dir / rel
    params = None
    try:
        if "weights" in spec:
            params = _params_from_dict(spec["weights"], "inline weights")
        elif kind == "relu_net":
            params = load_relu_params(path)
        loss = LossModel(kind=kind, relu=params, **rho)
    except FileNotFoundError as exc:
        raise ConfigError(f"weights file not found: {exc}", field="loss.weights_file") from None
    except DomainError as exc:        # before ValueError, which it subclasses
        raise ConfigError(str(exc), field="loss") from None
    except (WeightsFileError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad network weights: {exc}", field="loss") from None
    resolved = {"kind": kind, "rho": loss.rho}
    if params is not None:
        resolved["weights"] = _params_to_dict(params)
    return loss, resolved


def _parse_h_rule(spec):
    # json reads NaN and Infinity, and --h arrives here as a number
    if not isinstance(spec, dict):
        h = _number(spec, "h")
        return FixedH(h), {"fixed": h}
    form = next((k for k in ("fixed", "grid", "affine") if k in spec), None)
    if form is None:
        raise ConfigError("must be a number or hold 'fixed', 'grid' or 'affine'", field="h")
    value = _entries(spec, "h", (form,))[form]
    if form == "fixed":
        h = _number(value, "h.fixed")
        return FixedH(h), {"fixed": h}
    if form == "grid":
        try:
            grid = GridH(tuple(value))
        except (TypeError, DomainError) as exc:
            raise ConfigError(f"bad h grid: {exc}", field="h.grid") from None
        return grid, {"grid": list(grid.values)}
    aff = _entries(value, "h.affine", ("intercept", "slope"))
    rule = AffineH(*(_number(_require(aff, k, None, where="h.affine"), "h.affine")
                     for k in ("intercept", "slope")))
    return rule, {"affine": {"intercept": rule.intercept, "slope": rule.slope}}


_TOP_KEYS = {"dist", "loss", "betas", "n", "reps", "h", "seed", "method", "threads"}


def parse_config(path, overrides=None):
    """Read and validate a run configuration (or a manifest) from JSON.

    overrides maps {"seed", "method", "betas", "h", "threads"} to values
    from the command line; they are applied before validation and recorded
    in the resolved configuration.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError("config parse error: top level must be an object")
    if "resolved_config" in doc:       # a manifest reproduces its own run
        doc = doc["resolved_config"]
        if not isinstance(doc, dict):
            raise ConfigError("manifest holds no usable resolved_config")

    _entries(doc, "", _TOP_KEYS)

    for key, value in (overrides or {}).items():
        if value is not None:
            doc = {**doc, key: value}

    dist_doc = _entries(_require(doc, "dist", dict), "dist", ("alphas", "correlation"))
    alphas_spec = _require(dist_doc, "alphas", (list, dict), where="dist")
    if isinstance(alphas_spec, dict):
        _entries(alphas_spec, "dist.alphas", ("value", "dim"))
        try:
            alphas_spec = [alphas_spec["value"]] * _count("dim", alphas_spec["dim"], 0)
        except (KeyError, DomainError) as exc:
            raise ConfigError(f"bad alphas object: {exc}", field="dist.alphas") from None
    alphas = [_number(a, "dist.alphas") for a in alphas_spec]
    correlation = _parse_correlation(
        _require(dist_doc, "correlation", None, where="dist"), len(alphas))
    with _refused("dist"):
        dist = DistributionSpec.from_alphas(alphas, correlation)

    loss, loss_resolved = _parse_loss(_require(doc, "loss", dict), path.parent)

    betas_spec = _require(doc, "betas", None)
    betas = [_number(b, "betas")
             for b in (betas_spec if isinstance(betas_spec, list) else [betas_spec])]

    method = doc.get("method", "is")
    if method not in _METHODS:
        raise ConfigError(f"must be 'is', 'naive' or 'both', got {method!r}", field="method")

    # the importance method's needs (a level below 1/e, an h) are _check_h_rule's, per command
    h_rule, h_resolved = _parse_h_rule(doc["h"]) if "h" in doc else (None, None)

    n = _require(doc, "n", (int, float))
    counts = {name: _require(doc, key, (int, float))
              for key, name in (("reps", "reps"), ("seed", "base_seed"), ("threads", "threads"))
              if key in doc}
    # ExperimentConfig owns the study rules and the counts' defaults: whole counts, distinct
    # levels in (0, 1)
    with _refused():
        experiment = ExperimentConfig(dist=dist, loss=loss, betas=tuple(betas), n=n,
                                      h_rule=h_rule, **counts)

    resolved = {
        "dist": {
            "alphas": alphas,
            "correlation": ({"matrix": [[float(v) for v in row] for row in correlation.matrix]}
                            if "matrix" in (dist_doc.get("correlation") or {})
                            else dist_doc["correlation"]),
        },
        "loss": loss_resolved,
        "betas": betas,
        "n": experiment.n,
        "reps": experiment.reps,
        "seed": experiment.base_seed,
        "method": method,
        "threads": experiment.threads,
    }
    if h_resolved is not None:
        resolved["h"] = h_resolved
    return RunSpec(experiment=experiment, method=method, resolved=resolved)


def _write_manifest(out_dir, command, config_path, spec, outputs, wall_seconds):
    manifest = {
        "command": command,
        "config_path": str(config_path),
        "package_version": __version__,
        "outputs": [str(p) for p in outputs],
        "wall_seconds": wall_seconds,
        "resolved_config": spec.resolved,
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _check_h_rule(command, spec):
    """Refuse, before any output, what the command's importance runs cannot use.

    Every level must lie below 1/e.  crossval and varratio need two replications for a cv,
    and run the importance method whatever the config's method.  crossval needs an h grid,
    whose unusable points it skips; elsewhere the rule must stretch outward at every level.
    """
    exp, rule = spec.experiment, spec.experiment.h_rule
    if command not in ("crossval", "varratio") and "is" not in spec.methods:
        return
    with _refused("betas"):
        for beta in exp.betas:
            _check_stretch_level(beta)
    if command in ("crossval", "varratio"):
        with _refused("reps"):
            _cv_reps(exp.reps)
    if command == "crossval":
        if not isinstance(rule, GridH):
            raise ConfigError("crossval needs an h grid ({'grid': [...]})", field="h")
        return
    if rule is None or isinstance(rule, GridH):
        raise ConfigError(f"{command} runs the importance method, which needs a fixed or "
                          "affine h (or --h); an h grid only works with crossval", field="h")
    with _refused("h"):
        for beta in exp.betas:
            extrapolation_factor(beta, rule.h_for(beta))


def cmd_estimate(spec, out_dir):
    """One estimation per (method, beta); a failed row carries its status tag."""
    single = replace(spec.experiment, reps=1)
    rows = [r for method in spec.methods for r in run_replications(single, method).rows]
    for r in rows:
        if r.status == "ok":
            print(f"{r.method:>5}  beta={r.beta:<12g} var={r.var_hat:<12.6g} "
                  f"cvar={r.cvar_hat:<12.6g} se={r.cvar_se:.3g}")
        else:
            print(f"{r.method:>5}  beta={r.beta:<12g} FAILED ({r.status})")
    out = out_dir / "estimates.csv"
    ReplicationTable(rows=rows).write_csv(out)
    return (2 if any(r.status != "ok" for r in rows) else 0), [out]


def cmd_crossval(spec, out_dir):
    """Cross-validate h on the grid at the smallest configured beta."""
    exp = spec.experiment
    beta = min(exp.betas)
    result = cross_validate_h(exp, exp.h_rule, beta, reps_cv=exp.reps)
    rows = [(e.h, e.cv, e.n_ok, e.status, int(e.h == result.selected_h)) for e in result.entries]
    out = out_dir / "crossval.csv"
    write_rows_csv(out, CROSSVAL_COLUMNS, rows)
    print(f"beta={beta:g}: selected h = {result.selected_h:g}")
    for e in result.entries:
        mark = " <-- selected" if e.h == result.selected_h else ""
        print(f"  h={e.h:<6g} cv={e.cv:<10.4g} {e.status}{mark}")
    return 0, [out]


def cmd_benchmark(spec, out_dir):
    """Error-vs-beta tables for both methods plus the naive matching size."""
    exp = spec.experiment
    tables = [run_replications(exp, m) for m in spec.methods]
    rep_path = out_dir / "replications.csv"
    ReplicationTable(rows=[r for t in tables for r in t.rows]).write_csv(rep_path)
    summary_rows = [row for table in tables for row in summarize(table)]

    match = None
    if spec.method == "both":
        match = _naive_matching_n(spec, summary_rows)
        if match is not None:
            summary_rows.append(match[1])

    sum_path = out_dir / "summary.csv"
    write_rows_csv(sum_path, SUMMARY_COLUMNS,
                   [tuple(row[c] for c in SUMMARY_COLUMNS) for row in summary_rows])
    for row in summary_rows:
        print(f"{row['method']:>5}  beta={row['beta']:<12g} n={row['n']:<8d} "
              f"rel_rmse_cvar={row['rel_rmse_cvar']:<10.4g} mean_cvar={row['mean_cvar']:.6g}")
    if match is not None:
        matched, row = match
        if matched:
            print(f"naive matches the importance error at beta={row['beta']:g} "
                  f"with n = {row['n']}")
        else:
            print(f"naive match budget exhausted at beta={row['beta']:g}: "
                  f"n = {row['n']} still above the importance error")
    return 0, [rep_path, sum_path]


def _naive_matching_n(spec, summary_rows):
    """Double the naive n at the largest beta until its cv matches the
    importance cv (or the budget runs out); returns (matched, summary row)."""
    exp = spec.experiment
    beta = max(exp.betas)
    target = next((r["rel_rmse_cvar"] for r in summary_rows
                   if r["method"] == "is" and r["beta"] == beta), float("nan"))
    if not math.isfinite(target):
        return None
    sub = replace(exp, betas=(beta,), reps=min(exp.reps, 20))
    budget = max(_MATCH_MAX_FACTOR * exp.n, _MATCH_HARD_CAP)
    while True:
        # below n * beta = 5 every row is tagged infeasible: no values, cv nan
        [row] = summarize(run_replications(sub, "naive"))
        matched = math.isfinite(row["rel_rmse_cvar"]) and row["rel_rmse_cvar"] <= target
        if matched or sub.n * 2 > budget:
            return matched, {**row, "method": "naive-match", "rel_rmse_var": float("nan")}
        sub = replace(sub, n=sub.n * 2)


def cmd_varratio(spec, out_dir):
    """Replication cv of both methods at every beta."""
    is_table, naive_table = (run_replications(spec.experiment, m) for m in ("is", "naive"))
    infeasible = {r.beta for r in naive_table.rows if r.status == "infeasible"}
    # summarize's rel_rmse_cvar, as benchmark --method both reports it: one summary row per
    # level in each table, in the config's order
    rows = [(s["beta"], s["rel_rmse_cvar"], v["rel_rmse_cvar"],
             "infeasible" if s["beta"] in infeasible
             else "failed" if math.isnan(v["rel_rmse_cvar"]) else "ok")
            for s, v in zip(summarize(is_table), summarize(naive_table))]
    out = out_dir / "varratio.csv"
    write_rows_csv(out, VARRATIO_COLUMNS, rows)
    for beta, cv_is, cv_naive, status in rows:
        print(f"beta={beta:<12g} cv_is={cv_is:<10.4g} cv_naive={cv_naive:<10.4g} ({status})")
    return 0, [out]


_COMMANDS = {
    "estimate": cmd_estimate,
    "crossval": cmd_crossval,
    "benchmark": cmd_benchmark,
    "varratio": cmd_varratio,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tailshift",
        description="Importance sampling for value-at-risk and cvar of heavy tails.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", required=True, help="JSON run configuration (or a manifest)")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--threads", type=int, default=None, help="worker threads for replications")
        p.add_argument("--out", default=".", help="directory for CSV and manifest outputs")
        p.add_argument("--method", choices=_METHODS, default=None,
                       help="override the configured method")
        p.add_argument("--beta", type=float, action="append", default=None,
                       help="override the beta levels (repeatable)")
        p.add_argument("--h", type=float, default=None, help="override h with a fixed value")
    return parser


def main(argv=None):
    """Run the command line; returns the exit code instead of exiting."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    overrides = {
        "seed": args.seed,
        "threads": args.threads,
        "method": args.method,
        "betas": args.beta,
        "h": args.h,
    }
    try:
        spec = parse_config(args.config, overrides)
        _check_h_rule(args.command, spec)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        code, outputs = _COMMANDS[args.command](spec, out_dir)
        manifest = _write_manifest(out_dir, args.command, args.config, spec, outputs,
                                   time.perf_counter() - started)
        print(f"wrote {', '.join(str(p) for p in outputs)} and {manifest}")
        return code
    except (ConfigError, WeightsFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EstimationError, DomainError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 2


def cli_entry():
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
