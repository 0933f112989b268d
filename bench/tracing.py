"""Spans around the package's public functions, recorded from outside.

Modules import these functions by name (``from .distributions import
sample_inputs``), so replacing a function in its home module alone would miss
most calls.  ``Patcher`` replaces a function at every place it is looked up:
each loaded ``tailshift`` module (and the package namespace) whose attribute
is the very same object.  ``LossModel.__call__`` is replaced on the class.
Everything is put back by ``Patcher.restore``, which ``Patcher.check_restored``
verifies.

``Tracer`` keeps its spans in memory: one list entry per call with its name,
the index of its parent span (the call it happened inside), the request it
belongs to, start and end times, and the rows it processed.  Self time is a
span's duration minus the durations of its children; the calls are made on
one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "tailshift"


def _rows_of_array(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def _rows_of_samples(samples):
    if isinstance(samples, tuple) and len(samples) == 2:
        return len(samples[0])
    return len(samples)


# (layer.function, home module, attribute, rows taken from the positional arguments)
FUNCTIONS = (
    ("distributions.sample_inputs", "distributions", "sample_inputs", lambda a: int(a[0])),
    ("distributions.joint_log_density", "distributions", "joint_log_density",
     lambda a: _rows_of_array(a[0])),
    ("transform.extrapolate", "transform", "extrapolate", lambda a: _rows_of_array(a[0])),
    ("transform.log_jacobian", "transform", "log_jacobian", lambda a: _rows_of_array(a[0])),
    ("transform.log_likelihood_ratio", "transform", "log_likelihood_ratio",
     lambda a: _rows_of_array(a[0])),
    ("estimators.estimate", "estimators", "estimate", None),
    ("estimators.value_at_risk", "estimators", "value_at_risk", lambda a: _rows_of_samples(a[0])),
    ("estimators.cvar", "estimators", "cvar", lambda a: _rows_of_samples(a[0])),
    ("estimators.cvar_standard_error", "estimators", "cvar_standard_error",
     lambda a: _rows_of_samples(a[0])),
    ("harness.run_replications", "harness", "run_replications", None),
    ("harness.cross_validate_h", "harness", "cross_validate_h", None),
    ("harness.derive_seed", "harness", "derive_seed", None),
    # defined in harness, but it is the CLI's CSV writer: the CLI looks it up
    ("cli.write_rows_csv", "harness", "write_rows_csv", lambda a: len(a[2])),
    ("cli.parse_config", "cli", "parse_config", None),
    ("cli.main", "cli", "main", None),
)
LOSS_CALL = "losses.loss_call"
SPAN_NAMES = tuple(name for name, *_ in FUNCTIONS) + (LOSS_CALL,)

# Which per-layer numbers each span reports besides .calls and .self_s.
WITH_ROWS = {name for name, _, _, rows in FUNCTIONS if rows is not None} | {
    LOSS_CALL, "harness.run_replications"}


def _count_rows(rows_of, args):
    """Rows an argument list carries; 0 when a call does not fit the pattern."""
    try:
        return int(rows_of(args))
    except (IndexError, TypeError, ValueError):
        return 0


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patcher:
    """Replace package functions at every lookup site and put them back."""

    def __init__(self):
        self._saved = []          # (owner, attribute, original)

    def patch_function(self, home, attr, make_wrapper):
        """Wrap ``tailshift.<home>.<attr>`` wherever it is looked up.

        Returns the module names patched; empty when the function is gone.
        """
        home_mod = sys.modules.get(f"{PACKAGE}.{home}")
        original = getattr(home_mod, attr, None)
        if original is None:
            return []
        wrapper = make_wrapper(original)
        sites = []
        for mod in _package_modules():
            if mod.__dict__.get(attr) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)
                sites.append(mod.__name__)
        return sites

    def patch_method(self, cls, attr, make_wrapper):
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def check_restored(self):
        """Names of the lookup sites that do not hold their original again."""
        bad = []
        for owner, attr, original in self._saved:
            current = owner.__dict__.get(attr)
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad


class Tracer:
    """In-memory span recorder for the calls made by one benchmark process."""

    def __init__(self):
        self.spans = []           # [name, parent, request, start, end, rows]
        self.errors = defaultdict(int)
        self.ok_rows = 0
        self.csv_bytes = 0
        self.request = None
        self._stack = []

    def _open(self, name, rows):
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, self.request, time.perf_counter(), 0.0, rows]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, rows_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, 0 if rows_of is None else _count_rows(rows_of, args))
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(span)
            if name == "harness.run_replications":
                rows = getattr(result, "rows", ())
                span[5] = len(rows)
                tracer.ok_rows += sum(getattr(r, "status", None) == "ok" for r in rows)
            elif name == "cli.write_rows_csv":
                tracer.csv_bytes += os.path.getsize(args[0])
            return result

        return traced

    def wrap_loss_call(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(model, x):
            span = tracer._open(LOSS_CALL, _count_rows(lambda a: _rows_of_array(a[0]), (x,)))
            try:
                return fn(model, x)
            finally:
                tracer._close(span)

        return traced

    def install(self, patcher):
        """Wrap every traced function; returns {span name: patched module names}."""
        sites = {}
        for name, home, attr, rows_of in FUNCTIONS:
            sites[name] = patcher.patch_function(
                home, attr, lambda fn, name=name, rows_of=rows_of: self.wrap(name, fn, rows_of))
        loss_model = sys.modules[f"{PACKAGE}.losses"].LossModel
        patcher.patch_method(loss_model, "__call__", self.wrap_loss_call)
        sites[LOSS_CALL] = [f"{PACKAGE}.losses.LossModel"]
        return sites

    def layer_metrics(self, requests):
        """Per-layer totals divided by the number of traced requests."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, rows, self_s = defaultdict(int), defaultdict(int), defaultdict(float)
        for i, (name, _, _, start, end, nrows) in enumerate(self.spans):
            calls[name] += 1
            rows[name] += nrows
            self_s[name] += (end - start) - child[i]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / requests
            if name in WITH_ROWS:
                out[f"{name}.rows"] = rows[name] / requests
            out[f"{name}.self_s"] = self_s[name] / requests
        out["estimators.estimate.errors"] = self.errors["estimators.estimate"] / requests
        out["cli.write_rows_csv.bytes"] = self.csv_bytes / requests
        replicated = rows["harness.run_replications"]
        out["harness.ok_ratio"] = self.ok_rows / replicated if replicated else 1.0
        return out

    def write(self, path, header):
        """Write the header line, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "span_fields": [
                "name", "parent", "request", "start_s", "end_s", "rows"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
