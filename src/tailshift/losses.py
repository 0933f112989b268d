"""Loss functions treated as black boxes by the estimators.

Built-ins: the 7-activity project completion time, the plain portfolio sum,
and a one-hidden-layer ReLU network.  Arbitrary callables can be wrapped
with an explicit scaling exponent rho.  Every loss takes a vector (d,) or a
batch (n, d), and nothing else, and returns a float or an (n,) array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _REALS, DistributionSpec, _count, _instance, _matmul, _per_sample, _positive_finite, _real,
    _reals, _sum_components,
)
from .errors import BadLossError, DomainError, WeightsDimensionError, WeightsFormatError

__all__ = [
    "PERT_DIM",
    "pert_completion_time",
    "linear_loss",
    "relu_net_loss",
    "ReluNetParams",
    "load_relu_params",
    "save_relu_params",
    "synthetic_relu_params",
    "LossModel",
]

PERT_DIM = 7


def pert_completion_time(x):
    """Longest path through the fixed 7-activity precedence network.

    x1 -> {x2, x3, x4} -> {x5 (after x2 or x3), x6 (after x3 or x4)} -> x7,
    so the completion time is
    x1 + x7 + max(x5 + max(x2, x3), x6 + max(x3, x4)).
    """
    return _per_sample(_pert_columns, x, dim=PERT_DIM)


def _pert_columns(xc):
    """Completion times of a component-major (7, m) block."""
    upper = xc[4] + np.maximum(xc[1], xc[2])
    lower = xc[5] + np.maximum(xc[2], xc[3])
    return xc[0] + xc[6] + np.maximum(upper, lower)


def linear_loss(x):
    """Sum of all components."""
    return _per_sample(_sum_components, x)


@dataclass(frozen=True, eq=False)
class ReluNetParams:
    """Weights of a one-hidden-layer ReLU network w2' relu(W1 x + b1) + b2.

    Equality is identity; compare weight arrays directly when needed.
    """

    W1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float = 0.0

    def __post_init__(self):
        try:
            # copies, made read-only below: the caller's own arrays stay writable
            W1, b1, w2 = (np.array(_reals(k, getattr(self, k), np.isfinite, "be finite numbers"))
                          for k in ("W1", "b1", "w2"))
            b2 = _real("b2", self.b2)
        except DomainError as exc:
            raise WeightsFormatError(str(exc)) from exc
        if W1.ndim != 2:
            raise WeightsDimensionError(f"W1 must be 2-d (hidden, d), got shape {W1.shape}")
        hidden = W1.shape[0]
        if b1.shape != (hidden,):
            raise WeightsDimensionError(f"b1 must have shape ({hidden},), got {b1.shape}")
        if w2.shape != (hidden,):
            raise WeightsDimensionError(f"w2 must have shape ({hidden},), got {w2.shape}")
        for name, arr in (("W1", W1), ("b1", b1), ("w2", w2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "b2", b2)

    @property
    def dim(self):
        return self.W1.shape[1]

    @property
    def hidden(self):
        return self.W1.shape[0]


def relu_net_loss(x, params):
    """Evaluate w2' relu(W1 x + b1) + b2 at x (vector or batch).

    A row's loss has the bits it has in any batch, so the loss of a block
    of samples is the loss of those rows in the whole draw.  A vector is
    evaluated as a batch of one row; the hidden layer takes numpy's
    matrix-matrix kernel at every batch size (``_matmul``), and the output
    layer adds the hidden units in index order (``_sum_components``): numpy's
    matrix-vector product, and its dot product for one row, round a row
    according to its position in the batch.
    """
    _instance("params", params, ReluNetParams)
    return _per_sample(_relu_columns, x, params, dim=params.dim)


def _relu_columns(xc, params):
    """Network losses of a component-major (d, m) block, its hidden layer formed row-major."""
    hidden = _matmul(xc.T, params.W1.T)
    hidden += params.b1
    np.maximum(hidden, 0.0, out=hidden)
    hidden *= params.w2
    return _sum_components(hidden.T) + params.b2


def _params_to_dict(params):
    return {
        "dims": {"d": params.dim, "hidden": params.hidden},
        "W1": [float(v) for v in params.W1.ravel()],
        "b1": [float(v) for v in params.b1],
        "w2": [float(v) for v in params.w2],
        "b2": params.b2,
    }


def _params_from_dict(doc, where):
    """Validate the JSON weights layout; where names its source in error messages."""
    if not isinstance(doc, dict):
        raise WeightsFormatError(f"{where} must hold a JSON object")
    missing = [k for k in ("dims", "W1", "b1", "w2", "b2") if k not in doc]
    if missing:
        raise WeightsFormatError(f"{where} is missing keys: {', '.join(missing)}")
    dims = doc["dims"]
    if not (isinstance(dims, dict) and "d" in dims and "hidden" in dims):
        raise WeightsFormatError(f"{where}: 'dims' must hold 'd' and 'hidden'")
    try:
        # a DomainError from _count is a ValueError: a malformed count, not a shape
        d, hidden = _count("dims.d", dims["d"], 0), _count("dims.hidden", dims["hidden"], 0)
        W1, b1, w2 = (_reals(key, doc[key], np.isfinite, "be finite numbers")
                      for key in ("W1", "b1", "w2"))
    except (TypeError, ValueError) as exc:
        raise WeightsFormatError(f"{where}: {exc}") from None
    if W1.ndim == 1:
        if W1.size != hidden * d:
            raise WeightsDimensionError(
                f"{where}: W1 has {W1.size} entries, expected hidden*d = {hidden * d}"
            )
        W1 = W1.reshape(hidden, d)
    elif W1.shape != (hidden, d):
        raise WeightsDimensionError(
            f"{where}: W1 has shape {W1.shape}, expected ({hidden}, {d})"
        )
    return ReluNetParams(W1=W1, b1=b1, w2=w2, b2=doc["b2"])


def load_relu_params(path):
    """Read network weights from a JSON file.

    Layout: {"dims": {"d": ..., "hidden": ...}, "W1": row-major flat list
    (nested rows also accepted), "b1": list, "w2": list, "b2": number}.
    Raises FileNotFoundError for a missing file, WeightsFormatError for
    malformed content and WeightsDimensionError for inconsistent shapes.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WeightsFormatError(f"weights file {path} is not valid JSON: {exc}") from None
    return _params_from_dict(doc, f"weights file {path}")


def save_relu_params(params, path):
    """Write network weights as JSON (floats round-trip exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_params_to_dict(params), fh)
        fh.write("\n")


def synthetic_relu_params(dim, hidden, seed):
    """Seeded random network for experiments.

    Only the output layer w2 is nonnegative, so the loss can decrease in
    some directions.
    """
    rng = np.random.default_rng(seed)
    W1 = rng.standard_normal((hidden, dim)) / math.sqrt(dim)
    b1 = 0.1 * rng.standard_normal(hidden)
    w2 = np.abs(rng.standard_normal(hidden)) / math.sqrt(hidden)
    return ReluNetParams(W1=W1, b1=b1, w2=w2, b2=0.0)


_KINDS = ("pert7", "linear", "relu_net", "external")


@dataclass(frozen=True)
class LossModel:
    """A loss with the metadata the sampler needs.

    kind is one of "pert7", "linear", "relu_net", "external"; rho is the
    scaling exponent handed to the stretch map (1 for losses that grow
    linearly along rays, which covers all built-ins).
    """

    kind: str
    rho: float = 1.0
    relu: ReluNetParams | None = None
    func: object = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown loss kind {self.kind!r}")
        object.__setattr__(self, "rho", _positive_finite("rho", self.rho))
        if self.kind == "relu_net" and not isinstance(self.relu, ReluNetParams):
            raise DomainError("relu_net losses need ReluNetParams")
        if self.kind == "external" and not callable(self.func):
            raise DomainError("external losses need a callable")

    @property
    def dim(self):
        """The input dimension the loss takes, or None for linear and external losses (any)."""
        if self.kind == "relu_net":
            return self.relu.dim
        return PERT_DIM if self.kind == "pert7" else None

    @classmethod
    def pert7(cls, rho=1.0):
        return cls(kind="pert7", rho=rho)

    @classmethod
    def linear(cls, rho=1.0):
        return cls(kind="linear", rho=rho)

    @classmethod
    def relu_net(cls, params, rho=1.0):
        return cls(kind="relu_net", rho=rho, relu=params)

    @classmethod
    def external(cls, func, rho):
        """Register a deterministic vector-to-scalar callable with its rho.

        Anything func raises surfaces as BadLossError, chained to the original.
        A study with threads > 1 calls func from several worker threads at
        once, so func must then be thread-safe.
        """
        return cls(kind="external", rho=rho, func=func)

    def __call__(self, x):
        if self.kind == "pert7":
            return pert_completion_time(x)
        if self.kind == "linear":
            return linear_loss(x)
        if self.kind == "relu_net":
            return relu_net_loss(x, self.relu)
        return _per_sample(_external_columns, x, self.func)


def _external_columns(xc, func):
    """func of each sample of a component-major (d, m) block, as a C-contiguous row."""
    try:
        # built-in losses take the kernel's blocks as they are; a callable gets
        # C-contiguous rows, as it would from its own arrays
        return np.array([_loss_value(func(row)) for row in np.ascontiguousarray(xc.T)])
    except Exception as exc:    # the user's code: any failure is a bad loss
        raise BadLossError(f"the external loss raised {type(exc).__name__}: {exc}") from exc


def _loss_value(value):
    """value as a float: a real number (nan and inf too) or a 0-d real array; else a TypeError."""
    if type(value) is float:               # the common case, at the least cost per row
        return value
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]                  # its numpy scalar
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise TypeError(f"it returned {type(value).__name__}, not a real number")
    return float(value)


def _check_input_dim(loss, dist):
    """Refuse, as DomainError, a dist or loss of the wrong type, or a loss of another input dim."""
    _instance("dist", dist, DistributionSpec)
    _instance("loss", loss, LossModel)
    if loss.dim not in (None, dist.dim):
        raise DomainError(f"the {loss.kind} loss takes inputs of dimension {loss.dim}, "
                          f"but the input model has dimension {dist.dim}")
