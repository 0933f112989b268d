"""Weighted tail estimators and the one-shot estimation entry point.

The estimators consume weighted loss samples: a pair (losses, log weights)
of equal-length arrays.  With all log weights zero they reduce to the plain
empirical estimators, so the naive path is the weighted path with unit
weights.

The kernel (``_estimates``) weighs one draw at a list of (h, transform)
cells, made and checked once per level (``_cells``).  It weighs each drawn
block at every cell before it draws the next (``_weigh``), into the cell's
rows of losses and log weights, which the tail overwrites: it never holds
an (n, d) array.  The cells share the r-free half of a block's stretch
(``_stretch_base``).  The public estimators check and copy their samples
(``_as_arrays``), so they never write the caller's arrays.

Conventions, fixed here and relied on by the tests:

* tail probabilities use the strict inequality loss > u;
* the value at risk is attained at a sample point: the smallest sampled
  loss v whose estimated tail probability is <= beta (the tail just below
  v then exceeds beta by construction);
* weights are accumulated after subtracting the maximal log weight, and
  comparisons against beta happen in linear space so that exact ties
  (e.g. unit weights with beta * n integral) resolve exactly;
* sample variances use the n - 1 divisor;
* weights are never clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .distributions import _MAX_INDEX, _count, _drawn_blocks, _instance, _real, _reals
from .errors import BadLossError, DomainError, EstimationError, FeasibilityError, TailMassError
from .losses import _check_input_dim
from .transform import (
    TransformParams, _check_beta, _stretch_base, _weighted_image, extrapolation_factor,
)

__all__ = [
    "ISConfig",
    "EstimateReport",
    "tail_probability",
    "value_at_risk",
    "cvar",
    "cvar_standard_error",
    "estimate",
]

NAIVE_MIN_TAIL_COUNT = 5.0

_METHOD_CODES = {"is": 0, "naive": 1}


def _as_arrays(samples):
    """Split the pair (losses, log weights) into new float arrays, which the tail may overwrite."""
    if not (isinstance(samples, (tuple, list)) and len(samples) == 2):
        raise DomainError("samples must be a pair (losses, log weights) of arrays")
    losses, logw = samples
    # np.array copies: _reals hands a float array back as it is
    losses = np.array(_reals("losses", losses, np.isfinite, "be finite"))
    logw = np.array(_reals("log weights", logw, lambda w: w < np.inf, "not be nan or +inf"))
    if losses.ndim != 1 or losses.shape != logw.shape:
        raise DomainError(
            f"need equal-length 1-d losses and log weights, got {losses.shape} and {logw.shape}"
        )
    if losses.size == 0:
        raise DomainError("need at least one sample")
    return losses, logw


def tail_probability(samples, u):
    """Weighted estimate of P(loss > u): mean of weight * indicator(loss > u)."""
    losses, logw = _as_arrays(samples)
    mask = losses > _real("u", u)
    if not np.any(mask):
        return 0.0
    return float(np.exp(logsumexp(logw[mask]) - math.log(losses.size)))


def value_at_risk(samples, beta):
    """Smallest sampled loss whose weighted tail probability is <= beta.

    Requires the total weighted mass mean(weights) to exceed beta, else
    every threshold would qualify; failing that raises TailMassError
    ("beta too large for sampled tail mass"), naming the mean weight.
    """
    return _tail(*_as_arrays(samples), beta)[0]


def cvar(samples, beta, var):
    """Tail average var + mean(weight * (loss - var)+) / beta."""
    return _tail(*_as_arrays(samples), beta, _real("var", var))[1]


def cvar_standard_error(samples, beta, var):
    """Plug-in standard error of the cvar estimate.

    sqrt(sample variance of weight * (loss - var)+ over n) / beta, with the
    n - 1 divisor.  A single sample has no variance estimate, so n >= 2.
    """
    se = _tail(*_as_arrays(samples), beta, _real("var", var))[2]
    if math.isnan(se):
        raise DomainError("standard error needs at least two samples")
    return se


def _tail(losses, logw, beta, var=None):
    """(var, cvar, se, n_above) at beta of checked float n-vectors; var is estimated when None.

    Everything is read off the scaled weights exp(log w - m), m the largest
    log weight, and the excess (loss - var)+, made in place over logw and
    losses.  se is nan for one sample; n_above counts the losses above var with weight.
    """
    beta = _check_beta(beta)
    n = losses.size
    m = float(np.maximum.reduce(logw))
    if m == -np.inf:
        m = 0.0                        # every weight is zero: scaled weights are exact zeros
    scaled = np.exp(np.subtract(logw, m, out=logw), out=logw)   # in [0, 1]: bounded suffix sums
    if var is None:
        var = float(_weighted_var(losses, scaled, beta, m))
    excess = np.subtract(losses, var, out=losses)
    np.maximum(excess, 0.0, out=excess)
    shifted = float(scaled @ excess)
    excess *= scaled
    n_above = int(np.count_nonzero(excess))     # the losses above var that carry weight
    spread = math.sqrt(np.var(excess, ddof=1) / n) if n > 1 else math.nan
    with np.errstate(over="ignore"):
        # exp(m) may be inf where nothing above var carries weight, and inf * 0 is nan
        c = var if shifted == 0.0 else float(var + np.exp(m) * shifted / (n * beta))
        se = float(np.exp(m) * spread / beta) if spread > 0.0 else spread
    return var, c, se, n_above


def _weighted_var(losses, scaled, beta, m):
    """The smallest sampled loss whose tail mass sum(scaled * exp(m)) / n is <= beta."""
    n = losses.size
    order = np.argsort(losses)
    # mass[k]: the scaled mass of the k + 1 largest losses, summed from the
    # largest down (so mass[-1], the total, has the bits of a sum in that order)
    mass = scaled[order[::-1]]
    np.cumsum(mass, out=mass)
    with np.errstate(over="ignore"):
        threshold = beta * n * np.exp(-m)        # compare in linear space for exact ties
    if mass[-1] <= threshold:                    # the total mass: every threshold qualifies
        log_mean = m + math.log(mass[-1] / n) if mass[-1] > 0.0 else -math.inf
        raise TailMassError(
            f"beta too large for sampled tail mass: mean weight {math.exp(log_mean):.3g} = "
            f"exp({log_mean:.4g}) <= beta = {beta:g}; h is too large for this model "
            f"(try a smaller h)"
        )
    # the mass after sorted position i is mass[n - 2 - i] (0 after the last),
    # never rising along the order, and at the last member of a tie group it
    # is the mass strictly above that loss: so the first position whose mass
    # after it is <= threshold holds the smallest qualifying loss, and ties
    # need no grouping.  k of mass[:k] qualify, so that position is n - 1 - k.
    k = int(np.searchsorted(mass, threshold, side="right"))
    return losses[order[n - 1 - k]]


@dataclass(frozen=True)
class ISConfig:
    """Parameters of one estimation run.

    h may stay None for the naive method (it is ignored there).
    """

    beta: float
    n: int
    seed: int
    h: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_beta(self.beta))
        # n must fit numpy's index range; d is not known here, so the draw checks (n, d)
        object.__setattr__(self, "n", _count("n", self.n, 1, _MAX_INDEX))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        if self.h is not None:
            object.__setattr__(self, "h", _real("h", self.h))


@dataclass(frozen=True)
class EstimateReport:
    """Result of one run: estimates plus everything needed to rerun it."""

    method: str
    beta: float
    h: float | None
    n: int
    seed: int
    var_hat: float
    cvar_hat: float
    cvar_se: float


def _weigh(xc, log_fx, dist, loss, params, base):
    """(losses, log weights) of a drawn component-major (d, m) block X with its log f(X).

    The one step from a drawn block to the tail's inputs.  The importance
    method (params) stretches and weighs the block (``_weighted_image``, off
    its ``_stretch_base``) and calls the loss on its image; the naive method
    (params None) calls the loss on X, with log weights 0.  An estimate weighs
    each block as it is drawn, so it never holds an (n, d) array.
    """
    if params is None:
        z, logw = xc, np.zeros(xc.shape[1])
    else:
        z, logw = _weighted_image(xc, log_fx, dist, params, base)
    losses = np.asarray(loss(z.T), dtype=float)
    if not np.all(np.isfinite(losses)):
        bad = int(np.count_nonzero(~np.isfinite(losses)))
        raise BadLossError(f"the loss returned {bad} non-finite values in a block of "
                           f"{losses.size} samples")
    return losses, logw


def estimate(dist, loss, config, method="is"):
    """Run one estimation and report (value at risk, cvar, standard error).

    Parameters
    ----------
    dist : DistributionSpec
    loss : LossModel
    config : ISConfig
    method : {"is", "naive"}
        "is" stretches the samples outward with factor
        extrapolation_factor(beta, h) and reweights them; "naive" evaluates
        the loss on the raw samples with unit weights and refuses to run
        when n * beta < 5 (the empirical tail would hold fewer than five
        samples, giving meaningless quantiles).

    The one-h call of ``_estimates``: the blocks are weighed in order and the first
    failure ends the run, so past one block, a block whose loss fails ahead of a later
    block whose stretch overflows raises BadLossError, not TailMassError.

    Raises
    ------
    FeasibilityError
        Naive method at infeasible n * beta.
    BadLossError
        The loss raised, or returned a value that is not a finite number.
    TailMassError
        The weighted sample carries too little mass for the level beta, no
        sampled loss above the estimated var carries weight (an empty tail,
        whose cvar and standard error would say nothing), or the stretch
        sends samples past the float range.
    """
    _check_input_dim(loss, dist)
    _instance("config", config, ISConfig)
    (got,) = _estimates(dist, loss, config, method, _cells(config.beta, (config.h,), method, loss))
    if isinstance(got, EstimationError):
        raise got
    return got


def _method_code(method):
    """The seed code of the method "is" or "naive"; any other method is a DomainError."""
    if not isinstance(method, str) or method not in _METHOD_CODES:
        raise DomainError(f"method must be one of {sorted(_METHOD_CODES)}, got {method!r}")
    return _METHOD_CODES[method]


def _cells(beta, hs, method, loss):
    """The checked (h, TransformParams) cells of hs at level beta; [(None, None)] if naive."""
    if _method_code(method) == _METHOD_CODES["naive"]:
        return [(None, None)]
    if any(h is None for h in hs):
        raise DomainError("the importance method needs h")
    hs = [_real("h", h) for h in hs]
    return [(h, TransformParams(r=extrapolation_factor(beta, h), rho=loss.rho)) for h in hs]


def _estimates(dist, loss, config, method, cells):
    """estimate at every cell (``_cells``) from one draw: its report or its error, per cell.

    Each block is weighed (``_weigh``) into the rows of every cell not yet failed, then dropped;
    no block is drawn once every cell has failed.  Its ``_stretch_base`` is made once for the
    importance method: all cells share loss.rho.
    """
    if method == "naive" and config.n * config.beta < NAIVE_MIN_TAIL_COUNT:
        return [FeasibilityError(
            f"naive estimation infeasible: n*beta = {config.n * config.beta:.4g} < "
            f"{NAIVE_MIN_TAIL_COUNT:g}; increase n or use the importance method"
        )]
    errors, lo = [None] * len(cells), 0
    for xc, log_fx in _drawn_blocks(config.n, dist, config.seed, with_density=method == "is"):
        if lo == 0:             # the draw checks n against (n, d) before the rows are made
            losses, logw = np.empty((len(cells), config.n)), np.empty((len(cells), config.n))
        cols = slice(lo, lo + xc.shape[1])
        base = _stretch_base(xc, loss.rho) if method == "is" else None
        for i, (_, params) in enumerate(cells):
            if errors[i] is None:
                try:
                    losses[i, cols], logw[i, cols] = _weigh(xc, log_fx, dist, loss, params, base)
                except EstimationError as exc:
                    errors[i] = exc
        lo = cols.stop
        del xc, log_fx, base            # the next block may reuse this one's memory
        if None not in errors:          # every cell has failed: the rest of the draw goes unused
            break
    return [_report(config, method, h, losses[i], logw[i]) if errors[i] is None else errors[i]
            for i, (h, _) in enumerate(cells)]


def _report(config, method, h, losses, logw):
    """The EstimateReport of one h's losses and log weights, or its TailMassError."""
    try:
        v, c, se, n_above = _tail(losses, logw, config.beta)
    except TailMassError as exc:
        return exc
    if n_above == 0:
        return TailMassError(
            f"no sampled loss lies above var = {v:g} with weight at beta = {config.beta:g}; "
            f"the tail is empty"
        )
    return EstimateReport(
        method=method, beta=config.beta, h=h, n=config.n, seed=config.seed,
        var_hat=v, cvar_hat=c, cvar_se=se,
    )
