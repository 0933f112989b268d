"""Weighted tail estimators and the one-shot estimation entry point.

The estimators consume weighted loss samples (loss, log weight).  With all
log weights zero they reduce to the plain empirical estimators, so the
naive path is the weighted path with unit weights.

``estimate`` weighs each drawn block before it asks for the next
(``_weigh``: the stretch, the image density and the loss of one block), so
what it holds whole is n-vectors, never an (n, d) array: the losses and
log weights, checked where they were weighed, which the tail overwrites,
and the tail sort's arrays.  The public estimators check and copy their
samples (``_as_arrays``), so they never write the caller's arrays.

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

from .distributions import _MAX_INDEX, _count, _drawn_blocks, _joined, _real
from .errors import BadLossError, DomainError, EstimationError, FeasibilityError, TailMassError
from .losses import _check_input_dim
from .transform import (
    TransformParams, _check_beta, _weighted_image, extrapolation_factor,
)

__all__ = [
    "WeightedLossSample",
    "ISConfig",
    "EstimateReport",
    "tail_probability",
    "value_at_risk",
    "cvar",
    "cvar_standard_error",
    "naive_var_cvar",
    "estimate",
]

NAIVE_MIN_TAIL_COUNT = 5.0


@dataclass(frozen=True)
class WeightedLossSample:
    """One sampled loss with its log importance weight (0 for plain sampling)."""

    loss: float
    log_weight: float = 0.0


def _as_arrays(samples):
    """Split samples into new (losses, log_weights) float arrays, which the tail may overwrite.

    Accepts a sequence of WeightedLossSample or a pair of equal-length
    arrays (losses, log_weights).
    """
    if isinstance(samples, tuple) and len(samples) == 2:
        losses = np.array(samples[0], dtype=float)
        logw = np.array(samples[1], dtype=float)
    else:
        pairs = [(s.loss, s.log_weight) for s in samples]
        losses, logw = np.array(pairs, dtype=float).reshape(len(pairs), 2).T.copy()
    if losses.ndim != 1 or losses.shape != logw.shape:
        raise DomainError(
            f"need equal-length 1-d losses and log weights, got {losses.shape} and {logw.shape}"
        )
    if losses.size == 0:
        raise DomainError("need at least one sample")
    if np.any(~np.isfinite(losses)) or np.any(np.isnan(logw)) or np.any(logw == np.inf):
        raise DomainError("losses must be finite and log weights must not be nan or +inf")
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


def naive_var_cvar(losses, beta):
    """Plain empirical (value at risk, cvar) at level beta: unit weights."""
    return _tail(*_as_arrays((losses, np.zeros(np.shape(losses)))), beta)[:2]


def _tail(losses, logw, beta, var=None):
    """(var, cvar, se, n_above) at beta of checked float n-vectors; var is estimated when None.

    Everything is read off the scaled weights exp(log w - m), m the largest
    log weight, and the excess (loss - var)+, made in place over logw and
    losses.  se is nan for one sample; n_above counts the losses above var.
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
    n_above = int(np.count_nonzero(excess))     # loss - var > 0 exactly where loss > var
    shifted = float(scaled @ excess)
    excess *= scaled
    spread = math.sqrt(np.var(excess, ddof=1) / n) if n > 1 else math.nan
    with np.errstate(over="ignore"):
        # exp(m) may be inf where nothing lies above var, and inf * 0 is nan
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


def _weigh(xc, log_fx, dist, loss, params):
    """(losses, log weights) of a drawn component-major (d, m) block X with its log f(X).

    The one step from a drawn block to the tail's inputs.  The importance
    method (params) stretches and weighs the block (``_weighted_image``)
    and calls the loss on its image; the naive method (params None) calls
    the loss on X, with log weights 0.  An estimate weighs each
    block as it is drawn, so it never holds an (n, d) array.
    """
    if params is None:
        z, logw = xc, np.zeros(xc.shape[1])
    else:
        z, logw = _weighted_image(xc, log_fx, dist, params)
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
        sampled loss lies strictly above the estimated var (an empty tail,
        whose cvar and standard error would say nothing), or the stretch
        sends samples past the float range.
    """
    (got,) = _estimates(dist, loss, config, method, (config.h,))
    if isinstance(got, EstimationError):
        raise got
    return got


def _estimates(dist, loss, config, method, hs):
    """estimate at every h of hs (not config.h) from one draw: its report or its error, per h.

    Each block is weighed (``_weigh``) at every h not yet failed, or once for the naive method,
    and dropped before the next is drawn: what is whole is the losses and log weights per h.
    """
    if method not in ("is", "naive"):
        raise DomainError(f"method must be 'is' or 'naive', got {method!r}")
    _check_input_dim(loss, dist.dim)
    if method == "naive":
        if config.n * config.beta < NAIVE_MIN_TAIL_COUNT:
            return [FeasibilityError(
                f"naive estimation infeasible: n*beta = {config.n * config.beta:.4g} < "
                f"{NAIVE_MIN_TAIL_COUNT:g}; increase n or use the importance method"
            )]
        hs = params = (None,)
    else:
        if any(h is None for h in hs):
            raise DomainError("the importance method needs h")
        hs = [_real("h", h) for h in hs]
        params = [TransformParams(r=extrapolation_factor(config.beta, h), rho=loss.rho)
                  for h in hs]
    errors = [None] * len(hs)

    def weighed(blocks):
        for xc, log_fx in blocks:
            part = []
            for i, p in enumerate(params):
                try:
                    part += (None, None) if errors[i] else _weigh(xc, log_fx, dist, loss, p)
                except EstimationError as exc:
                    errors[i] = exc
                    part += (None, None)
            del xc, log_fx              # the next block may reuse this one's memory
            yield part

    # the draw checks n against (n, d) on its first block, before _joined makes an n-vector
    blocks = _drawn_blocks(config.n, dist, config.seed, with_density=method == "is")
    joined = _joined(weighed(blocks), config.n)
    return [_report(config, method, h, losses, logw) if error is None else error
            for h, error, losses, logw in zip(hs, errors, joined[::2], joined[1::2])]


def _report(config, method, h, losses, logw):
    """The EstimateReport of one h's losses and log weights, or its TailMassError."""
    try:
        v, c, se, n_above = _tail(losses, logw, config.beta)
    except TailMassError as exc:
        return exc
    if n_above == 0:
        return TailMassError(
            f"no sampled loss lies above var = {v:g} at beta = {config.beta:g}; the tail is empty"
        )
    return EstimateReport(
        method=method, beta=config.beta, h=h, n=config.n, seed=config.seed,
        var_hat=v, cvar_hat=c, cvar_se=se,
    )
