"""Outward stretch of samples toward the tail, with its change of measure.

The map sends x to x * r**e(x) componentwise, where the exponents

    e_i(x) = log(1 + |x_i|) / (rho * max_j log(1 + |x_j|))

lie in [0, 1/rho].  The largest component is stretched by the full factor
r**(1/rho) and smaller ones by less, so a single run reaches far out into
the tail without collapsing the sample cloud onto one ray.  rho compensates
losses that grow like a power: with rho = 1 the stretched losses grow
roughly like r itself.

``log_likelihood_ratio`` returns the log importance weight that makes
averages over stretched samples unbiased for the original distribution:
log density at the image, minus log density at the source, plus the log
Jacobian determinant of the map.  One log-space pass over x yields the
image, the log Jacobian and the log weight; ``extrapolate``,
``log_jacobian`` and ``log_likelihood_ratio`` are its projections.  The
pass runs on the component-major (d, n) layout of ``distributions``, over
its column blocks; a batch image comes back as an F-ordered (n, d) view.
An estimate weighs each block of the draw as it pulls it
(``_weighted_image``: the stretch, the overflow check and the image density
of one block), so it never holds an image of all n samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _component_major, _over_columns, _positive_finite, _real, _sum_components, _validate_vectors,
    joint_log_density,
)
from .errors import DomainError, TailMassError

__all__ = [
    "TransformParams",
    "extrapolation_factor",
    "extrapolate",
    "log_jacobian",
    "log_likelihood_ratio",
]


def _check_beta(beta):
    return _real("beta", beta, lambda b: 0.0 < b < 1.0, "lie in (0, 1)")


def _check_stretch_level(beta):
    """beta as a float in (0, 1/e): a level at which log log(1/beta) is positive."""
    if (beta := _check_beta(beta)) >= 1.0 / math.e:
        raise DomainError(f"beta must be < 1/e, got {beta:g}: extrapolation undefined, "
                          "as log log(1/beta) is not positive there")
    return beta


def extrapolation_factor(beta, h):
    """Stretch factor r = h * log log(1/beta) for tail level beta.

    Requires a finite h, beta < 1/e (otherwise the iterated logarithm is
    not positive) and a resulting r > 1 (otherwise nothing is pushed outward).
    """
    beta, h = _check_stretch_level(beta), _real("h", h)
    r = h * math.log(math.log(1.0 / beta))
    if r <= 1.0:
        raise DomainError(
            f"no outward extrapolation: r = h*log log(1/beta) = {r:.6g} <= 1; "
            "increase h or decrease beta"
        )
    return r


@dataclass(frozen=True)
class TransformParams:
    """Stretch factor r >= 1 and loss scaling exponent rho > 0.

    r = 1 is the identity map (useful in tests: the importance path then
    reproduces plain sampling exactly); r < 1 would pull samples inward
    and is rejected.
    """

    r: float
    rho: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "r", _real("r", self.r, lambda r: r >= 1.0, "be finite and >= 1"))
        object.__setattr__(self, "rho", _positive_finite("rho", self.rho))


def _log1p_abs(xc):
    """|x| and log1p|x| of a (d, m) block, and the (m,) max of log1p|x|.

    The block is checked off the max, which is inf or nan in a column
    holding an infinity or a nan, and 0 in a column of zeros.
    """
    ax = np.abs(xc)
    logs = np.log1p(ax)
    M = np.maximum.reduce(logs, axis=0)
    if not np.maximum.reduce(M, initial=0.0) < np.inf:     # max propagates a nan
        raise DomainError("x components must be finite")
    if np.minimum.reduce(M, initial=np.inf) == 0.0:
        raise DomainError("x must have at least one nonzero component")
    return ax, logs, M


def _stretch(x, params):
    """(extrapolate(x), log_jacobian(x)), taking log1p|x| and its max over components once.

    The stretch runs over column blocks; _log1p_abs checks the values.
    """
    x = _validate_vectors(x)
    z, log_jac = _over_columns(_stretch_columns, (_component_major(x),), params)
    log_jac = log_jac.reshape(x.shape[:-1])
    return z.T.reshape(x.shape), (float(log_jac) if log_jac.ndim == 0 else log_jac)


def _stretch_columns(xc, params):
    """(image, log Jacobian) of a component-major (d, m) block of finite x.

    The image takes r**e_i as r**(1/rho) * exp((log1p|x_i| - M) * c), with
    c = log(r) / (rho * M) the constant of the Jacobian, since an exp costs
    a fraction of a pow.  The dominant component has log1p|x_i| = M and
    exp(0) = 1, so it moves by r**(1/rho) exactly.  A full factor past the
    float range raises TailMassError, and a c past it (every component of
    a sample within about log(r) / rho / 1.8e308 of 0) DomainError.
    """
    ax, logs, M = _log1p_abs(xc)
    logr = math.log(params.r)
    try:
        full = params.r ** (1.0 / params.rho)
    except OverflowError:
        raise TailMassError(_past_the_float_range(params)) from None
    # c is largest at the smallest M; Python floats, so no numpy warning
    least = params.rho * float(np.minimum.reduce(M, initial=np.inf))
    if least == 0.0 or logr / least == math.inf:
        raise DomainError("x is too close to 0 for the stretch: log(r) / (rho * max_j "
                          "log1p|x_j|) overflows")
    c = logr / (params.rho * M)
    z = np.subtract(logs, M)
    z *= c
    np.exp(z, out=z)
    z *= full
    z *= xc
    esum = _sum_components(logs) / (params.rho * M)
    log_diag = np.add(ax, 1.0, out=logs)
    np.divide(ax, log_diag, out=log_diag)
    log_diag *= c
    np.log1p(log_diag, out=log_diag)
    log_jac = _sum_components(log_diag) + esum * logr - np.maximum.reduce(log_diag, axis=0)
    return z, log_jac


def extrapolate(x, params):
    """Apply the stretch: x * r**e(x) componentwise.

    Raises TailMassError where the full factor r**(1/rho) overflows a
    float, and DomainError where log(r) / (rho * max_j log1p|x_j|) does.
    """
    return _stretch(x, params)[0]


def log_jacobian(x, params):
    """Log absolute Jacobian determinant of the stretch at x.

    The derivative matrix is diagonal except in the column of the dominant
    component, and its determinant reduces to

        r**(sum_i e_i(x)) * prod_i d_i / max_i d_i,
        d_i = 1 + (log(r) / (rho * max_j log1p(|x_j|))) * |x_i| / (1 + |x_i|),

    where the dominant component is exactly the argmax of d_i.  All factors
    are >= 1 for r >= 1, so the product is accumulated with log1p.  Returns
    a float for shape (d,), an (n,) array for shape (n, d); exactly 0.0 when
    r = 1 and exactly log(r) in one dimension with rho = 1.  Raises as
    ``extrapolate`` does.
    """
    return _stretch(x, params)[1]


def _weighted_image(xc, log_fx, dist, params):
    """(image, log weights) of a component-major (d, m) block of x with its log density log_fx.

    The per-block weighing of the importance path: an estimate hands each
    drawn block here, so neither X nor its image is ever whole.  The image
    comes back component-major.  A stretch that carries samples past the
    float range raises TailMassError: an image that overflows, or one so
    far out that its density overflows into a nan or +inf log weight.
    """
    with np.errstate(over="ignore", invalid="ignore"):    # reported below
        zc, log_jac = _stretch_columns(xc, params)
        # x >= 0 (drawn, or checked by log_likelihood_ratio), and so is its image:
        # its max is inf exactly where it overflows
        logw = (joint_log_density(zc.T, dist) - log_fx + log_jac
                if np.maximum.reduce(zc, axis=None, initial=0.0) < np.inf else None)
    if logw is None or not np.maximum.reduce(logw, initial=-np.inf) < np.inf:   # max propagates a nan
        raise TailMassError(_past_the_float_range(params))
    return zc, logw


def _past_the_float_range(params):
    """The TailMassError message of a stretch that carries samples past the float range."""
    return (f"the stretch by up to r**(1/rho) = {params.r:.4g}**{1.0 / params.rho:.4g} carries "
            "samples past the float range; use a smaller h or a larger rho")


def log_likelihood_ratio(x, dist, params):
    """Log importance weight of the stretched sample rooted at x.

    log f(extrapolate(x)) - log f(x) + log_jacobian(x), with f the joint
    input density.  Exactly 0.0 for r = 1.  Accepts (d,) or (n, d).
    """
    x = _validate_vectors(x)
    log_fx = joint_log_density(x, dist)
    (logw,) = _over_columns(lambda xc, lf: _weighted_image(xc, lf, dist, params)[1:],
                            (_component_major(x), log_fx))
    logw = logw.reshape(x.shape[:-1])
    return float(logw) if logw.ndim == 0 else logw
