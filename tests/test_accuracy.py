"""Accuracy of the stretch and the marginal density against 50-digit arithmetic.

The image takes r**e as r**(1/rho) * exp((log1p|x| - M) * c) and the
density takes x**alpha as exp(alpha log x), so neither is correctly rounded;
these tests bound their errors on the images an estimate sees: all n
draws of the bundled portfolio, pert and relu configs at their seeds
(n their sample size), stretched at each level's h.
"""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from tailshift import TransformParams, extrapolate, sample_inputs
from tailshift.cli import parse_config
from tailshift.transform import extrapolation_factor

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DENSITY_ULPS = 16                # the log density, in ulps of its largest term


def image_ulps(params):
    """The bound on an image component's error, in ulps of its exact value.

    The exp's argument t = (log1p|x_i| - M) * c, of size up to log(r)/rho,
    carries the roundings of log r, c, the difference and the product,
    each up to 2^-53 |t|, and the exp turns them into relative error: up
    to 4 ulp per unit of log(r)/rho if all four line up.  The 2 covers the
    exp and the two products.  Over 5000 draws of each config the worst
    seen are 4.8, 8.1 and 6.5 ulp on portfolio, pert and relu, against
    bounds of 7.0, 10.2 and 7.5 at those levels: a flat 8 ulp would not
    hold at pert's deepest level (r = 27).
    """
    return 2.0 + 2.5 * math.log(params.r) / params.rho


def _images(name):
    """(dist, [(params, x, image)] at each level) of a bundled config's n draws."""
    experiment = parse_config(CONFIGS / f"{name}.json").experiment
    X = sample_inputs(experiment.n, experiment.dist, experiment.base_seed)
    out = []
    for beta in experiment.betas:
        r = extrapolation_factor(beta, experiment.h_rule.h_for(beta))
        params = TransformParams(r=r, rho=experiment.loss.rho)
        out.append((params, X, extrapolate(X, params)))
    return experiment.dist, out


def _ulps(got, exact, scale):
    """|got - exact| in units of the float spacing at scale."""
    return float(abs(mpmath.mpf(float(got)) - exact) / math.ulp(float(scale)))


@pytest.mark.parametrize("name", ["portfolio", "pert", "relu"])
def test_images_within_their_ulp_bound(name):
    _, levels = _images(name)
    X = levels[0][1]
    with mpmath.workdps(50):
        # log1p|x_i| / max_j log1p|x_j| of every sample, shared by the levels
        shares = []
        for x in X:
            logs = [mpmath.log1p(abs(mpmath.mpf(v))) for v in x]
            M = max(logs)
            shares.append([ell / M for ell in logs])
        for params, _, Z in levels:
            k = mpmath.log(mpmath.mpf(params.r)) / mpmath.mpf(params.rho)
            worst = max(_ulps(got, exact, exact)
                        for x, z, share in zip(X, Z, shares)
                        for got, exact in zip(z, (mpmath.mpf(v) * mpmath.exp(k * s)
                                                  for v, s in zip(x, share))))
            assert worst <= image_ulps(params), (params, worst)


@pytest.mark.parametrize("name", ["portfolio", "pert", "relu"])
def test_marginal_log_densities_within_their_ulp_bound(name):
    # log(alpha) + (alpha - 1) log z - z**alpha; out on the stretched images
    # the power term is the largest, and its exp(alpha log z) carries the error
    dist, levels = _images(name)
    worst = 0.0
    with mpmath.workdps(50):
        for _, _, Z in levels:
            for j, marginal in enumerate(dist.marginals):
                a = mpmath.mpf(marginal.alpha)
                log_a = mpmath.log(a)
                got = marginal.log_density(Z[:, j])
                for g, z in zip(got, Z[:, j]):
                    log_z = mpmath.log(mpmath.mpf(z))
                    terms = (log_a, (a - 1) * log_z, mpmath.exp(a * log_z))
                    exact = terms[0] + terms[1] - terms[2]
                    worst = max(worst, _ulps(g, exact, max(abs(t) for t in terms)))
    assert worst <= DENSITY_ULPS, worst


def test_the_dominant_component_moves_by_the_full_factor_exactly():
    # exp(0) = 1: the largest component is x * r**(1/rho), whatever the rest
    rng = np.random.default_rng(12)
    for rho in (1.0, 0.5, 0.7, 1.3):
        params = TransformParams(r=4.3, rho=rho)
        X = rng.uniform(0.0, 30.0, (200, 6))
        Z = extrapolate(X, params)
        top = np.argmax(X, axis=1)
        rows = np.arange(200)
        np.testing.assert_array_equal(Z[rows, top], X[rows, top] * np.power(4.3, 1.0 / rho))
