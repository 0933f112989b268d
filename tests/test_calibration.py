"""Calibration at depth against exact values: the 1-d case and the 2-d oracle.

The error bar of each estimate must mean what it says: the plug-in 95%
interval cvar_hat +- 1.96 cvar_se must cover the exact cvar about 95% of the
time, and the estimates must be unbiased.  Both exact cases are checked at
h = 2.6 and n = 1000, at beta = 1e-6 and 1e-9, over 4 base seeds of 300
replications each.  The 2-d oracle's exact values come from quadrature
(``oracles``), which is first pinned here against an independent form.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from tailshift import (
    CorrelationMatrix, DistributionSpec, ExperimentConfig, FixedH, LossModel, run_replications,
)

BETAS = (1e-6, 1e-9)
BASE_SEEDS = range(4)
REPS = 300
Z95 = 1.959963984540054
MIN_COVERAGE = 0.9           # at 1e-6; measured: 0.946 on the 1-d case, 0.918 on the 2-d oracle
MAX_BIAS = 0.01              # at both levels; measured: at most 0.16% (1-d) and 0.41% (2-d)

# the oracle's values, from the quadrature at its first pinning
ORACLE = {1e-6: (25.715009825181625, 27.634542185407998),
          1e-9: (39.13823701985645, 41.120930100643726)}


def _independent_tail(u, alpha=oracles.ALPHA):
    """P(X1 + X2 > u) for independent inputs, by convolution over v = x1**alpha."""
    def density(v):
        return math.exp(-v - max(u - v ** (1.0 / alpha), 0.0) ** alpha)

    return math.exp(-u ** alpha) + quad(density, 0.0, u ** alpha, epsabs=0.0, epsrel=2e-14,
                                        limit=200)[0]


@pytest.mark.parametrize("u", [0.5, 3.0, 10.0, 25.0, 40.0])
def test_the_oracle_at_rho_0_is_the_convolution(u):
    got = oracles.tail_probability(u, rho=0.0)
    assert got == pytest.approx(_independent_tail(u), rel=1e-13, abs=0.0)


@pytest.fixture(scope="module")
def exact():
    """(var, cvar) of each case at each level."""
    return {"1-d": {b: (math.log(1.0 / b), math.log(1.0 / b) + 1.0) for b in BETAS},
            "2-d": {b: oracles.var_cvar(b) for b in BETAS}}


@pytest.mark.parametrize("beta", BETAS)
def test_the_oracle_keeps_its_values(exact, beta):
    assert exact["2-d"][beta] == pytest.approx(ORACLE[beta], rel=1e-9, abs=0.0)


MODELS = {
    "1-d": DistributionSpec.from_alphas([1.0]),
    "2-d": DistributionSpec.from_alphas([oracles.ALPHA] * 2,
                                        CorrelationMatrix.equicorrelated(2, oracles.RHO)),
}


@pytest.fixture(scope="module")
def rows():
    """Every replication row of each case, pooled over the base seeds."""
    return {name: [r for seed in BASE_SEEDS for r in run_replications(ExperimentConfig(
        dist=dist, loss=LossModel.linear(), betas=BETAS, n=1000, h_rule=FixedH(2.6), reps=REPS,
        base_seed=seed), "is").rows] for name, dist in MODELS.items()}


def _at(rows, beta, field):
    return np.array([getattr(r, field) for r in rows if r.beta == beta])


@pytest.mark.parametrize("name", MODELS)
def test_every_row_is_ok(rows, name):
    assert len(rows[name]) == len(BASE_SEEDS) * REPS * len(BETAS)
    assert {r.status for r in rows[name]} == {"ok"}


@pytest.mark.parametrize("name", MODELS)
def test_the_plug_in_interval_covers_the_exact_cvar(rows, exact, name):
    beta = 1e-6
    cvar, se = _at(rows[name], beta, "cvar_hat"), _at(rows[name], beta, "cvar_se")
    coverage = np.mean(np.abs(cvar - exact[name][beta][1]) <= Z95 * se)
    assert coverage >= MIN_COVERAGE, coverage


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("name", MODELS)
def test_var_and_cvar_are_unbiased(rows, exact, name, beta):
    for field, value in zip(("var_hat", "cvar_hat"), exact[name][beta]):
        bias = _at(rows[name], beta, field).mean() / value - 1.0
        assert abs(bias) <= MAX_BIAS, (field, bias)
