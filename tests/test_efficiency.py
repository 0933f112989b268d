"""The paper's efficiency claim: variance reduction that is asymptotically
optimal in the logarithmic scale.

An estimator of a tail quantity at level beta is logarithmically efficient
when its relative error grows slower than any power of 1/beta (Asmussen &
Glynn, *Stochastic Simulation*, 2007, ch. VI).  Plain Monte Carlo's grows
like beta**-0.5, a slope of 0.5 of log cv on log(1/beta).  At a fixed h the
stretched estimate's slope should be near 0 from beta = 1e-3 to 1e-15, with
n held at 1000.
"""

import math

import numpy as np
import pytest

from tailshift import (
    CorrelationMatrix, DistributionSpec, ExperimentConfig, FixedH, LossModel, relative_rmse,
    run_replications,
)

BETAS = (1e-3, 1e-5, 1e-7, 1e-9, 1e-12, 1e-15)
MAX_SLOPE = 0.05             # measured: 0.0053 on the 1-d case, 0.0220 on the 2-d oracle
MAX_BIAS = 0.01              # 1-d case, against the exact cvar; measured: at most 0.38%

MODELS = {
    "1-d": DistributionSpec.from_alphas([1.0]),
    "2-d": DistributionSpec.from_alphas([0.9, 0.9], CorrelationMatrix.equicorrelated(2, 0.3)),
}


@pytest.fixture(scope="module")
def tables():
    return {name: run_replications(ExperimentConfig(
        dist=dist, loss=LossModel.linear(), betas=BETAS, n=1000, h_rule=FixedH(2.6), reps=100,
        base_seed=7), "is") for name, dist in MODELS.items()}


@pytest.mark.parametrize("name", MODELS)
def test_every_row_is_ok(tables, name):
    rows = tables[name].rows
    assert len(rows) == len(BETAS) * 100 and {r.status for r in rows} == {"ok"}


@pytest.mark.parametrize("name", MODELS)
def test_the_relative_error_grows_slower_than_any_power_of_one_over_beta(tables, name):
    table = tables[name]
    cvs = [relative_rmse(table.values("cvar_hat", beta)) for beta in BETAS]
    slope = np.polyfit([math.log(1.0 / b) for b in BETAS], np.log(cvs), 1)[0]
    assert slope <= MAX_SLOPE, (slope, cvs)


def test_the_one_dim_cvar_is_unbiased_at_every_depth(tables):
    # a unit exponential: var = log(1/beta), cvar = log(1/beta) + 1
    table = tables["1-d"]
    for beta in BETAS:
        bias = table.values("cvar_hat", beta).mean() / (math.log(1.0 / beta) + 1.0) - 1.0
        assert abs(bias) <= MAX_BIAS, (beta, bias)
