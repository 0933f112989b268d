"""
Ten correlated positions: error that does not grow with depth
=============================================================

The headline property of the stretched-sampling scheme is that its relative
error stays roughly constant as the tail level beta walks from moderate
(1e-3.5) to absurd (1e-7), with the sample size held at n = 1000.  Plain
Monte Carlo needs n to grow like 1/beta just to see the tail.

Portfolio: ten positions, half with tail exponent 0.9 and half with 1.1,
coupled by an equicorrelated copula (off-diagonal 0.1), linear aggregate
loss.
"""

import numpy as np

from tailshift import (
    CorrelationMatrix, DistributionSpec, ExperimentConfig, FixedH, LossModel,
    relative_rmse, run_replications, summarize,
)

dist = DistributionSpec.from_alphas(
    [0.9] * 5 + [1.1] * 5, CorrelationMatrix.equicorrelated(10, 0.1))

betas = (10.0 ** -3.5, 1e-5, 1e-6, 1e-7)
config = ExperimentConfig(
    dist=dist, loss=LossModel.linear(), betas=betas, n=1000,
    h_rule=FixedH(2.6), reps=50, base_seed=2022,
)

table = run_replications(config, "is")
print("beta          mean cvar    relative rmse over 50 runs")
for beta in betas:
    vals = table.values("cvar_hat", beta)
    print(f"{beta:<12.3e}  {vals.mean():9.2f}    {relative_rmse(vals):.4f}")

# The naive side of the same comparison, summarized level by level as
# `tailshift benchmark --method both` writes it.  At beta = 1e-3.5 the naive
# estimator needs roughly 200x the samples for a similar error; deeper
# levels are flagged infeasible outright at n = 1000.
naive = run_replications(config, "naive")
print()
print("variance ratio at n = 1000:")
for s, v in zip(summarize(table), summarize(naive)):
    cv = v["rel_rmse_cvar"]
    status = ("infeasible" if any(r.status == "infeasible" for r in naive.rows_for(s["beta"]))
              else "failed" if np.isnan(cv) else "ok")
    cv_naive = f"{cv:.4f}" if np.isfinite(cv) else "-"
    print(f"  beta={s['beta']:<12.3e} cv_is={s['rel_rmse_cvar']:.4f}  "
          f"cv_naive={cv_naive}  ({status})")

naive_big = ExperimentConfig(
    dist=dist, loss=LossModel.linear(), betas=(betas[0],), n=200_000,
    h_rule=FixedH(2.6), reps=20, base_seed=2022,
)
vals = run_replications(naive_big, "naive").values("cvar_hat", betas[0])
print()
print(f"naive at beta={betas[0]:.3e} needs n = 200000 for "
      f"relative rmse {relative_rmse(vals):.4f}")
