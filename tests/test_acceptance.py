"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; without -s pytest shows them for failing criteria only.  Every
tolerance is pinned as a module constant next to the criterion it guards.
"""

import math
import time

import numpy as np

from tailshift import (
    CorrelationMatrix,
    DistributionSpec,
    ExperimentConfig,
    FeasibilityError,
    FixedH,
    AffineH,
    ISConfig,
    LossModel,
    TransformParams,
    cross_validate_h,
    cvar,
    estimate,
    extrapolate,
    extrapolation_factor,
    log_likelihood_ratio,
    log_jacobian,
    relative_rmse,
    run_replications,
    sample_inputs,
    synthetic_relu_params,
    value_at_risk,
)

# criterion 1: 1-d analytic oracle
C1_CVAR_TOL = 0.05
C1_VAR_TOL = 0.08
C1_TIME_CAP = 10.0
# criterion 2: unbiased tail probability
C2_SIGMAS = 3.0
C2_TIME_CAP = 30.0
# criterion 3: exact Jacobian vs finite differences
C3_REL_TOL = 1e-4
C3_TIME_CAP = 5.0
# criterion 4: portfolio error level and flatness
C4_CV_TOL = 0.08
C4_FLATNESS = 1.5
C4_TIME_CAP = 120.0
# criterion 5: naive sample complexity
C5_CV_TOL = 0.05
C5_TIME_CAP = 180.0
# criterion 6: project-network experiment
C6_CV_TOL = 0.12
C6_TIME_CAP = 120.0
# criterion 7: stability across the h grid
C7_SPREAD_FACTOR = 3.0
C7_SELECTED_TOL = 0.08
C7_H_GRID = (1.5, 2.0, 2.5, 3.0, 3.5)
C7_TIME_CAP = 180.0
# criterion 8: seeded network loss
C8_MIN_OK = 0.90
C8_CV_TOL = 0.15
C8_TIME_CAP = 60.0
# criterion 9: estimator oracles
C9_TIME_CAP = 5.0


def check(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def portfolio_config(**kw):
    dist = DistributionSpec.from_alphas(
        [0.9] * 5 + [1.1] * 5, CorrelationMatrix.equicorrelated(10, 0.1))
    base = dict(dist=dist, loss=LossModel.linear(), betas=(1e-6,), n=1000,
                h_rule=FixedH(2.6), reps=50, base_seed=2022)
    base.update(kw)
    return ExperimentConfig(**base)


def test_criterion_1_analytic_oracle(onedim_dist, linear):
    started = time.perf_counter()
    beta = 1e-6
    cfg = ExperimentConfig(dist=onedim_dist, loss=linear, betas=(beta,), n=1000,
                           h_rule=FixedH(2.6), reps=50, base_seed=101)
    table = run_replications(cfg, "is")
    true_var = math.log(1.0 / beta)
    true_cvar = true_var + 1.0
    rr_var = relative_rmse(table.values("var_hat", beta), reference=true_var)
    rr_cvar = relative_rmse(table.values("cvar_hat", beta), reference=true_cvar)
    elapsed = time.perf_counter() - started
    check(1, rr_cvar <= C1_CVAR_TOL and rr_var <= C1_VAR_TOL and elapsed < C1_TIME_CAP,
          f"1-d oracle rel RMSE cvar={rr_cvar:.4f} (tol {C1_CVAR_TOL}), "
          f"var={rr_var:.4f} (tol {C1_VAR_TOL}), {elapsed:.1f}s")


def test_criterion_2_unbiased_tail_probability(onedim_dist):
    started = time.perf_counter()
    n = 100_000
    params = TransformParams(r=extrapolation_factor(1e-6, 2.6), rho=1.0)
    X = sample_inputs(n, onedim_dist, seed=202)
    Z = extrapolate(X, params)
    w = np.exp(log_likelihood_ratio(X, onedim_dist, params))
    worst = 0.0
    details = []
    for u in (5.0, 10.0, 15.0):
        terms = w * (Z[:, 0] > u)
        mean = terms.mean()
        se = terms.std(ddof=1) / math.sqrt(n)
        dev = abs(mean - math.exp(-u)) / se
        worst = max(worst, dev)
        details.append(f"u={u:g}: {dev:.2f} se")
    elapsed = time.perf_counter() - started
    check(2, worst <= C2_SIGMAS and elapsed < C2_TIME_CAP,
          f"tail mass unbiased within {C2_SIGMAS} se ({', '.join(details)}), {elapsed:.1f}s")


def test_criterion_3_jacobian_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for d in (2, 5, 10):
        for r in (2.0, 5.0, 10.0):
            for rho in (0.5, 1.0, 2.0):
                params = TransformParams(r=r, rho=rho)
                X = rng.uniform(1e-3, 10.0, size=(100, d))
                for x in X:
                    J = np.empty((d, d))
                    for j in range(d):
                        step = 1e-5 * (1.0 + abs(x[j]))
                        hi, lo = x.copy(), x.copy()
                        hi[j] += step
                        lo[j] -= step
                        J[:, j] = (extrapolate(hi, params) - extrapolate(lo, params)) / (2 * step)
                    fd = math.log(abs(np.linalg.det(J)))
                    err = abs(log_jacobian(x, params) - fd) / abs(fd)
                    worst = max(worst, err)
    elapsed = time.perf_counter() - started
    check(3, worst <= C3_REL_TOL and elapsed < C3_TIME_CAP,
          f"jacobian vs central differences, worst rel err {worst:.2e} "
          f"(tol {C3_REL_TOL}), {elapsed:.1f}s")


def test_criterion_4_portfolio_flat_error():
    started = time.perf_counter()
    betas = (10.0 ** -3.5, 1e-5, 1e-6, 1e-7)
    cfg = portfolio_config(betas=betas)
    table = run_replications(cfg, "is")
    cvs = {b: relative_rmse(table.values("cvar_hat", b)) for b in betas}
    flatness = cvs[1e-7] / cvs[betas[0]]
    elapsed = time.perf_counter() - started
    ok = all(v <= C4_CV_TOL for v in cvs.values()) and flatness <= C4_FLATNESS
    check(4, ok and elapsed < C4_TIME_CAP,
          "portfolio cv " + ", ".join(f"{b:g}: {v:.4f}" for b, v in cvs.items())
          + f" (tol {C4_CV_TOL}); flatness {flatness:.2f}x (cap {C4_FLATNESS}x), {elapsed:.1f}s")


def test_criterion_5_naive_sample_complexity():
    started = time.perf_counter()
    beta = 10.0 ** -3.5
    big = portfolio_config(betas=(beta,), n=200_000, reps=20)
    table = run_replications(big, "naive")
    cv = relative_rmse(table.values("cvar_hat", beta))

    guard_fired = False
    try:
        estimate(big.dist, big.loss, ISConfig(beta=beta, n=1000, seed=0), method="naive")
    except FeasibilityError:
        guard_fired = True
    elapsed = time.perf_counter() - started
    check(5, cv <= C5_CV_TOL and guard_fired and elapsed < C5_TIME_CAP,
          f"naive n=2e5 cv={cv:.4f} (tol {C5_CV_TOL}); n=1e3 guard fired={guard_fired}, "
          f"{elapsed:.1f}s")


def test_criterion_6_project_network(pert_dist):
    started = time.perf_counter()
    betas = (1e-4, 1e-6)
    cfg = ExperimentConfig(dist=pert_dist, loss=LossModel.pert7(), betas=betas,
                           n=1000, h_rule=AffineH(intercept=2.0, slope=0.6),
                           reps=50, base_seed=606)
    table = run_replications(cfg, "is")
    all_ok = all(r.status == "ok" and math.isfinite(r.cvar_hat) for r in table.rows)
    cvs = {b: relative_rmse(table.values("cvar_hat", b)) for b in betas}
    elapsed = time.perf_counter() - started
    ok = all_ok and all(v <= C6_CV_TOL for v in cvs.values())
    check(6, ok and elapsed < C6_TIME_CAP,
          f"project network finite={all_ok}, cv "
          + ", ".join(f"{b:g}: {v:.4f}" for b, v in cvs.items())
          + f" (tol {C6_CV_TOL}), {elapsed:.1f}s")


def test_criterion_7_h_grid_stability():
    started = time.perf_counter()
    beta = 1e-6
    cfg = portfolio_config(betas=(beta,))
    result = cross_validate_h(cfg, C7_H_GRID, beta, reps_cv=20)
    cvs = [e.cv for e in result.entries if e.status == "ok"]
    spread = max(cvs) / min(cvs)
    confirm = run_replications(
        portfolio_config(betas=(beta,), h_rule=FixedH(result.selected_h),
                         base_seed=707), "is")
    selected_cv = relative_rmse(confirm.values("cvar_hat", beta))
    elapsed = time.perf_counter() - started
    ok = (len(cvs) == len(C7_H_GRID) and spread < C7_SPREAD_FACTOR
          and selected_cv <= C7_SELECTED_TOL)
    check(7, ok and elapsed < C7_TIME_CAP,
          f"h grid cv spread {spread:.2f}x (cap {C7_SPREAD_FACTOR}x); "
          f"selected h={result.selected_h:g} cv={selected_cv:.4f} "
          f"(tol {C7_SELECTED_TOL}), {elapsed:.1f}s")


def test_criterion_8_network_loss():
    started = time.perf_counter()
    net = synthetic_relu_params(dim=8, hidden=12, seed=2025)
    dist = DistributionSpec.from_alphas([0.6] * 8, CorrelationMatrix.tridiagonal(8, 0.1))
    cfg = ExperimentConfig(dist=dist, loss=LossModel.relu_net(net), betas=(1e-3,),
                           n=517, h_rule=FixedH(4.6), reps=50, base_seed=808)
    table = run_replications(cfg, "is")
    frac_ok = sum(r.status == "ok" for r in table.rows) / len(table.rows)
    cv = relative_rmse(table.values("cvar_hat", 1e-3))
    elapsed = time.perf_counter() - started
    check(8, frac_ok >= C8_MIN_OK and cv <= C8_CV_TOL and elapsed < C8_TIME_CAP,
          f"network loss ok fraction {frac_ok:.2f} (min {C8_MIN_OK}), "
          f"cv={cv:.4f} (tol {C8_CV_TOL}), {elapsed:.1f}s")


def test_criterion_9_estimator_oracles():
    started = time.perf_counter()
    three = ([5.0, 3.0, 1.0], [math.log(0.12), math.log(0.5), 0.0])
    ten = (np.arange(1.0, 11.0), np.zeros(10))       # unit weights: the naive estimators
    v = value_at_risk(three, 0.1)
    exact = (v == 3.0
             and cvar(three, 0.1, v) == 3.8
             and value_at_risk(ten, 0.2) == 8.0 and cvar(ten, 0.2, 8.0) == 9.5)

    rng = np.random.default_rng(909)
    scans = 0
    agree = True
    for _ in range(200):
        n = int(rng.integers(1, 21))
        losses = np.round(rng.exponential(size=n), 3)
        logw = rng.normal(scale=1.0, size=n)
        beta = float(rng.uniform(0.01, 0.6))
        w = np.exp(logw)
        if w.mean() <= beta:
            continue
        candidates = np.unique(losses)
        tails = np.array([(w * (losses > u)).mean() for u in candidates])
        want = candidates[tails <= beta].min()
        agree &= value_at_risk((losses, logw), beta) == want
        scans += 1
    elapsed = time.perf_counter() - started
    check(9, exact and agree and scans > 150 and elapsed < C9_TIME_CAP,
          f"unit oracles exact={exact}; brute-force scan agreement on "
          f"{scans} instances={agree}, {elapsed:.1f}s")
