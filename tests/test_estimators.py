"""Weighted tail CDF, value-at-risk, cvar, standard errors, estimate()."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailshift import (
    BadLossError,
    CorrelationMatrix,
    DistributionSpec,
    DomainError,
    EstimateReport,
    EstimationError,
    FeasibilityError,
    ISConfig,
    LossModel,
    TailMassError,
    TransformParams,
    WeightedLossSample,
    cvar,
    cvar_standard_error,
    estimate,
    extrapolate,
    extrapolation_factor,
    joint_log_density,
    log_jacobian,
    log_likelihood_ratio,
    naive_var_cvar,
    sample_inputs,
    tail_probability,
    value_at_risk,
)
from tailshift.distributions import _drawn_blocks, _joined

THREE = [
    WeightedLossSample(5.0, math.log(0.12)),
    WeightedLossSample(3.0, math.log(0.5)),
    WeightedLossSample(1.0, 0.0),
]


def unit_samples(losses):
    return [WeightedLossSample(float(v)) for v in losses]


class TestTailProbability:
    def test_counting_case(self):
        assert tail_probability(unit_samples(range(1, 11)), 7.5) == 0.3

    def test_above_max_is_zero(self):
        assert tail_probability(unit_samples(range(1, 11)), 10.0) == 0.0
        assert tail_probability(unit_samples(range(1, 11)), 99.0) == 0.0

    def test_weighted_case(self):
        got = tail_probability(THREE, 4.0)
        assert math.isclose(got, 0.04, rel_tol=1e-12)

    def test_tie_counts_as_non_exceedance(self):
        # strict inequality: a loss equal to u is not in the tail
        assert tail_probability(unit_samples([1.0, 2.0, 2.0]), 2.0) == 0.0


class TestValueAtRisk:
    def test_weighted_example(self):
        assert value_at_risk(THREE, 0.1) == 3.0

    def test_counting_example(self):
        assert value_at_risk(unit_samples(range(1, 11)), 0.2) == 8.0

    def test_single_sample(self):
        assert value_at_risk([WeightedLossSample(4.25)], 0.5) == 4.25

    def test_all_equal(self):
        assert value_at_risk(unit_samples([7.0] * 5), 0.3) == 7.0

    def test_duplicate_losses_merged(self):
        # {1,1,2,2,3}: G(2) = 0.2 <= 0.2 so the quantile sits at 2
        assert value_at_risk(unit_samples([1, 1, 2, 2, 3]), 0.2) == 2.0

    def test_precondition_message(self):
        light = [WeightedLossSample(1.0, -50.0), WeightedLossSample(2.0, -50.0)]
        with pytest.raises(TailMassError, match="beta too large for sampled tail mass"):
            value_at_risk(light, 0.5)

    def test_self_consistency(self):
        rng = np.random.default_rng(8)
        losses = rng.exponential(size=40)
        logw = rng.normal(scale=0.5, size=40)
        samples = (losses, logw)
        for beta in (0.05, 0.1, 0.3):
            v = value_at_risk(samples, beta)
            assert tail_probability(samples, v) <= beta
            below = np.nextafter(v, -np.inf)
            assert tail_probability(samples, below) > beta

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_beta(self, seed):
        rng = np.random.default_rng(seed)
        samples = (rng.exponential(size=25), rng.normal(scale=0.3, size=25))
        betas = [0.02, 0.05, 0.1, 0.2, 0.4]
        vars_ = [value_at_risk(samples, b) for b in betas]
        cvars = [cvar(samples, b, v) for b, v in zip(betas, vars_)]
        assert all(a >= b for a, b in zip(vars_, vars_[1:]))
        assert all(a >= b for a, b in zip(cvars, cvars[1:]))

    LOSS_DRAWS = (
        lambda rng, n: np.round(rng.exponential(size=n), 3),
        # few distinct losses, so most tie groups hold several samples of
        # different weights, in whatever order the unstable sort leaves them
        lambda rng, n: rng.integers(0, 5, size=n).astype(float),
    )

    def test_brute_force_scan_equivalence(self):
        # direct scan of the weighted tail step function over every sample
        # point, across many small random instances of each loss draw
        for draw_losses in self.LOSS_DRAWS:
            rng = np.random.default_rng(0)
            checked = 0
            for _ in range(200):
                n = int(rng.integers(1, 21))
                losses = draw_losses(rng, n)
                logw = rng.normal(scale=1.0, size=n)
                beta = float(rng.uniform(0.01, 0.6))
                w = np.exp(logw)
                if w.mean() <= beta:
                    with pytest.raises(TailMassError):
                        value_at_risk((losses, logw), beta)
                    continue
                candidates = np.unique(losses)
                tails = np.array([(w * (losses > u)).mean() for u in candidates])
                want = candidates[tails <= beta].min()
                assert value_at_risk((losses, logw), beta) == want
                checked += 1
            assert checked > 150  # the guard branch should stay the minority

    def test_unit_weight_ties_resolve_exactly(self):
        # n a power of two, so beta * n is exactly the integer k: a candidate
        # with exactly k losses above it meets the level with equality
        rng = np.random.default_rng(2)
        for n in (8, 16, 32, 64):
            for _ in range(25):
                losses = rng.integers(0, 6, size=n).astype(float)
                k = int(rng.integers(1, n))
                candidates = np.unique(losses)
                above = np.array([np.count_nonzero(losses > u) for u in candidates])
                assert value_at_risk((losses, np.zeros(n)), k / n) == candidates[above <= k].min()

    @staticmethod
    def _var_by_scan(losses, scaled, beta, m):
        """The var search as first written: a scan of the shifted suffix sums; None if too light."""
        n = losses.size
        order = np.argsort(losses)
        above = scaled[order]
        np.cumsum(above[::-1], out=above[::-1])
        with np.errstate(over="ignore"):
            threshold = beta * n * np.exp(-m)
        if above[0] <= threshold:
            return None
        above[:-1] = above[1:].copy()
        above[-1] = 0.0
        return losses[order[int(np.argmax(above <= threshold))]]

    def test_binary_search_finds_the_scans_var(self):
        # ties, unit weights, zero weights (some, and all) and n = 1, against
        # the scan it replaced: the same sorted position, so the same loss
        import tailshift.estimators as ez
        weight_draws = (
            lambda rng, n: np.exp(-rng.exponential(size=n)),
            lambda rng, n: np.ones(n),
            lambda rng, n: np.where(rng.uniform(size=n) < 0.4, 0.0, rng.uniform(size=n)),
            lambda rng, n: np.zeros(n),
        )
        rng = np.random.default_rng(31)
        found = 0
        for draw_losses in self.LOSS_DRAWS:
            for draw_weights in weight_draws:
                for n in (1, 2, 3, 8, 17, 64, 500):
                    for _ in range(12):
                        losses, scaled = draw_losses(rng, n), draw_weights(rng, n)
                        # exact unit-weight ties at beta * n = k when n is a power of two
                        beta = (int(rng.integers(1, n)) / n if n in (2, 8, 64)
                                else float(10.0 ** rng.uniform(-3.0, -0.1)))
                        m = float(rng.choice([0.0, rng.normal(scale=3.0)]))
                        want = self._var_by_scan(losses, scaled, beta, m)
                        if want is None:
                            with pytest.raises(TailMassError):
                                ez._weighted_var(losses, scaled, beta, m)
                            continue
                        assert ez._weighted_var(losses, scaled, beta, m) == want
                        found += 1
        assert found > 300

    def test_all_zero_weights(self):
        # every log weight -inf: the largest is taken as 0, so the scaled
        # weights are exact zeros and nothing warns
        s = (np.array([1.0, 2.0, 3.0]), np.full(3, -np.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TailMassError, match=re.escape("mean weight 0 = exp(-inf)")):
                value_at_risk(s, 0.1)
            assert cvar(s, 0.1, 2.0) == 2.0
            assert cvar_standard_error(s, 0.1, 2.0) == 0.0

    def test_extreme_log_weights(self):
        s = (np.array([1.0, 2.0, 3.0]), np.array([-1000.0, 0.0, 800.0]))
        v = value_at_risk(s, 0.1)
        assert v == 3.0
        assert cvar(s, 0.1, v) == 3.0
        assert cvar_standard_error(s, 0.1, v) == 0.0


class TestCvar:
    def test_weighted_example(self):
        assert math.isclose(cvar(THREE, 0.1, 3.0), 3.8, rel_tol=1e-12)

    def test_counting_example(self):
        assert cvar(unit_samples(range(1, 11)), 0.2, 8.0) == 9.5

    def test_no_excess_returns_var(self):
        assert cvar(unit_samples([1.0, 2.0, 3.0]), 0.2, 3.0) == 3.0

    def test_dominates_var(self):
        rng = np.random.default_rng(14)
        samples = (rng.exponential(size=30), rng.normal(scale=0.4, size=30))
        for beta in (0.05, 0.2, 0.4):
            v = value_at_risk(samples, beta)
            assert cvar(samples, beta, v) >= v

    def test_translation_equivariance_exact_on_integers(self):
        base = np.arange(1.0, 11.0)
        v0, c0 = naive_var_cvar(base, 0.2)
        v1, c1 = naive_var_cvar(base + 5.0, 0.2)
        assert (v1, c1) == (v0 + 5.0, c0 + 5.0)

    @given(st.floats(-10.0, 10.0), st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_translation_equivariance(self, a, seed):
        rng = np.random.default_rng(seed)
        losses = rng.exponential(size=20)
        logw = rng.normal(scale=0.3, size=20)
        beta = 0.15
        v0 = value_at_risk((losses, logw), beta)
        v1 = value_at_risk((losses + a, logw), beta)
        assert math.isclose(v1, v0 + a, rel_tol=0, abs_tol=1e-9)
        c0 = cvar((losses, logw), beta, v0)
        c1 = cvar((losses + a, logw), beta, v1)
        assert math.isclose(c1, c0 + a, rel_tol=0, abs_tol=1e-9)


class TestStandardError:
    def test_two_point_example(self):
        v = 3.0
        s = unit_samples([v, v + 2.0])
        assert cvar_standard_error(s, 0.5, v) == 2.0

    def test_zero_when_no_excess(self):
        assert cvar_standard_error(unit_samples([1.0, 2.0]), 0.5, 2.0) == 0.0

    def test_homogeneous_in_excess_scale(self):
        v = 1.0
        a = unit_samples([v, v + 1.0, v + 3.0])
        b = unit_samples([v, v + 2.0, v + 6.0])
        assert math.isclose(cvar_standard_error(b, 0.25, v),
                            2.0 * cvar_standard_error(a, 0.25, v), rel_tol=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(DomainError):
            cvar_standard_error([WeightedLossSample(1.0)], 0.5, 0.0)

    def test_tail_leaves_its_terms_in_the_vectors_it_is_handed(self):
        # the scaled weights and the scaled tail terms stay in logw and losses,
        # bit for bit, and the standard error has the bits of np.var's
        import tailshift.estimators as ez
        rng = np.random.default_rng(5)
        beta = 0.01
        for n in (2, 3, 7, 8, 9, 129, 1000, 4099):
            for draw in (rng.exponential, rng.standard_cauchy, lambda size: np.full(size, 0.1)):
                losses = draw(size=n) * 10.0 ** rng.uniform(-5, 5)
                logw = rng.uniform(-2.0, 2.0, n) + rng.uniform(0.0, 300.0)
                given_losses, given_logw = losses.copy(), logw.copy()
                v, _, se, _ = ez._tail(losses, logw, beta)
                m = given_logw.max()
                scaled = np.exp(given_logw - m)
                terms = np.maximum(given_losses - v, 0.0) * scaled
                assert logw.tobytes() == scaled.tobytes()
                assert losses.tobytes() == terms.tobytes()
                spread = math.sqrt(np.var(terms, ddof=1) / n)
                assert se == (float(np.exp(m) * spread / beta) if spread > 0.0 else spread)


class TestNaive:
    def test_counting_example(self):
        assert naive_var_cvar(np.arange(1.0, 11.0), 0.2) == (8.0, 9.5)

    def test_all_equal(self):
        assert naive_var_cvar(np.full(6, 3.25), 0.3) == (3.25, 3.25)

    def test_two_points(self):
        assert naive_var_cvar(np.array([1.0, 2.0]), 0.5) == (1.0, 2.0)

    def test_equals_weighted_path_with_unit_weights(self):
        rng = np.random.default_rng(77)
        losses = rng.exponential(size=35)
        beta = 0.12
        v, c = naive_var_cvar(losses, beta)
        s = unit_samples(losses)
        assert v == value_at_risk(s, beta)
        assert c == cvar(s, beta, v)


class TestInputValidation:
    def test_rejects_nan_loss(self):
        with pytest.raises(DomainError):
            value_at_risk((np.array([1.0, np.nan]), np.zeros(2)), 0.3)

    def test_rejects_positive_inf_weight(self):
        with pytest.raises(DomainError):
            value_at_risk((np.array([1.0, 2.0]), np.array([0.0, np.inf])), 0.3)

    def test_minus_inf_weight_allowed(self):
        # a zero weight is legitimate (sample annihilated by the ratio)
        s = (np.array([1.0, 2.0, 3.0]), np.array([0.0, -np.inf, 0.0]))
        assert value_at_risk(s, 0.3) == 3.0

    def test_rejects_bad_beta(self):
        for beta in (0.0, 1.0, -0.1, 1.3):
            with pytest.raises(DomainError):
                value_at_risk(unit_samples([1.0, 2.0]), beta)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            value_at_risk([], 0.3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "2", True])
    @pytest.mark.parametrize("name, call", [
        ("var", lambda s, v: cvar(s, 0.3, v)),
        ("var", lambda s, v: cvar_standard_error(s, 0.3, v)),
        ("u", tail_probability),
    ], ids=["cvar", "cvar_standard_error", "tail_probability"])
    def test_tail_arguments_keep_the_real_number_rule(self, name, call, bad):
        # four samples: the standard error is defined, so only the argument can fail
        s = (np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4))
        with pytest.raises(DomainError, match=f"^{name} must be finite, got"):
            call(s, bad)

    @pytest.mark.parametrize("as_pairs", [False, True], ids=["arrays", "samples"])
    def test_public_tail_functions_leave_their_inputs_alone(self, as_pairs):
        rng = np.random.default_rng(2)
        losses, logw = rng.standard_normal(200), rng.standard_normal(200) - 3.0
        logw[::7] = -np.inf
        keep = losses.copy(), logw.copy()
        samples = ([WeightedLossSample(a, b) for a, b in zip(losses, logw)] if as_pairs
                   else (losses, logw))
        v = value_at_risk(samples, 0.01)
        calls = (lambda: tail_probability(samples, v), lambda: value_at_risk(samples, 0.01),
                 lambda: cvar(samples, 0.01, v), lambda: cvar_standard_error(samples, 0.01, v),
                 lambda: naive_var_cvar(losses, 0.05))
        first = [f() for f in calls]
        assert [f() for f in calls] == first       # a second call reads the same inputs
        assert losses.tobytes() == keep[0].tobytes() and logw.tobytes() == keep[1].tobytes()
        if as_pairs:
            assert [(x.loss, x.log_weight) for x in samples] == list(zip(*keep))

    @pytest.mark.parametrize("field", ["n", "seed"])
    def test_config_rejects_bool_counts(self, field):
        # bool is an int subclass: n=True would quietly draw one sample
        for bad in (True, False):
            with pytest.raises(DomainError, match=f"{field} must be"):
                ISConfig(**{**dict(beta=0.1, n=10, seed=0), field: bad})


class TestEstimate:
    def test_deterministic(self, onedim_dist, linear):
        cfg = ISConfig(beta=1e-6, n=500, seed=123, h=2.6)
        a = estimate(onedim_dist, linear, cfg)
        b = estimate(onedim_dist, linear, cfg)
        assert a == b
        assert isinstance(a, EstimateReport)
        assert a.method == "is" and a.beta == 1e-6 and a.n == 500

    def test_report_orders_var_cvar(self, onedim_dist, linear):
        rep = estimate(onedim_dist, linear, ISConfig(beta=1e-5, n=800, seed=5, h=3.0))
        assert rep.cvar_hat >= rep.var_hat
        assert rep.cvar_se >= 0.0

    def test_one_dim_tracks_analytic_tail(self, onedim_dist, linear):
        # exponential loss: var = ln(1/beta), cvar = ln(1/beta) + 1
        beta = 1e-4
        rep = estimate(onedim_dist, linear, ISConfig(beta=beta, n=4000, seed=9, h=2.6))
        assert abs(rep.var_hat - math.log(1 / beta)) / math.log(1 / beta) < 0.15
        want_c = math.log(1 / beta) + 1.0
        assert abs(rep.cvar_hat - want_c) / want_c < 0.15

    def test_unit_factor_reproduces_naive_exactly(self, onedim_dist, linear):
        cfg = ISConfig(beta=0.1, n=200, seed=42)
        params = TransformParams(r=1.0, rho=linear.rho)
        x = sample_inputs(cfg.n, onedim_dist, cfg.seed)
        pair = (linear(extrapolate(x, params)), log_likelihood_ratio(x, onedim_dist, params))
        a_var = value_at_risk(pair, cfg.beta)
        b = estimate(onedim_dist, linear, cfg, method="naive")
        assert a_var == b.var_hat
        assert cvar(pair, cfg.beta, a_var) == b.cvar_hat
        assert cvar_standard_error(pair, cfg.beta, a_var) == b.cvar_se

    def test_naive_guard_fires_for_deep_tail(self, onedim_dist, linear):
        cfg = ISConfig(beta=1e-6, n=1000, seed=1)
        with pytest.raises(FeasibilityError, match="naive estimation infeasible"):
            estimate(onedim_dist, linear, cfg, method="naive")

    def test_naive_feasible_when_tail_sampled(self, onedim_dist, linear):
        cfg = ISConfig(beta=0.05, n=2000, seed=2)
        rep = estimate(onedim_dist, linear, cfg, method="naive")
        assert rep.method == "naive"
        assert rep.h is None
        # empirical quantile of 2000 exponentials at the 5% tail
        assert abs(rep.var_hat - math.log(20.0)) < 0.5

    def test_requires_h_for_importance(self, onedim_dist, linear):
        with pytest.raises(DomainError):
            estimate(onedim_dist, linear, ISConfig(beta=1e-6, n=100, seed=0))

    @pytest.mark.parametrize("method", ["is", "naive"])
    def test_a_loss_of_another_input_dimension_is_refused_before_any_draw(self, drawn, method):
        dist = DistributionSpec.from_alphas([0.9] * 3)
        with pytest.raises(DomainError, match="dimension 7, but the input model has dimension 3"):
            estimate(dist, LossModel.pert7(), ISConfig(beta=0.01, n=5000, seed=1, h=2.6), method)
        assert drawn == []

    def test_rejects_unknown_method(self, onedim_dist, linear):
        with pytest.raises(DomainError):
            estimate(onedim_dist, linear,
                     ISConfig(beta=0.1, n=100, seed=0), method="quasi")

    def test_non_finite_loss_raises_bad_loss(self, onedim_dist):
        def loss(x):
            return float("nan") if x[0] < 1.0 else float(x[0])

        with pytest.raises(BadLossError, match="non-finite"):
            estimate(onedim_dist, LossModel.external(loss, rho=1.0),
                     ISConfig(beta=1e-3, n=200, seed=4, h=2.6))
        assert issubclass(BadLossError, EstimationError)

    @pytest.mark.parametrize("alpha, beta", [(0.02, 1e-6), (1.0, 1e-300)])
    def test_empty_tail_is_not_reported(self, alpha, beta, linear):
        # in both, the weight of the largest sampled loss alone exceeds beta,
        # so var is that loss and nothing lies above it
        dist = DistributionSpec.from_alphas([alpha])
        with pytest.raises(TailMassError, match="no sampled loss lies above var"):
            estimate(dist, linear, ISConfig(beta=beta, n=1000, seed=7, h=2.6))

    def test_one_stretch_pass_per_estimate(self, portfolio_dist, linear, monkeypatch):
        import tailshift.estimators as ez
        import tailshift.transform as tz

        calls = {"log1p": 0, "sample": 0, "as_arrays": 0}
        real_log1p, real_sample = tz._log1p_abs, ez._drawn_blocks
        real_as_arrays = ez._as_arrays

        def counted_log1p(x):
            calls["log1p"] += 1
            return real_log1p(x)

        def counted_sample(*args, **kw):
            calls["sample"] += 1
            return real_sample(*args, **kw)

        def counted_as_arrays(samples):
            calls["as_arrays"] += 1
            return real_as_arrays(samples)

        monkeypatch.setattr(tz, "_log1p_abs", counted_log1p)
        monkeypatch.setattr(ez, "_drawn_blocks", counted_sample)
        monkeypatch.setattr(ez, "_as_arrays", counted_as_arrays)
        estimate(portfolio_dist, linear, ISConfig(beta=1e-6, n=500, seed=3, h=2.6))
        # var, cvar and se come from one pass over the weighted losses, which
        # are checked where they are weighed and not again at the tail
        assert calls == {"log1p": 1, "sample": 1, "as_arrays": 0}

    def test_naive_method_computes_no_density(self, portfolio_dist, linear, monkeypatch):
        import tailshift.distributions as dz
        import tailshift.estimators as ez
        import tailshift.transform as tz

        calls, draws = [], []
        real, real_draw = dz.joint_log_density, ez._drawn_blocks

        def counted(x, dist):
            calls.append(np.shape(x))
            return real(x, dist)

        def counted_draw(*args, **kw):
            draws.append(kw.get("with_density", True))
            return real_draw(*args, **kw)

        monkeypatch.setattr(dz, "joint_log_density", counted)
        monkeypatch.setattr(tz, "joint_log_density", counted)
        monkeypatch.setattr(ez, "_drawn_blocks", counted_draw)
        estimate(portfolio_dist, linear, ISConfig(beta=0.05, n=200, seed=3), method="naive")
        assert calls == [] and draws == [False]
        estimate(portfolio_dist, linear, ISConfig(beta=1e-6, n=200, seed=3, h=2.6))
        assert calls == [(200, 10)]     # the image only: the source density comes with the draw
        assert draws == [False, True]

    def test_weighted_losses_compose_from_public_functions(self, portfolio_dist, linear,
                                                           monkeypatch):
        import tailshift.estimators as ez

        seen = []
        real_tail = ez._tail

        def recording_tail(losses, logw, beta, var=None):
            seen.append((losses.copy(), logw.copy()))     # the tail overwrites both
            return real_tail(losses, logw, beta, var)

        monkeypatch.setattr(ez, "_tail", recording_tail)
        beta, n, seed, h = 1e-6, 800, 11, 2.6
        estimate(portfolio_dist, linear, ISConfig(beta=beta, n=n, seed=seed, h=h))
        (losses, logw), = seen
        params = TransformParams(r=extrapolation_factor(beta, h), rho=linear.rho)
        X, log_fx = _joined(_drawn_blocks(n, portfolio_dist, seed), n)
        X = X.T
        assert X.tobytes() == sample_inputs(n, portfolio_dist, seed).tobytes()
        Z = extrapolate(X, params)
        want_losses = np.asarray(linear(Z), dtype=float)
        want_logw = joint_log_density(Z, portfolio_dist) - log_fx + log_jacobian(X, params)
        assert losses.tobytes() == want_losses.tobytes()
        assert logw.tobytes() == want_logw.tobytes()

    def test_tail_mass_message_names_mean_weight(self, linear):
        # d = 200: the stretch carries the whole sample far past beta, so the
        # mean weight is about exp(-43.7), far below beta
        dist = DistributionSpec.from_alphas([0.8] * 200, CorrelationMatrix.tridiagonal(200, 0.3))
        with pytest.raises(TailMassError) as info:
            estimate(dist, linear, ISConfig(beta=1e-6, n=1000, seed=1, h=2.6))
        msg = str(info.value)
        found = re.search(r"mean weight (\S+) = exp\((\S+)\) <= beta = 1e-06", msg)
        assert msg.startswith("beta too large for sampled tail mass") and found
        assert math.isclose(float(found.group(2)), -43.71, abs_tol=0.05)
        assert math.isclose(float(found.group(1)), math.exp(float(found.group(2))), rel_tol=0.01)
        assert "h is too large for this model (try a smaller h)" in msg

    def test_dimension_mismatch_surfaces(self, linear):
        dist2 = DistributionSpec.from_alphas([1.0, 1.0])
        with pytest.raises(DomainError):
            estimate(dist2, LossModel.pert7(), ISConfig(beta=1e-6, n=64, seed=0, h=2.6))
