"""Outward stretch map: factor, image, Jacobian, likelihood ratio."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailshift import (
    CorrelationMatrix,
    DistributionSpec,
    DomainError,
    TailMassError,
    TransformParams,
    copula_log_density,
    extrapolate,
    extrapolation_factor,
    joint_log_density,
    linear_loss,
    log_jacobian,
    log_likelihood_ratio,
    sample_inputs,
)

E = math.e


class TestExtrapolationFactor:
    def test_unit_case(self):
        # beta = e^{-e} puts the inner log at exactly e
        assert extrapolation_factor(math.exp(-E), 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_reference_value(self):
        got = extrapolation_factor(1e-6, 2.6)
        assert math.isclose(got, 6.8270589776376280816, rel_tol=1e-13)

    def test_rejects_beta_above_threshold(self):
        with pytest.raises(DomainError, match="extrapolation undefined"):
            extrapolation_factor(0.5, 2.0)
        with pytest.raises(DomainError):
            extrapolation_factor(1.0 / E, 2.0)

    def test_rejects_inward_factor(self):
        with pytest.raises(DomainError, match="no outward extrapolation"):
            extrapolation_factor(0.3, 0.1)

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            extrapolation_factor(0.0, 2.0)
        with pytest.raises(DomainError):
            extrapolation_factor(1e-6, 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_h(self, h):
        with pytest.raises(DomainError, match="h must be finite"):
            extrapolation_factor(1e-6, h)


class TestTransformParams:
    def test_rejects_r_below_one(self):
        with pytest.raises(DomainError):
            TransformParams(r=0.9, rho=1.0)

    def test_rejects_bad_rho(self):
        # rho = inf would give all-zero exponents, so no stretch at all
        for rho in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="rho must be positive and finite"):
                TransformParams(r=2.0, rho=rho)

    def test_r_equal_one_allowed(self):
        # identity hook, used below to pin down no-op behaviour
        TransformParams(r=1.0, rho=1.0)


class TestExtrapolate:
    def test_one_dim(self):
        p = TransformParams(r=3.0, rho=1.0)
        assert extrapolate(np.array([2.0]), p)[0] == 6.0

    def test_identity_at_unit_factor(self):
        p = TransformParams(r=1.0, rho=1.0)
        x = np.array([0.3, 7.1, 2.2])
        np.testing.assert_array_equal(extrapolate(x, p), x)

    def test_two_component_example(self):
        p = TransformParams(r=4.0, rho=1.0)
        x = np.array([E - 1, E**3 - 1])
        want = np.array([(E - 1) * 4.0 ** (1.0 / 3.0), (E**3 - 1) * 4.0])
        np.testing.assert_allclose(extrapolate(x, p), want, rtol=1e-12)
        # rho halves the exponents: 1/6 and 1/2
        want = np.array([(E - 1) * 4.0 ** (1.0 / 6.0), (E**3 - 1) * 2.0])
        np.testing.assert_allclose(extrapolate(x, TransformParams(r=4.0, rho=2.0)), want,
                                   rtol=1e-12)

    def test_pushes_outward(self):
        p = TransformParams(r=5.0, rho=1.0)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.01, 10.0, size=(50, 4))
        z = extrapolate(x, p)
        assert np.all(z >= x)

    def test_batch_rows_match_single_calls(self):
        p = TransformParams(r=2.5, rho=0.5)
        rng = np.random.default_rng(1)
        X = rng.uniform(0.1, 5.0, size=(6, 3))
        batch = extrapolate(X, p)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], extrapolate(X[i], p))


class TestLogJacobian:
    def test_one_dim_is_log_r(self):
        p = TransformParams(r=3.0, rho=1.0)
        assert log_jacobian(np.array([1.7]), p) == math.log(3.0)
        assert log_jacobian(np.array([0.01]), p) == math.log(3.0)

    def test_identity_factor_gives_zero(self):
        p = TransformParams(r=1.0, rho=2.0)
        assert log_jacobian(np.array([1.0, 2.0, 3.0]), p) == 0.0

    @staticmethod
    def _fd_log_det(x, p):
        d = x.size
        J = np.empty((d, d))
        for j in range(d):
            h = 1e-5 * (1.0 + abs(x[j]))
            hi, lo = x.copy(), x.copy()
            hi[j] += h
            lo[j] -= h
            J[:, j] = (extrapolate(hi, p) - extrapolate(lo, p)) / (2 * h)
        return math.log(abs(np.linalg.det(J)))

    def test_matches_finite_difference_determinant(self):
        p = TransformParams(r=5.0, rho=1.0)
        x = np.array([1.3, 4.7])
        got = log_jacobian(x, p)
        assert math.isclose(got, self._fd_log_det(x, p), rel_tol=1e-5)

    def test_fd_agreement_across_shapes(self):
        rng = np.random.default_rng(7)
        for d in (2, 5, 10):
            for r in (2.0, 5.0):
                p = TransformParams(r=r, rho=1.0)
                for _ in range(5):
                    x = rng.uniform(0.05, 10.0, size=d)
                    got = log_jacobian(x, p)
                    assert math.isclose(got, self._fd_log_det(x, p), rel_tol=1e-4)

    def test_rejects_zero_vector(self):
        with pytest.raises(DomainError):
            log_jacobian(np.zeros(2), TransformParams(r=2.0, rho=1.0))


@pytest.mark.parametrize("f", [extrapolate, log_jacobian])
class TestStretchPastTheFloatRange:
    # raised, warning-free, rather than returned as nan or inf
    def test_a_full_factor_past_the_float_range_is_a_tail_mass_error(self, f):
        # r**(1/rho) = 1e10**100 overflows, though 0.01's factor (1e10**1.4) does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TailMassError, match="past the float range"):
                f(np.array([1.0, 0.0, 0.01]), TransformParams(r=1e10, rho=0.01))

    def test_a_sample_too_close_to_0_for_its_constant_is_a_domain_error(self, f):
        # c = log(5) / log1p(1e-310) overflows; at r = 1 it is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="too close to 0"):
                f(np.array([1e-310, 1e-311]), TransformParams(r=5.0))
            assert np.all(f(np.array([1e-310, 1e-311]), TransformParams(r=1.0))
                          == (np.array([1e-310, 1e-311]) if f is extrapolate else 0.0))


class TestLogLikelihoodRatio:
    def test_one_dim_exponential_closed_form(self, onedim_dist):
        # f(z)/f(x) * J = exp(-(r-1)x) * r, so the log is ln r - (r-1) x
        p = TransformParams(r=3.0, rho=1.0)
        got = log_likelihood_ratio(np.array([2.0]), onedim_dist, p)
        assert math.isclose(got, math.log(3.0) - 4.0, rel_tol=1e-12)

    def test_identity_factor_no_reweighting(self, onedim_dist):
        p = TransformParams(r=1.0, rho=1.0)
        x = sample_inputs(50, onedim_dist, seed=4)
        vals = log_likelihood_ratio(x, onedim_dist, p)
        np.testing.assert_array_equal(vals, np.zeros(50))

    def test_two_dim_independent_exponentials(self):
        dist = DistributionSpec.from_alphas([1.0, 1.0])
        p = TransformParams(r=2.0, rho=1.0)
        x = np.array([1.0, 1.0])
        # density ratio is exp(-(r-1)(x1+x2)); the Jacobian term is whatever
        # the formula says, so test the decomposition, not a rederivation
        want = -2.0 + log_jacobian(x, p)
        assert math.isclose(log_likelihood_ratio(x, dist, p), want, rel_tol=1e-12)

    def test_change_of_variables_on_rectangle(self, portfolio_dist):
        # E[g(T(X)) w(X)] must equal E[g(X)] for bounded g; use the
        # indicator of a box and compare at 3 standard errors.
        n = 40_000
        p = TransformParams(r=2.0, rho=1.0)
        X = sample_inputs(n, portfolio_dist, seed=31)
        Z = extrapolate(X, p)
        w = np.exp(log_likelihood_ratio(X, portfolio_dist, p))

        def in_box(A):
            return np.all((A > 0.2) & (A < 2.0), axis=1).astype(float)

        lhs = in_box(Z) * w
        plain = in_box(sample_inputs(n, portfolio_dist, seed=77))
        se = math.sqrt(np.var(lhs, ddof=1) / n + np.var(plain, ddof=1) / n)
        assert abs(lhs.mean() - plain.mean()) < 3 * se


_LAYOUT_ALPHAS = [0.5, 0.9, 1.1, 1.4] * 3
_LAYOUT_R = CorrelationMatrix.equicorrelated(12, 0.2)
_LAYOUT_DIST = DistributionSpec.from_alphas(_LAYOUT_ALPHAS, _LAYOUT_R)
_LAYOUT_PARAMS = TransformParams(r=3.0, rho=1.5)
_LAYOUT_CASES = {
    # name: (input built from a seeded generator, function of that input)
    "sample_inputs": (
        lambda rng: _LAYOUT_R.matrix,
        lambda R: sample_inputs(37, DistributionSpec.from_alphas(
            _LAYOUT_ALPHAS, CorrelationMatrix(R)), seed=3)),
    "joint_log_density": (
        lambda rng: rng.uniform(0.05, 40.0, (37, 12)),
        lambda x: joint_log_density(x, _LAYOUT_DIST)),
    "copula_log_density": (
        lambda rng: rng.uniform(1e-9, 1.0 - 1e-9, (37, 12)),
        lambda u: copula_log_density(u, _LAYOUT_R)),
    "extrapolate": (
        lambda rng: rng.uniform(-5.0, 40.0, (37, 12)),
        lambda x: extrapolate(x, _LAYOUT_PARAMS)),
    "log_jacobian": (
        lambda rng: rng.uniform(-5.0, 40.0, (37, 12)),
        lambda x: log_jacobian(x, _LAYOUT_PARAMS)),
    "log_likelihood_ratio": (
        lambda rng: rng.uniform(0.05, 40.0, (37, 12)),
        lambda x: log_likelihood_ratio(x, _LAYOUT_DIST, _LAYOUT_PARAMS)),
}


@pytest.mark.parametrize("name", sorted(_LAYOUT_CASES))
def test_output_does_not_depend_on_input_memory_order(name):
    # the kernels work component-major; a C- and an F-ordered copy of the
    # same input must give the same bits
    make, func = _LAYOUT_CASES[name]
    a = make(np.random.default_rng(17))
    c_out, f_out = func(np.ascontiguousarray(a)), func(np.asfortranarray(a))
    assert c_out.shape == f_out.shape
    assert c_out.tobytes() == f_out.tobytes()


_EMPTY_CASES = {
    # name: (function of a (0, 12) batch, shape of its result)
    "joint_log_density": (lambda x: joint_log_density(x, _LAYOUT_DIST), (0,)),
    "extrapolate": (lambda x: extrapolate(x, _LAYOUT_PARAMS), (0, 12)),
    "log_jacobian": (lambda x: log_jacobian(x, _LAYOUT_PARAMS), (0,)),
    "linear_loss": (linear_loss, (0,)),
    "log_likelihood_ratio": (lambda x: log_likelihood_ratio(x, _LAYOUT_DIST, _LAYOUT_PARAMS), (0,)),
}


@pytest.mark.parametrize("name", sorted(_EMPTY_CASES))
def test_an_empty_batch_gives_an_empty_result(name):
    func, shape = _EMPTY_CASES[name]
    out = func(np.zeros((0, 12)))
    assert isinstance(out, np.ndarray) and out.shape == shape


@pytest.mark.parametrize("name", sorted(_EMPTY_CASES))
@pytest.mark.parametrize("shape", [(), (5, 12, 1), (5, 0)])
def test_neither_a_vector_nor_a_batch_of_vectors_is_refused(name, shape):
    with pytest.raises(DomainError, match=r"^x must be a vector of (\d+|d > 0) components or a"):
        _EMPTY_CASES[name][0](np.ones(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_one_bad_component_is_named_by_each_check(bad):
    x = np.random.default_rng(4).uniform(0.05, 40.0, (37, 12))
    x[20, 5] = bad
    with pytest.raises(DomainError, match="^x components must be strictly positive and finite$"):
        joint_log_density(x, _LAYOUT_DIST)
    if not math.isfinite(bad):
        for func in (lambda x: extrapolate(x, _LAYOUT_PARAMS),
                     lambda x: log_jacobian(x, _LAYOUT_PARAMS)):
            with pytest.raises(DomainError, match="^x components must be finite$"):
                func(x)
    x[20] = -0.0                        # a row of zeros, negative ones included
    with pytest.raises(DomainError, match="^x must have at least one nonzero component$"):
        extrapolate(x, _LAYOUT_PARAMS)
