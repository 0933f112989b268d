"""Marginals, copula, joint density, quantiles, sampling."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import log_ndtr, ndtri

from tailshift import (
    CorrelationMatrix,
    DistributionSpec,
    DomainError,
    ExperimentConfig,
    FixedH,
    GridH,
    ISConfig,
    LossModel,
    MarginalSpec,
    TransformParams,
    copula_log_density,
    extrapolation_factor,
    joint_log_density,
    sample_inputs,
    value_at_risk,
)
from tailshift.distributions import _drawn_blocks, _joined, _normal_scores, _sum_components

# Normal quantiles ndtri(p), the scores copula_log_density takes at u = p,
# from mpmath at 60 decimal digits (root of log(ncdf(x)) = log(p), seeded
# from the classic sqrt(-2 log p) asymptote).  Keys are the exact float64
# inputs p.
NDTRI_ORACLE = {
    1e-300: -37.04709629936119923655,
    1e-150: -26.12296119059398350925,
    1e-50: -14.93333753478848898066,
    1e-12: -7.034483825301131932614,
    1e-06: -4.753424308822898957339,
    0.025: -1.95996398454005421178,
    0.25: -0.6744897501960817432022,
    0.75: 0.6744897501960817432022,
    0.9: 1.281551565544600593487,
    float(1 - 1e-12): 7.034486910047835205692,
}

# Normal scores z with Phi(z) = 1 - exp(-t), from mpmath at 60 decimal digits
# as sqrt(2) * erfinv(1 - 2 exp(-t)).  Keys are the exact float64 inputs t;
# they cover ndtri_exp's three argument ranges (t below 0.1454, up to 2, and
# beyond) and both sides of the median t = ln 2.
SCORE_ORACLE = {
    1e-12: -7.034483825301201653983,
    1e-06: -4.753424409867024736564,
    0.01: -2.328221737537175678615,
    0.1: -1.309617799458493132053,
    0.145: -1.103165239178193630633,
    0.147: -1.09523876865138465275,
    0.3: -0.6458699862012635814457,
    0.5: -0.2702880207387358539209,
    0.69: -0.003950629560280057015239,
    0.7: 0.008559478582480282295668,
    1.0: 0.3374749637642024552758,
    1.9: 1.038285325600339044973,
    2.1: 1.162794580545809333639,
    5.0: 2.470938637261588416889,
    20.0: 5.879209356485336259886,
    50.0: 9.67482528361235650875,
}


@given(st.lists(st.floats(width=64), min_size=1, max_size=12))
@example([0.1, 0.2, 0.3, 1e16, 1.0, -1e16])
@example([-0.0])
def test_one_column_sums_as_the_row_loop(values):
    # a single column is added as Python floats; the loop over numpy rows,
    # which every wider batch takes, is the reference
    col = np.array(values)[:, None]
    want = col[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for row in col[1:]:
            want += row
    assert _sum_components(col).tobytes() == want.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 33])
def test_wider_blocks_sum_as_the_row_loop(d, order):
    # one reduction over the rows must add them in index order, as the loop
    # does, whatever the layout: a pairwise sum would round otherwise
    rng = np.random.default_rng(d)
    for m in (2, 3, 7, 8, 9, 2047, 2048, 2049):
        a = rng.standard_normal((d, m)) * 10.0 ** rng.integers(-8, 9, (d, m))
        a = np.asarray(a, order=order)
        want = a[0].copy()
        for row in a[1:]:
            want += row
        assert _sum_components(a).tobytes() == want.tobytes(), m


class TestNormalScores:
    def test_oracle_points(self):
        t = np.array(list(SCORE_ORACLE))
        want = np.array(list(SCORE_ORACLE.values()))
        got = _normal_scores(t)
        np.testing.assert_allclose(got, want, rtol=0, atol=4e-15)

    @pytest.mark.parametrize("model", ["portfolio", "pert", "alpha 0.02"])
    def test_scores_recover_the_sampler_normals(self, model, request):
        # sample_inputs maps V = W chol' to x; the scores joint_log_density
        # takes of x must give V back
        dist = (request.getfixturevalue(f"{model}_dist") if model != "alpha 0.02"
                else DistributionSpec.from_alphas([0.02]))
        n, seed = 2000, 31
        X = sample_inputs(n, dist, seed)
        V = np.random.default_rng(seed).standard_normal((n, dist.dim)) @ dist.correlation.chol.T
        np.testing.assert_allclose(_normal_scores(X ** dist.alphas), V, rtol=0, atol=1e-13)


class TestMarginal:
    def test_quantile_value(self):
        m = MarginalSpec(alpha=1.1)
        assert math.isclose(m.quantile(0.5), 0.71663146655824216971, rel_tol=1e-15)

    def test_quantile_unit_alpha_is_exponential(self):
        m = MarginalSpec(alpha=1.0)
        u = np.linspace(0.0, 0.999, 64)
        np.testing.assert_array_equal(m.quantile(u), -np.log1p(-u))

    def test_cdf_at_zero(self):
        assert MarginalSpec(alpha=0.5).cdf(0.0) == 0.0

    @given(st.floats(1e-6, 0.999999), st.sampled_from([0.5, 0.9, 1.0, 1.5, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_quantile_cdf_round_trip(self, u, alpha):
        # this direction is well conditioned; x -> u -> x blows up near
        # u = 1 where the cdf flattens
        m = MarginalSpec(alpha=alpha)
        assert math.isclose(m.cdf(m.quantile(u)), u, rel_tol=1e-8)

    def test_cdf_quantile_round_trip_moderate_x(self):
        for alpha in (0.5, 1.0, 2.0):
            m = MarginalSpec(alpha=alpha)
            for x in (1e-3, 0.4, 1.7, 3.0):
                assert math.isclose(m.quantile(m.cdf(x)), x, rel_tol=1e-7)

    def test_log_density_value(self):
        m = MarginalSpec(alpha=0.5)
        assert math.isclose(m.log_density(4.0), -3.3862943611198906188, rel_tol=1e-14)

    def test_log_density_matches_fd_of_cdf(self):
        m = MarginalSpec(alpha=1.3)
        x = 2.7
        h = 1e-6
        fd = (m.cdf(x + h) - m.cdf(x - h)) / (2 * h)
        assert math.isclose(math.exp(m.log_density(x)), fd, rel_tol=1e-8)

    def test_log_density_of_an_empty_array_is_empty(self):
        # as quantile, cdf and joint_log_density give
        for x in (np.zeros(0), np.zeros((0, 3))):
            out = MarginalSpec(alpha=0.7).log_density(x)
            assert isinstance(out, np.ndarray) and out.shape == x.shape

    def test_log_density_rejects_nonpositive(self):
        m = MarginalSpec(alpha=0.5)
        with pytest.raises(DomainError):
            m.log_density(0.0)
        with pytest.raises(DomainError):
            m.log_density(-1.0)

    @pytest.mark.parametrize("method, arg, value", [
        ("quantile", "u", -0.1), ("quantile", "u", 1.0), ("quantile", "u", math.nan),
        ("quantile", "u", "0.5"), ("quantile", "u", True), ("quantile", "u", [0.5, None]),
        ("cdf", "x", -1.0), ("cdf", "x", math.nan), ("cdf", "x", "0.5"), ("cdf", "x", True),
        ("log_density", "x", "0.5"), ("log_density", "x", [True]),
    ])
    def test_refuses_values_out_of_range_nan_strings_and_bools(self, method, arg, value):
        # quantile and cdf gave nan for a nan, read "0.5" as 0.5 and True as 1
        with pytest.raises(DomainError, match=f"^{arg} must"):
            getattr(MarginalSpec(alpha=1.5), method)(value)

    def test_alpha_must_be_positive(self):
        with pytest.raises(DomainError):
            MarginalSpec(alpha=0.0)
        with pytest.raises(DomainError):
            MarginalSpec(alpha=-2.0)


class TestCorrelationMatrix:
    def test_identity(self):
        R = CorrelationMatrix.identity(4)
        np.testing.assert_array_equal(R.matrix, np.eye(4))
        assert R.log_det == 0.0

    def test_tridiagonal_structure(self):
        R = CorrelationMatrix.tridiagonal(5, 0.3).matrix
        assert R[0, 1] == 0.3 and R[1, 0] == 0.3
        assert R[0, 2] == 0.0
        np.testing.assert_array_equal(np.diag(R), np.ones(5))

    def test_equicorrelated_structure(self):
        R = CorrelationMatrix.equicorrelated(3, 0.1).matrix
        np.testing.assert_array_equal(
            R, np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]]))

    def test_cholesky_reconstructs(self):
        R = CorrelationMatrix.equicorrelated(6, 0.25)
        L = R.chol
        np.testing.assert_allclose(L @ L.T, R.matrix, rtol=0, atol=1e-12)
        assert np.all(np.triu(L, 1) == 0.0)

    def test_rejects_non_positive_definite(self):
        bad = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        with pytest.raises(DomainError):
            CorrelationMatrix(bad)

    def test_rejects_asymmetric(self):
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(DomainError):
            CorrelationMatrix(bad)

    def test_rejects_bad_diagonal(self):
        bad = np.array([[1.0, 0.2], [0.2, 0.9]])
        with pytest.raises(DomainError):
            CorrelationMatrix(bad)

    @pytest.mark.parametrize("matrix, match", [
        (np.ones((2, 3)), r"must be square, got shape \(2, 3\)"),
        (np.ones(3), r"must be square, got shape \(3,\)"),
        ([[1.0, math.nan], [math.nan, 1.0]], "entries must be finite"),
        ([[1.0, math.inf], [math.inf, 1.0]], "entries must be finite"),
    ])
    def test_rejects_a_matrix_that_is_not_square_or_not_finite(self, matrix, match):
        with pytest.raises(DomainError, match=f"^correlation matrix {match}"):
            CorrelationMatrix(matrix)

    @pytest.mark.parametrize("matrix", [
        [["1", "0.5"], ["0.5", "1"]], [[True, False], [False, True]], [[1.0, 0.5], [0.5]],
    ], ids=["strings", "bools", "ragged"])
    def test_rejects_a_matrix_that_is_no_array_of_real_numbers(self, matrix):
        with pytest.raises(DomainError, match="^correlation matrix must be an array of real"):
            CorrelationMatrix(matrix)

    def test_rejects_a_bool_among_numbers(self):
        # numpy reads [[1.0, 0.5], [0.5, True]] as floats, with True as 1.0
        with pytest.raises(DomainError, match="^correlation matrix must be an array of real numbers"):
            CorrelationMatrix([[1.0, 0.5], [0.5, True]])

    def test_hash_agrees_with_eq_on_signed_zeros(self):
        neg, pos = CorrelationMatrix.tridiagonal(3, -0.0), CorrelationMatrix.tridiagonal(3, 0.0)
        assert neg == pos and hash(neg) == hash(pos)
        assert len({DistributionSpec.from_alphas([1.0] * 3, R) for R in (neg, pos)}) == 1

    def test_equicorrelated_rejects_infeasible(self):
        # c must exceed -1/(d-1) for positive definiteness
        with pytest.raises(DomainError):
            CorrelationMatrix.equicorrelated(3, -0.6)

    @pytest.mark.parametrize("R", [
        CorrelationMatrix.identity(1),
        CorrelationMatrix.equicorrelated(10, 0.1),
        CorrelationMatrix.tridiagonal(7, 0.1),
        CorrelationMatrix.tridiagonal(8, 0.1),
        CorrelationMatrix.equicorrelated(12, 0.45),
        CorrelationMatrix.tridiagonal(12, 0.45),
    ], ids=repr)
    def test_inverse_matches_a_cholesky_solve_on_the_patterns(self, R):
        eye = np.eye(R.dim)
        want = cho_solve((R.chol, True), eye) - eye
        np.testing.assert_allclose(R._inv_minus_identity, want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_inverse_matches_a_cholesky_solve_on_random_matrices(self, seed):
        # both solves are backward stable, so they may differ by the forward
        # error of either, about eps * cond(R) * |R^-1|
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 13))
        A = rng.standard_normal((d, int(rng.integers(d, 3 * d))))
        S = A @ A.T
        scale = np.sqrt(np.diag(S))
        C = S / np.outer(scale, scale)
        np.fill_diagonal(C, 1.0)
        R = CorrelationMatrix((C + C.T) / 2.0)
        eye = np.eye(d)
        inv = cho_solve((R.chol, True), eye)
        bound = np.finfo(float).eps * np.linalg.cond(R.matrix) * np.max(np.abs(inv))
        np.testing.assert_allclose(R._inv_minus_identity, inv - eye, rtol=0.0, atol=bound)


class TestCopula:
    def test_value(self):
        R = CorrelationMatrix.equicorrelated(2, 0.2)
        got = copula_log_density(np.array([0.5, 0.5]), R)
        assert math.isclose(got, 0.020410997260127564777, rel_tol=1e-12)

    def test_identity_matrix_is_exactly_zero(self):
        R = CorrelationMatrix.identity(3)
        u = np.array([0.1, 0.6, 0.93])
        assert copula_log_density(u, R) == 0.0

    def test_rejects_boundary_u(self):
        R = CorrelationMatrix.identity(2)
        with pytest.raises(DomainError):
            copula_log_density(np.array([0.0, 0.5]), R)
        with pytest.raises(DomainError):
            copula_log_density(np.array([0.5, 1.0]), R)

    @pytest.mark.parametrize("u", [[0.0, 0.5], [0.5, 1.0], [math.nan, 0.5], [0.5, -math.inf],
                                   [-0.2, 0.5], [0.5, math.inf]])
    def test_names_u_for_a_coordinate_outside_the_open_unit_interval(self, u):
        # the kernel's normal quantile named its own argument p
        with pytest.raises(DomainError, match=r"^u must lie strictly inside \(0, 1\)$"):
            copula_log_density(np.array(u), CorrelationMatrix.identity(2))

    @pytest.mark.parametrize("p", list(NDTRI_ORACLE))
    def test_scores_match_the_oracle_into_both_tails(self, p):
        # at u = (p, 1/2) the second score is an exact 0, so with rho = 1/2
        # the copula term is -log(1 - rho^2)/2 - s^2 rho^2/(2(1 - rho^2))
        # = -log(3/4)/2 - s^2/6 at the score s = ndtri(p)
        s = NDTRI_ORACLE[p]
        want = -0.5 * math.log(0.75) - s * s / 6.0
        got = copula_log_density([p, 0.5], CorrelationMatrix.equicorrelated(2, 0.5))
        assert abs(got - want) <= 1e-13 * (0.5 * abs(math.log(0.75)) + s * s / 6.0), (got, want)

    def test_median_scores_are_exact_zeros(self):
        # ndtri(1/2) is an exact 0, so the quadratic form adds nothing
        for d in (1, 2, 3, 7, 12):
            R = _correlation("equicorrelated", d, 0.3)
            assert copula_log_density(np.full(d, 0.5), R) == -0.5 * R.log_det

    def test_reflecting_u_keeps_the_bits(self):
        # for u >= 1/2, 1 - u is exact and ndtri(1 - u) == -ndtri(u); the
        # scores change sign, and the quadratic form keeps every bit
        u = np.random.default_rng(3).uniform(0.5, 1.0, (1000, 3))
        u[:2] = [[0.75, 0.9, 0.987], [1.0 - 1e-9, 0.5, 1.0 - 1e-15]]
        R = CorrelationMatrix.equicorrelated(3, 0.3)
        assert copula_log_density(1.0 - u, R).tobytes() == copula_log_density(u, R).tobytes()

    @given(
        st.integers(1, 12).flatmap(lambda d: st.tuples(
            st.just(d),
            st.sampled_from(["identity", "equicorrelated", "tridiagonal"]),
            st.floats(-0.08, 0.45),     # equicorrelated needs c > -1/(d - 1)
        )),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
    )
    @example((12, "equicorrelated", 0.45), 30, 0)
    @example((7, "identity", 0.0), 1, 5)
    @settings(max_examples=150, deadline=None)
    def test_quadratic_form_matches_triangular_solve(self, model, n, seed):
        # the copula term is -(log det R + s'(R^-1 - I)s)/2; the reference
        # takes s'R^-1 s as |L^-1 s|^2 with one triangular solve per batch
        d, kind, c = model
        R = _correlation(kind, d, c)
        u = np.random.default_rng(seed).uniform(1e-12, 1.0 - 1e-12, (n, d))
        s = ndtri(u)
        y = solve_triangular(R.chol, s.T, lower=True)
        want = -0.5 * (R.log_det + np.sum(y * y, axis=0) - np.sum(s * s, axis=1))
        got = copula_log_density(u, R)
        # the reference subtracts terms of size |s|^2, so its own rounding
        # error scales with them
        scale = abs(R.log_det) + np.sum(s * s, axis=1)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), scale))
        if kind == "identity" or d == 1:
            assert np.all(got == 0.0)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_one_column_has_the_bits_of_a_wider_batch(self, d):
        # numpy multiplies a single column by a matrix-vector kernel that
        # rounds otherwise than its matrix-matrix kernel for two or more
        R = _correlation("equicorrelated", d, 0.3)
        u = np.random.default_rng(d).uniform(1e-9, 1.0 - 1e-9, (2, d))
        assert copula_log_density(u[:1], R).tobytes() == copula_log_density(u, R)[:1].tobytes()

    def test_symmetric_in_exchangeable_case(self):
        R = CorrelationMatrix.equicorrelated(2, 0.35)
        a = copula_log_density(np.array([0.2, 0.7]), R)
        b = copula_log_density(np.array([0.7, 0.2]), R)
        assert math.isclose(a, b, rel_tol=1e-12)


class TestDistributionSpec:
    @pytest.mark.parametrize("marginals, dim, match", [
        ((), 1, "at least one marginal is required"),
        ((1.0, 2.0), 2, "marginals must be MarginalSpec instances"),
        ((MarginalSpec(1.0),) * 2, 3, "2 marginals but correlation matrix of dim 3"),
    ])
    def test_rejects_marginals_that_do_not_fit_the_correlation(self, marginals, dim, match):
        with pytest.raises(DomainError, match=f"^{match}$"):
            DistributionSpec(marginals, CorrelationMatrix.identity(dim))


class TestJointDensity:
    def test_independence_reduces_to_marginal_sum(self, onedim_dist):
        dist = DistributionSpec.from_alphas([0.7, 1.0, 1.4])
        x = np.array([0.5, 2.0, 3.5])
        want = sum(m.log_density(v) for m, v in zip(dist.marginals, x))
        assert joint_log_density(x, dist) == want

    def test_batch_rows_match_single_calls(self, pert_dist):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.1, 4.0, size=(8, 7))
        batch = joint_log_density(X, pert_dist)
        single = np.array([joint_log_density(row, pert_dist) for row in X])
        np.testing.assert_array_equal(batch, single)

    def test_batch_rows_match_single_calls_past_eight_components(self, portfolio_dist):
        # a single row takes other numpy and BLAS paths than a batch (pairwise
        # sums from eight contiguous values on, matrix-vector kernels); the
        # densities keep one order of operations for both
        X = sample_inputs(5, portfolio_dist, seed=8)
        batch = joint_log_density(X, portfolio_dist)
        single = np.array([joint_log_density(row, portfolio_dist) for row in X])
        np.testing.assert_array_equal(batch, single)

    def test_wide_batch_rows_match_single_calls(self, pert_dist):
        # alpha = 0.5: numpy's pow takes a sqrt fast path for a scalar
        # exponent, which a (d, 1) exponent column hit only in wide batches
        X = sample_inputs(9000, pert_dist, seed=6) * 1.3
        batch = joint_log_density(X, pert_dist)
        rows = range(0, 9000, 9)
        single = np.array([joint_log_density(X[i], pert_dist) for i in rows])
        np.testing.assert_array_equal(batch[rows], single)

    def test_density_integrates_to_one(self):
        # smooth-ish marginals keep the quadrature honest; alpha<1 has an
        # integrable singularity at the origin.  Tensor-product Gauss-Legendre
        # on [1e-9, 40]^2: 20 geometrically graded panels x 20 nodes per axis,
        # so the panels shrink toward the origin where the density bends.
        dist = DistributionSpec.from_alphas(
            [1.2, 1.5], CorrelationMatrix.tridiagonal(2, 0.3))
        nodes, weights = np.polynomial.legendre.leggauss(20)
        edges = np.geomspace(1e-9, 40.0, 21)
        half = np.diff(edges)[:, None] / 2.0
        x = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * nodes).ravel()
        w = (half * weights).ravel()
        grid = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        pdf = np.exp(joint_log_density(grid, dist)).reshape(x.size, x.size)
        mass = w @ pdf @ w
        assert abs(mass - 1.0) < 1e-3, mass

    def test_rejects_wrong_dimension(self, pert_dist):
        with pytest.raises(DomainError):
            joint_log_density(np.ones(6), pert_dist)

    @pytest.mark.parametrize("x", [[1.0] * 6 + [True], [[1.0] * 7, [1.0] * 6 + [np.True_]]],
                             ids=["vector", "batch"])
    def test_refuses_a_bool_among_numbers_in_a_list(self, pert_dist, x):
        with pytest.raises(DomainError, match="^x must be an array of real numbers"):
            joint_log_density(x, pert_dist)


def _study(betas):
    return ExperimentConfig(dist=DistributionSpec.from_alphas([1.0]), loss=LossModel.linear(),
                            betas=betas, n=10, h_rule=FixedH(2.0))


class TestRealArguments:
    """Every real-valued argument takes a finite int, float or numpy scalar, and nothing else."""

    @pytest.mark.parametrize("call, want", [
        (lambda: DistributionSpec.from_alphas([1, 2]).alphas.tolist(), [1.0, 2.0]),
        (lambda: DistributionSpec.from_alphas(np.array([0.5, 2.0], np.float32)).alphas.tolist(),
         [0.5, 2.0]),
        (lambda: LossModel.linear(rho=np.int64(2)).rho, 2.0),
        (lambda: TransformParams(r=np.int64(2)).r, 2.0),
        (lambda: ISConfig(beta=np.float32(1e-3), n=10, seed=0).beta, float(np.float32(1e-3))),
        (lambda: value_at_risk((np.arange(4.0), np.zeros(4)), np.float32(0.5)), 1.0),
    ], ids=["int alphas", "float32 alphas", "int64 rho", "int64 r", "float32 beta",
            "float32 var level"])
    def test_accepts_numpy_and_int_scalars(self, call, want):
        assert call() == want

    @pytest.mark.parametrize("call", [
        lambda: MarginalSpec(True),
        lambda: DistributionSpec.from_alphas([True, 1.5]),
        lambda: LossModel.linear(rho=True),
        lambda: ISConfig(beta=0.1, n=10, seed=0, h=True),
        lambda: extrapolation_factor(1e-6, True),
        lambda: ISConfig(beta=0.1, n=10, seed=0, h="2.6"),
        lambda: GridH(["2.0"]),
        lambda: _study(["1e-3"]),
        lambda: CorrelationMatrix.tridiagonal(3, "0.1"),
        lambda: LossModel.linear(rho=10**400),
        lambda: extrapolation_factor(1e-6, 10**400),
    ], ids=["bool alpha", "bool among alphas", "bool rho", "bool h", "bool h factor",
            "string h", "string grid value", "string beta", "string c", "huge rho",
            "huge h factor"])
    def test_refuses_bools_strings_and_huge_ints(self, call):
        # a DomainError, not numpy's or Python's own OverflowError, TypeError or ValueError
        with pytest.raises(DomainError, match="must"):
            call()

    @pytest.mark.parametrize("call, want", [
        (lambda: CorrelationMatrix([[1.0, "0.5"], ["0.5", 1.0]]),
         "correlation matrix must be an array of real numbers, got '0.5'"),
        (lambda: CorrelationMatrix([[1.0, 0.5], [0.5, True]]),
         "correlation matrix must be an array of real numbers, got True"),
        (lambda: copula_log_density([0.5, None, "x"], CorrelationMatrix.identity(3)),
         "u must be an array of real numbers, got None"),
        (lambda: joint_log_density([[1.0, 2.0], [np.True_, 3.0]], DistributionSpec.from_alphas(
            [1.0, 1.0])), f"x must be an array of real numbers, got {np.True_!r}"),
        (lambda: MarginalSpec(1.0).cdf("1.5"), "x must be an array of real numbers, got '1.5'"),
    ], ids=["string in a matrix", "bool in a matrix", "None in a vector", "numpy bool in a batch",
            "string scalar"])
    def test_a_list_names_the_first_entry_it_refuses(self, call, want):
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            call()


class TestSampling:
    def test_shape_and_positivity(self, portfolio_dist):
        X = sample_inputs(500, portfolio_dist, seed=11)
        assert X.shape == (500, 10)
        assert np.all(X > 0)

    def test_deterministic_in_seed(self, pert_dist):
        a = sample_inputs(100, pert_dist, seed=42)
        b = sample_inputs(100, pert_dist, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_inputs(100, pert_dist, seed=43)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n, seed, message", [
        (2.5, 0, "n must be a whole number"),     # would draw 2 rows
        (True, 0, "n must be a whole number"),    # would draw 1 row
        (5, -1, "seed must be nonnegative"),
        (5, 1.5, "seed must be a whole number"),
    ], ids=["n-fraction", "n-bool", "seed-negative", "seed-fraction"])
    def test_rejects_a_count_it_cannot_draw(self, pert_dist, n, seed, message):
        with pytest.raises(DomainError, match=message):
            sample_inputs(n, pert_dist, seed)

    def test_rows_do_not_depend_on_batch_width(self, pert_dist):
        # the draw's x = t**2 takes one pow path at every width (see above)
        wide = sample_inputs(9000, pert_dist, seed=3)
        assert wide[:1000].tobytes() == sample_inputs(1000, pert_dist, seed=3).tobytes()

    def test_marginals_pass_ks(self):
        # KS against the closed-form cdf, column by column.  1.628/sqrt(n)
        # is the 1% critical value, so a seeded run either passes forever
        # or never.
        dist = DistributionSpec.from_alphas(
            [0.8, 1.0, 1.6], CorrelationMatrix.equicorrelated(3, 0.2))
        n = 100_000
        X = sample_inputs(n, dist, seed=2024)
        for j, m in enumerate(dist.marginals):
            d = stats.kstest(m.cdf(X[:, j]), "uniform").statistic
            assert d < 1.628 / math.sqrt(n), (j, d)

    def test_correlation_is_induced(self):
        dist = DistributionSpec.from_alphas(
            [1.0, 1.0], CorrelationMatrix.equicorrelated(2, 0.6))
        X = sample_inputs(50_000, dist, seed=5)
        # Spearman rho is invariant to the marginal transforms, so the
        # copula's rank correlation (6/pi asin(c/2)) shows through.
        rho = stats.spearmanr(X[:, 0], X[:, 1]).statistic
        want = 6.0 / math.pi * math.asin(0.3)
        assert abs(rho - want) < 0.02

    def test_sampling_inverts_scoring(self, onedim_dist):
        # the sampler and the density evaluator must agree about which
        # gaussian score a given x corresponds to, or likelihood ratios
        # drift in the far tail.  log_density finiteness at the extremes
        # of a big sample is the cheap end-to-end check.
        X = sample_inputs(200_000, onedim_dist, seed=99)
        top = np.sort(X[:, 0])[-5:]
        vals = joint_log_density(top[:, None], onedim_dist)
        assert np.all(np.isfinite(vals))


def _correlation(kind, dim, c):
    """R of the given kind; c in [-0.15, 0.45] keeps both families positive definite."""
    if kind == "identity" or dim == 1:
        return CorrelationMatrix.identity(dim)
    return getattr(CorrelationMatrix, kind)(dim, c)


class TestClosedFormDraw:
    @given(
        st.integers(1, 6).flatmap(lambda d: st.tuples(
            st.lists(st.floats(0.2, 3.0), min_size=d, max_size=d),
            st.sampled_from(["identity", "equicorrelated", "tridiagonal"]),
            st.floats(-0.15, 0.45),
        )),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @example(([0.2, 3.0, 1.0, 0.5, 2.0, 0.2], "equicorrelated", 0.45), 1, 0)
    @example(([0.7], "identity", 0.0), 1, 5)
    @settings(max_examples=150, deadline=None)
    def test_matches_sampler_and_joint_density(self, model, n, seed):
        alphas, kind, c = model
        dist = DistributionSpec.from_alphas(alphas, _correlation(kind, len(alphas), c))
        X, log_fx = _joined(_drawn_blocks(n, dist, seed), n)
        X = X.T
        assert X.tobytes() == sample_inputs(n, dist, seed).tobytes()
        # the sampler as first written: normals, Cholesky, normal cdf, quantile
        W = np.random.default_rng(seed).standard_normal((n, len(alphas)))
        want = (-log_ndtr(-(W @ dist.correlation.chol.T))) ** (1.0 / dist.alphas)
        assert X.tobytes() == want.tobytes()
        assert log_fx.shape == (n,)
        np.testing.assert_allclose(log_fx, joint_log_density(X, dist), rtol=0.0, atol=1e-13)
