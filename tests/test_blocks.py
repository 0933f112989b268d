"""The per-sample functions over fixed column blocks, and the streamed draw."""

import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import log_ndtr

import tailshift.distributions as dz
import tailshift.estimators as ez
from tailshift import (
    CorrelationMatrix,
    DistributionSpec,
    DomainError,
    EstimationError,
    ExperimentConfig,
    FixedH,
    ISConfig,
    LossModel,
    TransformParams,
    copula_log_density,
    estimate,
    extrapolate,
    joint_log_density,
    log_jacobian,
    log_likelihood_ratio,
    pert_h_rule,
    run_replications,
    sample_inputs,
    synthetic_relu_params,
)
from tailshift.distributions import _BLOCK, _drawn_blocks, _joined
from tailshift.transform import extrapolation_factor

N = 3 * _BLOCK + 17                      # three full blocks and a short fourth
EDGES = [0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, 3 * _BLOCK, N - 1]
ROWS = sorted(set(EDGES) | set(range(0, N, 101)))   # the block edges and a spread


@pytest.fixture(params=["portfolio", "pert", "relu"])
def model(request, portfolio_dist, pert_dist):
    if request.param == "portfolio":
        return portfolio_dist, LossModel.linear(), 2.6
    if request.param == "relu":
        dist = DistributionSpec.from_alphas([0.6] * 8, CorrelationMatrix.tridiagonal(8, 0.1))
        return dist, LossModel.relu_net(synthetic_relu_params(8, 12, seed=5)), 4.6
    return pert_dist, LossModel.pert7(), pert_h_rule.h_for(1e-6)


def _outputs(dist, loss, h):
    """The bits of every per-sample function, and an estimate, on one N-sample draw."""
    X = sample_inputs(N, dist, seed=21)
    params = TransformParams(r=3.0, rho=loss.rho)
    report = estimate(dist, loss, ISConfig(beta=1e-6, n=N, seed=21, h=h))
    outs = (X, joint_log_density(X * 1.5, dist),
            copula_log_density(X / (1.0 + X), dist.correlation),
            extrapolate(X, params), log_jacobian(X, params), log_likelihood_ratio(X, dist, params),
            loss(X), LossModel.external(loss, loss.rho)(X))
    return [out.tobytes() for out in outs], report


class TestPerSample:
    def test_blocks_give_the_bits_of_one_pass(self, model, monkeypatch):
        blocked = _outputs(*model)
        monkeypatch.setattr(dz, "_BLOCK", 10 * N)
        assert _outputs(*model) == blocked

    def test_a_float_batch_held_component_major_enters_without_a_copy(self):
        # as an estimate hands each drawn block to the density and the loss
        x = np.random.default_rng(5).uniform(0.5, 2.0, (7, 40)).T
        seen = []
        assert dz._per_sample(lambda xc: seen.append(xc) or xc[0], x).tobytes() == x[:, 0].tobytes()
        assert np.shares_memory(seen[0], x)


class TestBlockedRows:
    def test_rows_match_single_calls(self, model):
        dist, loss, _ = model
        X = sample_inputs(N, dist, seed=4) * 1.5
        params = TransformParams(r=3.0, rho=loss.rho)
        dens = joint_log_density(X, dist)
        Z, jac = extrapolate(X, params), log_jacobian(X, params)
        for i in ROWS:
            assert dens[i] == joint_log_density(X[i], dist)
            assert Z[i].tobytes() == extrapolate(X[i], params).tobytes()
            assert jac[i] == log_jacobian(X[i], params)

    @pytest.mark.parametrize("rho", [1.0, 0.7])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, (0.5, 0.9, 1.0, 2.0)])
    def test_rows_do_not_depend_on_the_batch_width(self, alpha, rho):
        # the draw's t**(1/alpha) at exponents numpy's pow special-cases for a
        # scalar exponent (2, 1 and 0.5), alone and beside an ordinary one in
        # one block; the densities and the stretch take their powers by exp,
        # whose bits must not follow the batch width either
        dist = DistributionSpec.from_alphas(np.broadcast_to(alpha, 4),
                                            CorrelationMatrix.tridiagonal(4, 0.1))
        params = TransformParams(r=3.0, rho=rho)
        draw = sample_inputs(_BLOCK + 1, dist, seed=19)
        X = draw * 1.5
        funcs = (lambda x: joint_log_density(x, dist), lambda x: extrapolate(x, params),
                 lambda x: log_jacobian(x, params))
        for width in (2, 7, _BLOCK):    # a one-sample draw takes numpy's own product for V
            assert sample_inputs(width, dist, seed=19).tobytes() == draw[:width].tobytes(), width
        for func in funcs:
            batch = func(X)
            for width in (1, 2, 7, _BLOCK, _BLOCK + 1):
                assert func(X[:width]).tobytes() == batch[:width].tobytes(), width
            assert np.asarray(func(X[-1])).tobytes() == batch[-1].tobytes()   # one vector

    @pytest.mark.parametrize("n", [_BLOCK, _BLOCK + 1, N])
    def test_draw_matches_the_sampler_as_first_written(self, model, n):
        dist = model[0]
        X, log_fx = _joined(_drawn_blocks(n, dist, 9), n)
        X = X.T
        W = np.random.default_rng(9).standard_normal((n, dist.dim))
        want = (-log_ndtr(-(W @ dist.correlation.chol.T))) ** (1.0 / dist.alphas)
        assert X.tobytes() == want.tobytes()
        assert X.tobytes() == sample_inputs(n, dist, seed=9).tobytes()
        np.testing.assert_allclose(log_fx, joint_log_density(X, dist), rtol=0.0, atol=1e-12)

    def test_a_whole_float_n_past_one_block_draws_as_its_int(self, portfolio_dist):
        n = 2 * _BLOCK + 1
        want = sample_inputs(n, portfolio_dist, seed=9).tobytes()
        assert sample_inputs(2 * _BLOCK + 1.0, portfolio_dist, seed=9).tobytes() == want

    def test_loss_rows_match_the_batch(self, model):
        # a block may end in one row, whose loss must have the bits it has in the batch
        dist, loss, _ = model
        X = sample_inputs(N, dist, seed=4) * 1.5
        batch = np.asarray(loss(X), dtype=float)
        for i in ROWS:
            assert loss(X[i]) == batch[i]
            assert np.asarray(loss(X[i:i + 1])).tobytes() == batch[i:i + 1].tobytes()

    @pytest.mark.parametrize("n", [_BLOCK, _BLOCK + 1])
    def test_estimates_at_the_block_edge(self, model, n):
        dist, loss, h = model
        report = estimate(dist, loss, ISConfig(beta=1e-6, n=n, seed=2, h=h))
        assert np.isfinite([report.var_hat, report.cvar_hat, report.cvar_se]).all()
        assert report.cvar_hat > report.var_hat > 0


class TestValidation:
    def test_bad_input_in_the_third_block(self, portfolio_dist):
        X = np.array(sample_inputs(N, portfolio_dist, seed=5))
        params = TransformParams(r=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad, call, message in [
                    (np.nan, lambda x: joint_log_density(x, portfolio_dist), "strictly positive"),
                    (np.inf, lambda x: extrapolate(x, params), "must be finite"),
                    (np.nan, lambda x: log_jacobian(x, params), "must be finite")]:
                Y = X.copy()
                Y[2 * _BLOCK + 5, 3] = bad
                with pytest.raises(DomainError, match=message):
                    call(Y)
            Y = X.copy()
            Y[2 * _BLOCK + 5] = 0.0
            with pytest.raises(DomainError, match="at least one nonzero component"):
                extrapolate(Y, params)


def test_thread_counts_agree_on_blocked_replications(portfolio_dist, linear):
    config = ExperimentConfig(dist=portfolio_dist, loss=linear, betas=(1e-6,), n=20_000,
                              h_rule=FixedH(2.6), reps=3, base_seed=8)
    one = run_replications(config, "is")
    two = run_replications(replace(config, threads=2), "is")
    assert one.rows == two.rows
    assert all(row.status == "ok" for row in one.rows)


def _whole_batch_draw(n, dist, seed):
    """(X, log f(X)) with W and V formed whole, then the draw kernel on the whole of them.

    The streamed draw, and a draw in one wide block, must give these bits.
    """
    W = np.random.default_rng(seed).standard_normal((n, dist.dim))
    V = W @ dist.correlation.chol.T
    X, log_fx = dz._draw_columns(W.T, V.T, dist, True)
    return X.T, log_fx


class TestStreamedDraw:
    @pytest.mark.parametrize("n", [1, 2, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1, N])
    def test_matches_the_whole_batch_draw(self, model, n, monkeypatch):
        dist, loss, h = model
        beta, seed, hs = 1e-3, 13, (h, 0.8 * h)
        X, log_fx = _whole_batch_draw(n, dist, seed)
        want = []
        for hk in hs:
            params = TransformParams(r=extrapolation_factor(beta, hk), rho=loss.rho)
            Z = extrapolate(X, params)
            want.append((np.asarray(loss(Z), dtype=float).tobytes(),
                         (joint_log_density(Z, dist) - log_fx + log_jacobian(X, params)).tobytes()))

        seen, real_tail = [], ez._tail

        def recording_tail(losses, logw, beta, var=None):
            seen.append((losses.tobytes(), logw.tobytes()))     # the tail overwrites both
            return real_tail(losses, logw, beta, var)

        monkeypatch.setattr(ez, "_tail", recording_tail)
        # one draw, streamed into the stretch and weighed at both h
        got = ez._estimates(dist, loss, ISConfig(beta=beta, n=n, seed=seed), "is",
                            ez._cells(beta, hs, "is", loss))
        assert len(got) == len(hs)     # errors where one or two samples leave an empty tail
        assert seen == want
        assert sample_inputs(n, dist, seed).tobytes() == X.tobytes()

        monkeypatch.setattr(dz, "_BLOCK", 10 * N)      # one block: W and V whole
        try:
            estimate(dist, loss, ISConfig(beta=beta, n=n, seed=seed, h=h))
        except EstimationError:
            pass
        assert seen[2] == want[0]
        assert sample_inputs(n, dist, seed).tobytes() == X.tobytes()

    def test_estimate_never_holds_the_draw_whole(self, portfolio_dist, linear):
        n = 100_000
        config = ISConfig(beta=1e-6, n=n, seed=3, h=2.6)
        estimate(portfolio_dist, linear, config)          # first-call allocations aside
        tracemalloc.start()
        try:
            estimate(portfolio_dist, linear, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # W, V and X are (n, d) float arrays, and the image Z is one: the
        # draw is streamed, so at most Z and some n-vectors are whole at once
        assert peak < 2 * n * portfolio_dist.dim * 8

    @pytest.mark.parametrize("n", [_BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1, N])
    def test_naive_matches_the_whole_batch_losses(self, model, n, monkeypatch):
        dist, loss, _ = model
        beta, seed = 0.01, 13
        X, _ = _whole_batch_draw(n, dist, seed)
        want_losses = np.asarray(loss(X), dtype=float)

        seen, real_tail = [], ez._tail

        def recording_tail(losses, logw, beta, var=None):
            seen.append((losses.copy(), logw.copy()))     # the tail overwrites both
            return real_tail(losses, logw, beta, var)

        monkeypatch.setattr(ez, "_tail", recording_tail)
        estimate(dist, loss, ISConfig(beta=beta, n=n, seed=seed), "naive")
        monkeypatch.setattr(dz, "_BLOCK", 10 * N)      # one block: X whole
        estimate(dist, loss, ISConfig(beta=beta, n=n, seed=seed), "naive")
        assert len(seen) == 2
        for losses, logw in seen:
            assert losses.tobytes() == want_losses.tobytes()
            assert logw.tobytes() == np.zeros(n).tobytes()

    @pytest.mark.parametrize("method, beta", [("is", 1e-6), ("naive", 1e-3)])
    def test_estimate_never_holds_an_n_by_d_array(self, portfolio_dist, linear, method, beta):
        n = 100_000
        config = ISConfig(beta=beta, n=n, seed=3, h=2.6)
        estimate(portfolio_dist, linear, config, method)  # first-call allocations aside
        tracemalloc.start()
        try:
            estimate(portfolio_dist, linear, config, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each drawn block is weighed where it is drawn: what is whole is a
        # few n-vectors (losses, log weights, the tail's sort), never X or Z
        assert peak < n * portfolio_dist.dim * 8

    def test_the_tail_works_on_the_estimates_own_vectors(self, portfolio_dist, linear):
        n = 100_000
        config = ISConfig(beta=1e-6, n=n, seed=3, h=2.6)
        estimate(portfolio_dist, linear, config)          # first-call allocations aside
        tracemalloc.start()
        try:
            estimate(portfolio_dist, linear, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the losses and log weights, the sort's order and the sorted weights
        # are four n-vectors; a scaled weight or excess vector beside them
        # would be a fifth
        assert peak < 4.5 * n * 8

    @pytest.mark.parametrize("method, beta", [("is", 1e-6), ("naive", 1e-3)])
    def test_estimate_holds_one_drawn_block_at_a_time(self, portfolio_dist, linear, method,
                                                      beta, monkeypatch):
        refs, alive, real_draw_rows = [], [], dz._draw_rows

        def draw_rows(*args):
            alive.append(sum(ref() is not None for ref in refs))   # earlier X blocks
            X, log_fx = real_draw_rows(*args)
            refs.append(weakref.ref(X))
            return X, log_fx

        monkeypatch.setattr(dz, "_draw_rows", draw_rows)
        estimate(portfolio_dist, linear, ISConfig(beta=beta, n=N, seed=3, h=2.6), method)
        # each block is weighed and dropped before the next is drawn
        assert alive == [0, 0, 0, 0]
