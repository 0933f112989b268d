"""Loss models: PERT completion time, linear portfolio, ReLU nets, dispatch."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailshift import (
    BadLossError,
    DistributionSpec,
    DomainError,
    ExperimentConfig,
    FixedH,
    ISConfig,
    LossModel,
    ReluNetParams,
    WeightsDimensionError,
    WeightsFormatError,
    estimate,
    linear_loss,
    load_relu_params,
    pert_completion_time,
    relu_net_loss,
    run_replications,
    save_relu_params,
    synthetic_relu_params,
)


class TestPert:
    def test_unit_input(self):
        assert pert_completion_time(np.ones(7)) == 4.0

    def test_counting_input(self):
        assert pert_completion_time(np.arange(1.0, 8.0)) == 18.0

    def test_zero_input(self):
        assert pert_completion_time(np.zeros(7)) == 0.0

    def test_batch(self):
        X = np.stack([np.ones(7), np.arange(1.0, 8.0)])
        np.testing.assert_array_equal(pert_completion_time(X), [4.0, 18.0])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DomainError):
            pert_completion_time(np.ones(6))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 5.0, 7)
        bump = rng.uniform(0.0, 1.0, 7)
        assert pert_completion_time(x + bump) >= pert_completion_time(x)

    def test_positively_homogeneous(self):
        # exact for binary-power scalings; the longest path is a sum of
        # coordinates, each multiplied by t without rounding
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 3.0, 7)
        for t in (0.5, 2.0, 8.0):
            assert pert_completion_time(t * x) == t * pert_completion_time(x)


class TestLinear:
    def test_examples(self):
        assert linear_loss(np.ones(10)) == 10.0
        assert linear_loss(np.zeros(3)) == 0.0
        assert linear_loss(np.array([0.5, 1.5])) == 2.0

    def test_batch(self):
        X = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(linear_loss(X), [3.0, 12.0])


class TestReluNet:
    def hand_net(self):
        return ReluNetParams(
            W1=np.array([[1.0, 0.0], [0.0, 1.0]]),
            b1=np.array([-1.0, 0.0]),
            w2=np.array([1.0, 2.0]),
            b2=0.5,
        )

    def test_hand_computed(self):
        p = self.hand_net()
        # relu(2-1)=1, relu(3)=3 -> 1*1 + 2*3 + 0.5
        assert relu_net_loss(np.array([2.0, 3.0]), p) == 7.5

    def test_constant_net(self):
        p = ReluNetParams(W1=np.zeros((3, 2)), b1=np.zeros(3),
                          w2=np.zeros(3), b2=3.0)
        assert relu_net_loss(np.array([9.0, -4.0]), p) == 3.0

    def test_identity_net(self):
        p = ReluNetParams(W1=np.eye(2), b1=np.zeros(2),
                          w2=np.ones(2), b2=0.0)
        assert relu_net_loss(np.array([1.0, 2.0]), p) == 3.0
        assert relu_net_loss(np.array([-1.0, 2.0]), p) == 2.0

    def test_bias_free_net_is_homogeneous(self):
        p = synthetic_relu_params(dim=4, hidden=6, seed=3)
        p0 = ReluNetParams(W1=p.W1, b1=np.zeros(6), w2=p.w2, b2=0.0)
        x = np.array([0.7, 1.1, 0.2, 2.4])
        for t in (0.25, 2.0, 16.0):
            assert relu_net_loss(t * x, p0) == t * relu_net_loss(x, p0)

    def test_dimension_mismatch(self):
        p = self.hand_net()
        with pytest.raises(DomainError):
            relu_net_loss(np.ones(3), p)

    def test_params_shape_validation(self):
        with pytest.raises(WeightsDimensionError):
            ReluNetParams(W1=np.zeros((3, 2)), b1=np.zeros(2),
                          w2=np.zeros(3), b2=0.0)
        with pytest.raises(WeightsDimensionError):
            ReluNetParams(W1=np.zeros((3, 2)), b1=np.zeros(3),
                          w2=np.zeros(4), b2=0.0)

    def test_params_reject_nonfinite(self):
        with pytest.raises(WeightsFormatError):
            ReluNetParams(W1=np.array([[np.nan, 0.0]]), b1=np.zeros(1),
                          w2=np.ones(1), b2=0.0)

    @pytest.mark.parametrize("weights, name", [
        (dict(W1=[["1", "2"]], b1=["0"], w2=[1.0]), "W1"),
        (dict(W1=[[1.0, 2.0]], b1=[0.0], w2=[True]), "w2"),
        (dict(W1=[[1.0, True]], b1=[0.0], w2=[1.0]), "W1"),
        (dict(W1=[[1.0, 2.0]], b1=np.array([False]), w2=[1.0]), "b1"),
        (dict(W1=[[1.0, 2.0]], b1=[0.0], w2=[np.inf]), "w2"),
    ], ids=["string W1", "bool w2", "bool among W1", "bool array b1", "inf w2"])
    def test_params_reject_weights_that_are_no_finite_numbers(self, weights, name):
        # numpy would read the strings and the bools as numbers, and the loss would use them
        with pytest.raises(WeightsFormatError, match=f"^{name} must be"):
            ReluNetParams(**weights)

    def test_params_leave_the_callers_arrays_writable(self):
        W1, b1, w2 = np.eye(2), np.zeros(2), np.ones(2)
        p = ReluNetParams(W1=W1, b1=b1, w2=w2)
        assert all(a.flags.writeable for a in (W1, b1, w2))
        assert not any(a.flags.writeable for a in (p.W1, p.b1, p.w2))
        W1[0, 0] = 7.0
        assert p.W1[0, 0] == 1.0

    @pytest.mark.parametrize("b2", [True, "1.5", math.inf, None])
    def test_params_reject_a_b2_that_is_no_real_number(self, b2):
        with pytest.raises(WeightsFormatError, match="b2 must be finite"):
            ReluNetParams(W1=np.eye(2), b1=np.zeros(2), w2=np.ones(2), b2=b2)

    def test_params_take_numpy_and_int_b2(self):
        for b2 in (np.float32(0.5), np.int64(2), 3):
            p = ReluNetParams(W1=np.eye(2), b1=np.zeros(2), w2=np.ones(2), b2=b2)
            assert type(p.b2) is float and p.b2 == float(b2)


class TestWeightsFile:
    def test_round_trip_is_bitwise(self, tmp_path):
        p = synthetic_relu_params(dim=8, hidden=12, seed=21)
        path = tmp_path / "net.json"
        save_relu_params(p, path)
        q = load_relu_params(path)
        np.testing.assert_array_equal(p.W1, q.W1)
        np.testing.assert_array_equal(p.b1, q.b1)
        np.testing.assert_array_equal(p.w2, q.w2)
        assert p.b2 == q.b2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_relu_params(tmp_path / "nope.json")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(WeightsFormatError):
            load_relu_params(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(WeightsFormatError):
            load_relu_params(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"dims": {"d": 2, "hidden": 3}, "b1": [0, 0, 0]}))
        with pytest.raises(WeightsFormatError):
            load_relu_params(path)

    def test_inconsistent_dims(self, tmp_path):
        doc = {
            "dims": {"d": 8, "hidden": 12},
            "W1": [[0.0] * 8] * 12,
            "b1": [0.0] * 11,  # one short
            "w2": [0.0] * 12,
            "b2": 0.0,
        }
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightsDimensionError):
            load_relu_params(path)

    @pytest.mark.parametrize("field, value, match", [
        ("d", 2.7, "dims.d must be a whole number"),
        ("hidden", True, "dims.hidden must be a whole number"),
        ("d", "2", "dims.d must be a whole number"),
        ("b2", True, "b2 must be finite"),
        ("b2", "1.5", "b2 must be finite"),
    ])
    def test_counts_and_b2_keep_the_number_rules(self, tmp_path, field, value, match):
        p = synthetic_relu_params(dim=2, hidden=3, seed=4)
        doc = {"dims": {"d": 2, "hidden": 3}, "W1": p.W1.ravel().tolist(),
               "b1": p.b1.tolist(), "w2": p.w2.tolist(), "b2": p.b2}
        if field == "b2":
            doc["b2"] = value
        else:
            doc["dims"] = dict(doc["dims"], **{field: value})
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightsFormatError, match=match):
            load_relu_params(path)

    def test_flat_and_nested_w1_agree(self, tmp_path):
        p = synthetic_relu_params(dim=3, hidden=2, seed=5)
        nested = {
            "dims": {"d": 3, "hidden": 2},
            "W1": p.W1.tolist(),
            "b1": p.b1.tolist(),
            "w2": p.w2.tolist(),
            "b2": p.b2,
        }
        flat = dict(nested, W1=p.W1.ravel().tolist())
        a = tmp_path / "nested.json"
        b = tmp_path / "flat.json"
        a.write_text(json.dumps(nested))
        b.write_text(json.dumps(flat))
        np.testing.assert_array_equal(load_relu_params(a).W1, load_relu_params(b).W1)


class TestSyntheticParams:
    def test_reproducible(self):
        a = synthetic_relu_params(dim=5, hidden=7, seed=9)
        b = synthetic_relu_params(dim=5, hidden=7, seed=9)
        np.testing.assert_array_equal(a.W1, b.W1)
        assert a.b2 == b.b2

    def test_nonnegative_output_layer(self):
        p = synthetic_relu_params(dim=5, hidden=7, seed=9, nonnegative="output")
        assert np.all(p.w2 >= 0)

    def test_all_nonnegative_mode(self):
        p = synthetic_relu_params(dim=5, hidden=7, seed=9, nonnegative="all")
        assert np.all(p.W1 >= 0) and np.all(p.w2 >= 0)


def _weights_file(tmp_path, doc):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("call, error, match", [
    (lambda tmp: ReluNetParams(W1=np.zeros(3), b1=np.zeros(3), w2=np.zeros(3)),
     WeightsDimensionError, r"^W1 must be 2-d \(hidden, d\), got shape \(3,\)$"),
    (lambda tmp: load_relu_params(_weights_file(tmp, [1.0, 2.0])),
     WeightsFormatError, "net.json must hold a JSON object$"),
    (lambda tmp: load_relu_params(_weights_file(tmp, {"dims": {"d": 2}, "W1": [], "b1": [],
                                                      "w2": [], "b2": 0.0})),
     WeightsFormatError, "net.json: 'dims' must hold 'd' and 'hidden'$"),
    (lambda tmp: synthetic_relu_params(2, 3, seed=0, nonnegative="hidden"),
     ValueError, "^nonnegative must be 'output' or 'all', got 'hidden'$"),
    (lambda tmp: LossModel("quadratic"), DomainError, "^unknown loss kind 'quadratic'$"),
    (lambda tmp: LossModel("relu_net"), DomainError, "^relu_net losses need ReluNetParams$"),
    (lambda tmp: LossModel("external", func=3.0), DomainError,
     "^external losses need a callable$"),
    # the bare function in place of its LossModel
    (lambda tmp: estimate(DistributionSpec.from_alphas([1.0]), linear_loss,
                          ISConfig(beta=0.1, n=10, seed=0, h=2.0)),
     DomainError, "^loss must be a LossModel$"),
], ids=["W1 not 2-d", "weights no object", "dims without d and hidden", "bad nonnegative",
        "unknown kind", "relu_net without params", "external without callable",
        "no LossModel"])
def test_malformed_losses_and_weights_are_refused(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


class TestLossModel:
    def test_pert_dispatch(self):
        L = LossModel.pert7()
        assert L(np.arange(1.0, 8.0)) == 18.0
        assert L.rho == 1.0

    def test_linear_dispatch(self):
        L = LossModel.linear()
        assert L(np.array([0.5, 1.5])) == 2.0

    def test_relu_dispatch(self):
        p = synthetic_relu_params(dim=4, hidden=3, seed=1)
        L = LossModel.relu_net(p)
        x = np.array([1.0, 0.5, 2.0, 0.1])
        assert L(x) == relu_net_loss(x, p)

    def test_dim_is_the_input_dimension_a_loss_takes(self):
        assert LossModel.pert7().dim == 7
        assert LossModel.relu_net(synthetic_relu_params(dim=4, hidden=3, seed=1)).dim == 4
        # these take any dimension
        assert LossModel.linear().dim is None
        assert LossModel.external(np.sum, rho=1.0).dim is None

    def test_external_dispatch_loops_rows(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return float(np.max(x))

        L = LossModel.external(f, rho=2.0)
        X = np.array([[1.0, 5.0], [3.0, 2.0]])
        np.testing.assert_array_equal(L(X), [5.0, 3.0])
        assert len(calls) == 2
        assert L.rho == 2.0

    def test_external_rows_are_c_contiguous(self, portfolio_dist):
        # the kernel hands losses F-ordered batches; a callable still gets
        # contiguous row vectors, through one estimate and a replication table
        seen = []

        def total(x):
            seen.append(x.flags.c_contiguous)
            return float(np.sum(x))

        loss = LossModel.external(total, rho=1.0)
        for method in ("is", "naive"):
            estimate(portfolio_dist, loss, ISConfig(beta=0.05, n=200, seed=5, h=2.6), method)
        cfg = ExperimentConfig(dist=portfolio_dist, loss=loss, betas=(0.05,), n=200,
                               h_rule=FixedH(2.6), reps=2, base_seed=9)
        for method in ("is", "naive"):
            assert all(r.status == "ok" for r in run_replications(cfg, method).rows)
        assert len(seen) == 6 * 200 and all(seen)

    def test_external_failures_become_bad_loss(self):
        def diverges(x):
            raise ValueError("model diverged")

        X = np.ones((2, 3))
        for func, cause in ((diverges, ValueError), (lambda x: None, TypeError)):
            with pytest.raises(BadLossError) as info:
                LossModel.external(func, rho=1.0)(X)
            assert isinstance(info.value.__cause__, cause)

    @pytest.mark.parametrize("value, kind", [
        ("1.5", "str"), (True, "bool"), (np.bool_(False), "bool"), (np.array(True), "bool"),
        (None, "NoneType"), (1 + 0j, "complex"), (np.complex128(1.0), "complex128"),
        (np.array([1.0, 2.0]), "ndarray"), (np.array([1.5]), "ndarray"),
    ], ids=["str", "bool", "numpy bool", "0-d bool array", "None", "complex", "numpy complex",
            "array", "one-element array"])
    def test_an_external_value_that_is_no_real_number_is_a_bad_loss(self, value, kind):
        with pytest.raises(BadLossError, match=f"returned {kind}, not a real number") as info:
            LossModel.external(lambda r: value, rho=1.0)(np.ones((2, 3)))
        assert isinstance(info.value.__cause__, TypeError)

    @pytest.mark.parametrize("value", [1.5, 2, np.float32(1.5), np.int64(2), np.uint8(2),
                                       np.array(1.5), np.array(2), math.nan, -math.inf])
    def test_an_external_real_value_passes_as_a_float(self, value):
        got = LossModel.external(lambda r: value, rho=1.0)(np.ones((2, 3)))
        assert got.dtype == float
        assert np.array_equal(got, [float(value)] * 2, equal_nan=True)

    def test_rho_override(self):
        assert LossModel.linear(rho=0.5).rho == 0.5
        with pytest.raises(DomainError):
            LossModel.linear(rho=0.0)
