"""Replication tables, error summaries, h selection, variance ratios."""

import csv
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tailshift import (
    AffineH,
    BadLossError,
    DistributionSpec,
    DomainError,
    EstimateReport,
    EstimationError,
    ExperimentConfig,
    FeasibilityError,
    FixedH,
    GridH,
    ISConfig,
    LossModel,
    REPLICATION_COLUMNS,
    ReplicationTable,
    SUMMARY_COLUMNS,
    TailMassError,
    TransformParams,
    cross_validate_h,
    derive_seed,
    estimate,
    extrapolate,
    extrapolation_factor,
    pert_h_rule,
    relative_rmse,
    run_replications,
    sample_inputs,
    summarize,
    synthetic_relu_params,
)
from tailshift.distributions import _BLOCK
from tailshift.harness import _select_h, CrossValEntry


def small_config(onedim_dist, linear, **kw):
    base = dict(dist=onedim_dist, loss=linear, betas=(0.1,), n=60,
                h_rule=FixedH(5.0), reps=4, base_seed=123)
    base.update(kw)
    return ExperimentConfig(**base)


class TestHRules:
    def test_fixed(self):
        assert FixedH(2.6).h_for(1e-6) == 2.6

    def test_affine(self):
        rule = AffineH(intercept=2.0, slope=0.6)
        beta = 10.0 ** -3.5
        assert math.isclose(rule.h_for(beta), 6.8354286952874959364, rel_tol=1e-13)
        assert rule.h_for(beta) == pert_h_rule.h_for(beta)

    def test_grid_rejects_empty(self):
        with pytest.raises(DomainError):
            GridH(())

    def test_grid_rejects_repeated_values(self):
        # a repeated h would run twice, and crossval would select both copies
        with pytest.raises(DomainError, match="h grid values must be distinct"):
            GridH((2.0, 2.0, 3.0))
        with pytest.raises(DomainError, match="distinct"):
            GridH((2, 2.0))

    @pytest.mark.parametrize("values", [2.0, FixedH(2.6), None])
    def test_grid_rejects_values_that_are_no_sequence(self, values):
        with pytest.raises(DomainError, match="^h grid values must be a sequence"):
            GridH(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="finite"):
            GridH((2.0, bad))

    @pytest.mark.parametrize("make, name", [
        (lambda: AffineH(2.0, True), "slope"), (lambda: AffineH("2", 0.6), "intercept"),
        (lambda: AffineH(2.0, math.nan), "slope"), (lambda: FixedH(True), "h"),
        (lambda: FixedH("2.6"), "h"), (lambda: FixedH(math.inf), "h"),
    ], ids=["bool slope", "string intercept", "nan slope", "bool h", "string h", "inf h"])
    def test_fixed_and_affine_rules_keep_the_real_number_rule(self, make, name):
        # AffineH(2.0, True) would run with slope 1, AffineH("2", 0.6) fail in h_for
        with pytest.raises(DomainError, match=f"^{name} must be finite, got"):
            make()

    def test_fixed_and_affine_rules_read_ints_as_floats(self):
        assert type(FixedH(3).value) is float and FixedH(np.int64(3)).h_for(0.1) == 3.0
        rule = AffineH(np.int32(2), 0)
        assert (type(rule.intercept), type(rule.slope)) == (float, float)

    def test_pert_rule_endpoints(self):
        assert pert_h_rule.h_for(1.0) == 2.0
        assert math.isclose(pert_h_rule.h_for(math.exp(-5.0)), 5.0, rel_tol=1e-14)

    def test_pert_rule_domain(self):
        with pytest.raises(DomainError):
            pert_h_rule.h_for(0.0)
        with pytest.raises(DomainError):
            pert_h_rule.h_for(1.5)

    def test_pert_rule_drives_a_run(self, onedim_dist, linear):
        table = run_replications(small_config(onedim_dist, linear, h_rule=pert_h_rule, reps=1), "is")
        assert [r.h for r in table.rows] == [pert_h_rule.h_for(0.1)]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 0, "is", 3) == derive_seed(7, 0, "is", 3)

    def test_distinct_across_axes(self):
        seeds = {
            derive_seed(7, 0, "is", 0),
            derive_seed(7, 0, "is", 1),
            derive_seed(7, 1, "is", 0),
            derive_seed(7, 0, "naive", 0),
            derive_seed(8, 0, "is", 0),
        }
        assert len(seeds) == 5

    def test_rejects_unknown_method(self):
        for method in ("quasi", "both", None):
            with pytest.raises(DomainError, match="^method must be one of"):
                derive_seed(7, 0, method, 0)

    @pytest.mark.parametrize("args, name", [
        ((-1, 0, "is", 0), "base_seed"), ((0, -1, "is", 0), "beta_index"),
        ((0, 0, "is", -1), "rep"), ((0, 1.5, "is", 0), "beta_index"), ((0, 0, "is", True), "rep"),
        (("7", 0, "is", 0), "base_seed")])
    def test_rejects_an_index_that_is_no_count(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            derive_seed(*args)

    def test_valid_seeds_keep_their_bits(self):
        # the per-replication scheme every table and manifest rerun depends on
        assert derive_seed(7, 0, "is", 3) == 16713854078104471094
        for base, bi, method, code, rep in [(0, 0, "is", 0, 0), (7, 2, "naive", 1, 3),
                                            (2**64 + 5, 9, "is", 0, 10**6)]:
            ss = np.random.SeedSequence([base, bi, code, rep])
            assert derive_seed(base, bi, method, rep) == int(ss.generate_state(1, np.uint64)[0])
            assert derive_seed(np.int64(base % 2**63), float(bi), method, np.uint32(rep)) == (
                derive_seed(base % 2**63, bi, method, rep))


class TestRelativeRmse:
    def test_all_equal_no_reference(self):
        assert relative_rmse([3.0, 3.0, 3.0]) == 0.0

    def test_two_values_no_reference(self):
        assert math.isclose(relative_rmse([1.0, 3.0]), math.sqrt(2) / 2, rel_tol=1e-15)

    def test_two_values_with_reference(self):
        assert relative_rmse([1.0, 3.0], reference=2.0) == 0.5

    def test_decomposes_into_spread_and_bias(self):
        rng = np.random.default_rng(3)
        v = rng.normal(10.0, 1.0, size=40)
        ref = 9.4
        mean = v.mean()
        want = math.sqrt(v.var(ddof=0) + (mean - ref) ** 2) / mean
        assert math.isclose(relative_rmse(v, reference=ref), want, rel_tol=1e-12)

    def test_error_cases(self):
        with pytest.raises(DomainError):
            relative_rmse([])
        with pytest.raises(DomainError):
            relative_rmse([1.0])  # no spread estimate from one value
        with pytest.raises(DomainError):
            relative_rmse([1.0, -1.0])  # zero mean
        with pytest.raises(DomainError):
            relative_rmse([1.0, float("nan")])
        assert relative_rmse([1.0], reference=0.5) == 0.5  # one value is fine with a reference

    @pytest.mark.parametrize("values", [["1", "2"], [True, False, True]], ids=["strings", "bools"])
    def test_values_of_strings_or_bools_are_refused(self, values):
        with pytest.raises(DomainError, match="^values must be an array of real numbers, got"):
            relative_rmse(values)

    @pytest.mark.parametrize("values", [[1.0, True, 3.0], [2.0, np.True_]],
                             ids=["bool", "numpy bool"])
    def test_a_bool_among_numbers_is_refused(self, values):
        # numpy reads [1.0, True, 3.0] as floats, with True as 1.0
        with pytest.raises(DomainError, match="^values must be an array of real numbers"):
            relative_rmse(values)

    @pytest.mark.parametrize("reference", [math.nan, math.inf, "2", True])
    def test_reference_keeps_the_real_number_rule(self, reference):
        with pytest.raises(DomainError, match="^reference must be finite, got"):
            relative_rmse([1.0, 2.0], reference=reference)


class TestRunReplications:
    def test_shape(self, onedim_dist, linear):
        table = run_replications(small_config(onedim_dist, linear, reps=2), "is")
        assert len(table.rows) == 2
        assert [r.rep for r in table.rows] == [0, 1]

    def test_deterministic(self, onedim_dist, linear):
        cfg = small_config(onedim_dist, linear)
        a = run_replications(cfg, "is")
        b = run_replications(cfg, "is")
        assert a.rows == b.rows

    def test_threaded_matches_serial(self, onedim_dist, linear):
        cfg = small_config(onedim_dist, linear, betas=(0.1, 0.05), reps=3)
        serial = run_replications(cfg, "is")
        threaded = run_replications(
            small_config(onedim_dist, linear, betas=(0.1, 0.05), reps=3, threads=3), "is")
        assert serial.rows == threaded.rows

    @pytest.mark.parametrize("method", ["is", "naive"])
    def test_an_ok_row_is_the_estimate_report_of_its_seed(self, onedim_dist, linear, method):
        cfg = small_config(onedim_dist, linear, reps=3)
        for row in run_replications(cfg, method).rows:
            one = ISConfig(beta=row.beta, n=cfg.n, seed=row.seed, h=5.0)
            report = estimate(onedim_dist, linear, one, method)
            assert isinstance(row, EstimateReport)
            assert vars(row) == {**vars(report), "rep": row.rep, "status": "ok"}

    def test_naive_infeasible_levels_become_status_rows(self, onedim_dist, linear):
        # n = 60: beta 0.1 gives 6 expected tail points, beta 0.05 only 3
        cfg = small_config(onedim_dist, linear, betas=(0.1, 0.05), reps=4)
        table = run_replications(cfg, "naive")
        assert all(r.status == "ok" for r in table.rows_for(0.1))
        bad = table.rows_for(0.05)
        assert all(r.status == "infeasible" for r in bad)
        assert all(math.isnan(r.var_hat) for r in bad)
        assert table.values("var_hat", 0.05).size == 0

    def test_rows_and_values_of_one_level_and_method(self, onedim_dist, linear):
        cfg = small_config(onedim_dist, linear, betas=(0.1, 0.05), reps=3)
        tables = {m: run_replications(cfg, m) for m in ("is", "naive")}
        both = ReplicationTable(rows=tables["is"].rows + tables["naive"].rows)
        for m, table in tables.items():
            assert both.rows_for(0.1, m) == table.rows_for(0.1) == table.rows[:3]
            assert both.values("cvar_hat", 0.1, m).tolist() == [r.cvar_hat for r in table.rows[:3]]
        assert both.rows_for(method="naive") == tables["naive"].rows

    def test_naive_rows_have_no_h(self, onedim_dist, linear):
        table = run_replications(small_config(onedim_dist, linear, reps=2), "naive")
        assert all(r.h is None for r in table.rows)

    def test_estimation_failures_recorded_not_raised(self, onedim_dist, linear, monkeypatch):
        import tailshift.harness as hz

        real = hz._estimates
        calls = {"k": 0}

        def flaky(dist, loss, config, method, hs):
            calls["k"] += 1
            if calls["k"] % 2 == 0:
                return [TailMassError("beta too large for sampled tail mass") for _ in hs]
            return real(dist, loss, config, method, hs)

        monkeypatch.setattr(hz, "_estimates", flaky)
        table = run_replications(small_config(onedim_dist, linear, reps=4), "is")
        statuses = [r.status for r in table.rows]
        assert statuses == ["ok", "tail-mass", "ok", "tail-mass"]
        assert table.values("cvar_hat", 0.1).size == 2

    def test_non_finite_loss_rows_are_tagged_bad_loss(self, onedim_dist, linear):
        # the loss is called once per row, rep by rep: nan for a few rows of rep 1
        n = 60
        calls = itertools.count()

        def loss(x):
            k = next(calls)
            return float("nan") if k // n == 1 and k % 10 == 0 else float(x[0])

        cfg = small_config(onedim_dist, LossModel.external(loss, rho=1.0), n=n, reps=3)
        table = run_replications(cfg, "is")
        assert [r.status for r in table.rows] == ["ok", "bad-loss", "ok"]
        assert math.isnan(table.rows[1].cvar_hat)
        clean = run_replications(small_config(onedim_dist, linear, n=n, reps=3), "is")
        assert [table.rows[i] for i in (0, 2)] == [clean.rows[i] for i in (0, 2)]

    def test_a_grid_h_that_fails_leaves_the_other_h_as_they_were(self, onedim_dist,
                                                                 monkeypatch):
        # one draw per replication, weighed at every grid point: the loss is nan
        # past a threshold on the image that only the largest h reaches, in a
        # later block of each replication
        import tailshift.estimators as ez

        beta, grid, n, reps = 1e-4, (2.0, 2.6, 3.5), 3 * _BLOCK + 17, 3
        seeds = [derive_seed(0, 0, "is", rep) for rep in range(reps)]
        images = {(h, seed): extrapolate(sample_inputs(n, onedim_dist, seed),
                                         TransformParams(r=extrapolation_factor(beta, h)))[:, 0]
                  for h in grid for seed in seeds}
        threshold = max(images[h, seed].max() for h in grid[:-1] for seed in seeds)
        first_bad = [int(np.argmax(images[grid[-1], seed] > threshold)) for seed in seeds]
        assert all(images[grid[-1], seed].max() > threshold for seed in seeds)
        assert all(i >= _BLOCK for i in first_bad)
        calls = itertools.count()

        def loss(x):
            next(calls)
            return float(x[0]) if x[0] <= threshold else float("nan")

        drawn, real_draw = [], ez._drawn_blocks

        def counted_draw(n, dist, seed, **kw):
            drawn.append(seed)
            return real_draw(n, dist, seed, **kw)

        monkeypatch.setattr(ez, "_drawn_blocks", counted_draw)
        cfg = ExperimentConfig(dist=onedim_dist, loss=LossModel.external(loss, rho=1.0),
                               betas=(beta,), n=n, h_rule=GridH(grid), reps=reps, base_seed=0)
        rows = run_replications(cfg, "is").rows
        assert drawn == seeds
        # the failed h is weighed up to its failing block and no further
        assert next(calls) == sum(2 * n + min(n, (i // _BLOCK + 1) * _BLOCK) for i in first_bad)
        assert [(r.rep, r.h) for r in rows] == [(rep, h) for rep in range(reps) for h in grid]
        assert [r.status for r in rows if r.h == grid[-1]] == ["bad-loss"] * reps
        for h in grid[:-1]:
            got = [r for r in rows if r.h == h]
            want = run_replications(replace(cfg, h_rule=FixedH(h)), "is").rows
            assert got == want and {r.status for r in got} == {"ok"}
            assert (np.array([(r.var_hat, r.cvar_hat, r.cvar_se) for r in got]).tobytes()
                    == np.array([(r.var_hat, r.cvar_hat, r.cvar_se) for r in want]).tobytes())

    def test_a_grid_shares_one_stretch_base_per_block(self, portfolio_dist, linear, monkeypatch):
        # d = 10 and three blocks, the last one short: every h of the grid reads
        # its stretch off one base per drawn block and keeps the bits of its
        # FixedH run
        import tailshift.transform as tz

        calls, real = [], tz._log1p_abs

        def counted(xc):
            calls.append(xc.shape[1])
            return real(xc)

        monkeypatch.setattr(tz, "_log1p_abs", counted)
        grid, n = (1.5, 2.0, 2.6, 3.5, 4.6), 2 * _BLOCK + 17
        cfg = ExperimentConfig(dist=portfolio_dist, loss=linear, betas=(1e-6,), n=n,
                               h_rule=GridH(grid), reps=2, base_seed=11)
        rows = run_replications(cfg, "is").rows
        assert calls == [_BLOCK, _BLOCK, 17] * 2
        for h in grid:
            got = [r for r in rows if r.h == h]
            want = run_replications(replace(cfg, h_rule=FixedH(h)), "is").rows
            assert got == want and {r.status for r in got} == {"ok"}
            assert (np.array([(r.var_hat, r.cvar_hat, r.cvar_se) for r in got]).tobytes()
                    == np.array([(r.var_hat, r.cvar_hat, r.cvar_se) for r in want]).tobytes())

    def test_a_study_derives_each_cells_transform_once_per_level(self, onedim_dist, linear,
                                                                monkeypatch):
        import tailshift.estimators as ez

        calls, real = [], ez.extrapolation_factor

        def counted(beta, h):
            calls.append((beta, h))
            return real(beta, h)

        monkeypatch.setattr(ez, "extrapolation_factor", counted)
        grid = (4.0, 5.0, 6.0)
        cfg = small_config(onedim_dist, linear, h_rule=GridH(grid), reps=4)
        table = run_replications(cfg, "is")
        assert [(r.rep, r.h) for r in table.rows] == [(rep, h) for rep in range(4) for h in grid]
        # each (beta, h) cell is made once and handed to all four replications
        assert calls == [(0.1, h) for h in grid]

    def test_raising_loss_rows_are_tagged_bad_loss(self, onedim_dist, linear):
        # the loss is called once per row, rep by rep: it raises once, inside rep 1
        n = 60
        calls = itertools.count()

        def loss(x):
            if next(calls) == n + 7:
                raise ValueError("model diverged")
            return float(x[0])

        cfg = small_config(onedim_dist, LossModel.external(loss, rho=1.0), n=n, reps=3)
        table = run_replications(cfg, "is")
        assert [r.status for r in table.rows] == ["ok", "bad-loss", "ok"]
        clean = run_replications(small_config(onedim_dist, linear, n=n, reps=3), "is")
        assert [table.rows[i] for i in (0, 2)] == [clean.rows[i] for i in (0, 2)]

    def test_empty_tail_rows_are_tagged_tail_mass(self, linear):
        cfg = small_config(DistributionSpec.from_alphas([0.02]), linear,
                           betas=(1e-6,), n=1000, h_rule=FixedH(2.6), reps=3)
        table = run_replications(cfg, "is")
        assert [r.status for r in table.rows] == ["tail-mass"] * 3

    @pytest.mark.parametrize("rho", [0.0026, 0.0028], ids=["image", "image-density"])
    def test_overflowing_stretch_rows_are_tagged_tail_mass(self, portfolio_dist, rho):
        # at 1e-6 the stretch leaves the float range (at rho 0.0026 the image
        # overflows, at 0.0028 its density): those rows fail alone, warning-free
        loss = LossModel.linear(rho=rho)
        cfg = small_config(portfolio_dist, loss, betas=(1e-3, 1e-6), n=1000,
                           h_rule=FixedH(2.6), reps=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_replications(cfg, "is")
            alone = run_replications(replace(cfg, betas=(1e-3,)), "is")
            with pytest.raises(TailMassError, match="smaller h or a larger rho"):
                estimate(portfolio_dist, loss, ISConfig(beta=1e-6, n=1000, seed=1, h=2.6))
        # repr, since nan != nan
        assert [repr(r) for r in table.rows_for(1e-3)] == [repr(r) for r in alone.rows]
        assert [r.status for r in table.rows_for(1e-6)] == ["tail-mass"] * 3

    def test_a_replication_draws_no_block_once_every_cell_has_failed(self, portfolio_dist,
                                                                     monkeypatch):
        # at rho 0.0026 and 1e-6 the stretch overflows in the first block: the
        # other blocks of the draw would be weighed at no cell
        import tailshift.distributions as dz

        calls, real = [], dz._draw_rows

        def counted(rng, m, n, dist, with_density):
            calls.append(m)
            return real(rng, m, n, dist, with_density)

        monkeypatch.setattr(dz, "_draw_rows", counted)
        loss, n = LossModel.linear(rho=0.0026), 3 * _BLOCK + 17
        cfg = small_config(portfolio_dist, loss, betas=(1e-6,), n=n, h_rule=FixedH(2.6), reps=2)
        assert [r.status for r in run_replications(cfg, "is").rows] == ["tail-mass"] * 2
        with pytest.raises(TailMassError, match="smaller h or a larger rho"):
            estimate(portfolio_dist, loss, ISConfig(beta=1e-6, n=n, seed=1, h=2.6))
        assert calls == [_BLOCK] * 3

    def test_rejects_unknown_method(self, onedim_dist, linear):
        with pytest.raises(DomainError):
            run_replications(small_config(onedim_dist, linear), "quasi")

    @pytest.mark.parametrize("method", ["quasi", "both", None])
    def test_an_unknown_method_is_refused_before_any_draw(self, onedim_dist, linear, method,
                                                          monkeypatch):
        import tailshift.estimators as ez

        drawn = []
        monkeypatch.setattr(ez, "_drawn_blocks", lambda *a, **kw: drawn.append(a) or iter(()))
        with pytest.raises(DomainError, match="^method must be one of"):
            run_replications(small_config(onedim_dist, linear), method)
        assert drawn == []

    @pytest.mark.parametrize("betas, rule, match", [
        ((1e-3, 1e-6, 0.5), FixedH(2.6), "beta must be < 1/e"),
        ((1e-2, 1e-9), AffineH(2.0, -0.09), "no outward extrapolation"),
        ((1e-6, 1e-3), GridH((2.6, 0.5)), "no outward extrapolation"),
    ])
    def test_an_unusable_cell_is_refused_before_any_draw(self, portfolio_dist, linear,
                                                         drawn, betas, rule, match):
        cfg = ExperimentConfig(dist=portfolio_dist, loss=linear, betas=betas, n=200,
                               h_rule=rule, reps=3)
        with pytest.raises(DomainError, match=match):
            run_replications(cfg, "is")
        assert drawn == []

    def test_missing_h_rule_reaches_estimate(self, onedim_dist, linear):
        # estimate owns the "needs h" rule; a naive table needs no rule at all
        cfg = small_config(onedim_dist, linear, h_rule=None, reps=2)
        with pytest.raises(DomainError, match="the importance method needs h"):
            run_replications(cfg, "is")
        assert [r.status for r in run_replications(cfg, "naive").rows] == ["ok", "ok"]

    @pytest.mark.parametrize("error, tag", [(TailMassError, "tail-mass"),
                                            (FeasibilityError, "infeasible"),
                                            (BadLossError, "bad-loss")])
    def test_a_failed_row_carries_its_errors_status(self, onedim_dist, linear, monkeypatch,
                                                    error, tag):
        import tailshift.harness as hz

        def failing(dist, loss, config, method, hs):
            return [error("no estimate") for _ in hs]

        monkeypatch.setattr(hz, "_estimates", failing)
        assert error.status == tag
        table = run_replications(small_config(onedim_dist, linear, reps=2), "is")
        assert [r.status for r in table.rows] == [tag, tag]

    def test_csv_round_trip(self, onedim_dist, linear, tmp_path):
        cfg = small_config(onedim_dist, linear, reps=3)
        table = run_replications(cfg, "is")
        path = tmp_path / "rows.csv"
        table.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == REPLICATION_COLUMNS
        assert len(rows) == 1 + 3
        got = rows[1]
        want = table.rows[0]
        assert got[0] == "is"
        assert float(got[1]) == want.beta
        assert float(got[6]) == want.var_hat  # repr round-trips exactly
        assert float(got[7]) == want.cvar_hat
        assert int(got[5]) == want.seed


@pytest.mark.parametrize("bad", [None, ISConfig(beta=1e-3, n=10, seed=0, h=2.6)],
                         ids=["None", "an ISConfig"])
@pytest.mark.parametrize("call, match", [
    (lambda bad: run_replications(bad, "is"), "^config must be an ExperimentConfig$"),
    (lambda bad: cross_validate_h(bad, GridH((2.0, 3.0)), 1e-3, reps_cv=2),
     "^config must be an ExperimentConfig$"),
    (lambda bad: summarize(bad), "^table must be a ReplicationTable$"),
], ids=["run_replications", "cross_validate_h", "summarize"])
def test_a_config_or_table_of_another_type_is_named_before_any_draw(call, match, bad, drawn):
    # each raised a raw AttributeError, or cross_validate_h a TypeError from replace
    with pytest.raises(DomainError, match=match):
        call(bad)
    assert drawn == []


class TestSummarize:
    def test_schema_and_values(self, onedim_dist, linear):
        cfg = small_config(onedim_dist, linear, betas=(0.1, 0.05), reps=5)
        table = run_replications(cfg, "is")
        rows = summarize(table)
        assert len(rows) == 2
        for row in rows:
            assert tuple(row.keys()) == SUMMARY_COLUMNS
            assert row["method"] == "is"
            assert row["reps"] == 5
            assert row["rel_rmse_cvar"] >= 0.0
        got = {row["beta"] for row in rows}
        assert got == {0.1, 0.05}

    def test_a_grid_table_gets_one_row_per_h(self, onedim_dist, linear):
        cfg = small_config(onedim_dist, linear, betas=(1e-3,), n=200, h_rule=GridH((2.0, 3.0)))
        rows = summarize(run_replications(cfg, "is"))
        assert [(row["h"], row["reps"]) for row in rows] == [(2.0, 4), (3.0, 4)]
        for row in rows:
            fixed = replace(cfg, h_rule=FixedH(row["h"]))
            assert [row] == summarize(run_replications(fixed, "is"))

    def test_failed_levels_get_nan_errors(self, onedim_dist, linear):
        cfg = small_config(onedim_dist, linear, betas=(0.05,), reps=3)
        table = run_replications(cfg, "naive")  # infeasible at n = 60
        (row,) = summarize(table)
        assert math.isnan(row["rel_rmse_cvar"]) and math.isnan(row["mean_cvar"])
        assert row["reps"] == 3


class TestCrossValidation:
    def test_select_h_tie_breaks_small(self):
        entries = (
            CrossValEntry(h=3.0, cv=0.05, status="ok"),
            CrossValEntry(h=2.0, cv=0.05, status="ok"),
            CrossValEntry(h=2.5, cv=0.08, status="ok"),
        )
        assert _select_h(entries) == 2.0

    def test_select_h_needs_a_survivor(self):
        entries = (CrossValEntry(h=1.0, cv=float("nan"), status="failed"),)
        with pytest.raises(EstimationError):
            _select_h(entries)

    def test_grid_points_without_outward_stretch_are_skipped(self, onedim_dist, linear):
        cfg = small_config(onedim_dist, linear, betas=(1e-4,), n=400)
        # at beta = 1e-4, r = h * log log(1e4) = 2.2192 h: h = 0.4 gives r < 1
        result = cross_validate_h(cfg, (0.4, 2.0, 3.0), 1e-4, reps_cv=4)
        by_h = {e.h: e for e in result.entries}
        assert by_h[0.4].status == "skipped: no outward extrapolation"
        assert by_h[2.0].status == "ok"
        assert result.selected_h in (2.0, 3.0)

    def test_deterministic_and_accepts_gridh(self, onedim_dist, linear):
        cfg = small_config(onedim_dist, linear, betas=(1e-4,), n=400)
        a = cross_validate_h(cfg, GridH((2.0, 3.0)), 1e-4, reps_cv=4)
        b = cross_validate_h(cfg, (2.0, 3.0), 1e-4, reps_cv=4)
        assert a == b

    def test_draws_once_per_replication_and_matches_per_h_tables(
            self, portfolio_dist, linear, monkeypatch):
        import tailshift.estimators as ez

        cfg = ExperimentConfig(dist=portfolio_dist, loss=linear, betas=(1e-4,), n=300,
                               h_rule=FixedH(2.6), reps=50, base_seed=7)
        beta, grid, reps_cv = 1e-4, (0.3, 2.0, 3.0), 5      # h = 0.3 gives r < 1: skipped
        calls = {"sample": 0}
        real_sample = ez._drawn_blocks

        def counted_sample(*args, **kw):
            calls["sample"] += 1
            return real_sample(*args, **kw)

        monkeypatch.setattr(ez, "_drawn_blocks", counted_sample)
        result = cross_validate_h(cfg, grid, beta, reps_cv=reps_cv)
        assert calls["sample"] == reps_cv          # one draw per replication, not per h

        # reference path: one replication table per live h
        for entry, h in zip(result.entries, grid):
            assert entry.h == h
            if h == 0.3:
                assert entry.status.startswith("skipped") and entry.n_ok == 0
                continue
            sub = ExperimentConfig(dist=portfolio_dist, loss=linear, betas=(beta,), n=300,
                                   h_rule=FixedH(h), reps=reps_cv, base_seed=7)
            vals = run_replications(sub, "is").values("cvar_hat")
            assert (entry.status, entry.n_ok) == ("ok", reps_cv) and vals.size == reps_cv
            assert np.float64(entry.cv).tobytes() == np.float64(relative_rmse(vals)).tobytes()

    def test_threaded_draws_match_serial(self, portfolio_dist, linear, monkeypatch):
        # more workers than cores and frequent switches: the pool workers split
        # the replications, and each draws its seed once for every h
        import sys
        import tailshift.estimators as ez

        drawn = []
        real_sample = ez._drawn_blocks

        def counted_sample(n, dist, seed, **kw):
            drawn.append(seed)
            return real_sample(n, dist, seed, **kw)

        cfg = ExperimentConfig(dist=portfolio_dist, loss=linear, betas=(1e-4,), n=200,
                               h_rule=FixedH(2.6), reps=50, base_seed=3)
        serial = cross_validate_h(cfg, (2.0, 2.6, 3.0), 1e-4, reps_cv=8)
        monkeypatch.setattr(ez, "_drawn_blocks", counted_sample)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = cross_validate_h(replace(cfg, threads=8), (2.0, 2.6, 3.0), 1e-4, reps_cv=8)
        finally:
            sys.setswitchinterval(old)
        assert threaded == serial
        assert len(drawn) == len(set(drawn)) == 8

    def test_all_points_skipped_raises(self, onedim_dist, linear):
        cfg = small_config(onedim_dist, linear, betas=(1e-4,), n=400)
        with pytest.raises(EstimationError, match="every h grid point"):
            cross_validate_h(cfg, (0.1, 0.2), 1e-4, reps_cv=4)

    @pytest.mark.parametrize("beta", [1.5, 0.5, float("nan")])
    def test_bad_level_is_refused_before_any_draw(self, onedim_dist, linear, beta, drawn):
        # not "skipped" at every h: no h can stretch at such a level
        cfg = small_config(onedim_dist, linear, betas=(1e-4,), n=400)
        with pytest.raises(DomainError, match="beta"):
            cross_validate_h(cfg, (2.0, 3.0), beta, reps_cv=4)
        assert drawn == []

    @pytest.mark.parametrize("reps_cv", [1, 0, 2.5, True])
    def test_fewer_than_two_replications_are_refused_before_any_draw(
            self, onedim_dist, linear, reps_cv, drawn):
        # one replication has no cv: every grid point would fail
        cfg = small_config(onedim_dist, linear, betas=(1e-4,), n=400)
        with pytest.raises(DomainError, match="reps_cv|2 replications"):
            cross_validate_h(cfg, (2.0, 3.0), 1e-4, reps_cv=reps_cv)
        assert drawn == []

    @pytest.mark.parametrize("grid", [FixedH(2.6), AffineH(2.0, 0.6), 2.6])
    def test_a_grid_that_is_no_sequence_is_refused_before_any_draw(
            self, onedim_dist, linear, grid, drawn):
        cfg = small_config(onedim_dist, linear, betas=(1e-4,), n=400)
        with pytest.raises(DomainError, match="^h grid values must be a sequence"):
            cross_validate_h(cfg, grid, 1e-4, reps_cv=4)
        assert drawn == []

    def test_empty_grid_rejected(self, onedim_dist, linear):
        cfg = small_config(onedim_dist, linear)
        with pytest.raises(DomainError):
            cross_validate_h(cfg, (), 0.01, reps_cv=4)

    def test_holds_no_replication_draw_whole(self, portfolio_dist, linear):
        n, reps, grid = 3 * _BLOCK + 17, 4, (2.0, 2.3, 2.6, 2.9, 3.2)
        cfg = ExperimentConfig(dist=portfolio_dist, loss=linear, betas=(1e-6,), n=n,
                               h_rule=FixedH(2.6), reps=50)
        cross_validate_h(cfg, grid, 1e-6, reps_cv=reps)    # first-call allocations aside
        tracemalloc.start()
        try:
            cross_validate_h(cfg, grid, 1e-6, reps_cv=reps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each replication is weighed block by block at every h: what is whole is
        # each h's losses and log weights, never the reps draws of X
        assert peak < reps * n * portfolio_dist.dim * 8


class TestExperimentConfig:
    def test_rejects_empty_betas(self, onedim_dist, linear):
        with pytest.raises(DomainError):
            ExperimentConfig(dist=onedim_dist, loss=linear, betas=(),
                             n=10, h_rule=FixedH(2.0))

    def test_rejects_repeated_betas(self, onedim_dist, linear):
        # summaries key levels by value, so a repeated level would be merged
        with pytest.raises(DomainError, match="distinct"):
            ExperimentConfig(dist=onedim_dist, loss=linear, betas=(1e-3, 1e-3),
                             n=10, h_rule=FixedH(2.0))

    def test_rejects_negative_base_seed(self, onedim_dist, linear):
        with pytest.raises(DomainError, match="base_seed"):
            ExperimentConfig(dist=onedim_dist, loss=linear, betas=(0.1,),
                             n=10, h_rule=FixedH(2.0), base_seed=-1)

    def test_rejects_nonpositive_counts(self, onedim_dist, linear):
        with pytest.raises(DomainError):
            ExperimentConfig(dist=onedim_dist, loss=linear, betas=(0.1,),
                             n=0, h_rule=FixedH(2.0))
        with pytest.raises(DomainError):
            ExperimentConfig(dist=onedim_dist, loss=linear, betas=(0.1,),
                             n=10, h_rule=FixedH(2.0), reps=0)

    @pytest.mark.parametrize("dist", [None, [1.0], "onedim"], ids=["none", "alphas", "name"])
    def test_rejects_a_dist_that_is_no_distribution_spec(self, linear, dist):
        # None used to surface as an AttributeError on dist.dim
        with pytest.raises(DomainError, match="^dist must be a DistributionSpec$"):
            ExperimentConfig(dist=dist, loss=linear, betas=(0.1,), n=10, h_rule=FixedH(2.0))

    @pytest.mark.parametrize("rule", [2.6, "2.6", (2.0, 3.0)], ids=["number", "string", "tuple"])
    def test_rejects_an_h_rule_that_is_no_rule(self, onedim_dist, linear, rule):
        # a bare number would surface only in run_replications, as an AttributeError
        with pytest.raises(DomainError, match="^h_rule must be None, a GridH or a rule"):
            ExperimentConfig(dist=onedim_dist, loss=linear, betas=(0.1,), n=10, h_rule=rule)

    def test_takes_any_rule_with_h_for(self, onedim_dist, linear):
        class Five:
            def h_for(self, beta):
                return 5                       # an int: the rows still carry the float 5.0
        cfg = ExperimentConfig(dist=onedim_dist, loss=linear, betas=(0.1,), n=60,
                               h_rule=Five(), reps=2)
        assert [(r.h, type(r.h)) for r in run_replications(cfg, "is").rows] == [(5.0, float)] * 2

    @pytest.mark.parametrize("field", ["n", "reps", "threads", "base_seed"])
    def test_rejects_fractional_counts(self, onedim_dist, linear, field):
        # truncating would quietly run fewer replications (or samples) than asked
        # and bool is an int subclass: "reps": true would quietly run one
        kw = dict(dist=onedim_dist, loss=linear, betas=(0.1,), n=10, h_rule=FixedH(2.0))
        for bad in (2.5, True, False):
            with pytest.raises(DomainError, match=f"{field} must be a whole number, got {bad!r}"):
                ExperimentConfig(**{**kw, field: bad})
        assert getattr(ExperimentConfig(**{**kw, field: 3.0}), field) == 3

    def test_rejects_a_draw_numpy_cannot_index(self, portfolio_dist, linear):
        # the (n, d) draw would end in numpy's "Maximum allowed dimension exceeded",
        # or, past most // (8 d) rows of 8-byte floats, in its "array is too big"
        most, d = np.iinfo(np.intp).max, portfolio_dist.dim
        kw = dict(dist=portfolio_dist, loss=linear, betas=(0.1,), h_rule=FixedH(2.0))
        for n in (10**400, most // d + 1, most // d, most // (8 * d) + 1):
            with pytest.raises(DomainError, match="n must be at most"):
                ExperimentConfig(**kw, n=n)
            with pytest.raises(DomainError, match="n must be at most"):
                sample_inputs(n, portfolio_dist, 0)
        assert ExperimentConfig(**kw, n=most // (8 * d)).n == most // (8 * d)
        with pytest.raises(DomainError, match="n must be at most"):
            ISConfig(beta=0.1, n=10**400, seed=1)
        assert ISConfig(beta=0.1, n=most, seed=1).n == most
        # ISConfig does not know d: the draw checks n against the (n, d) shape
        with pytest.raises(DomainError, match="n must be at most"):
            estimate(portfolio_dist, linear,
                     ISConfig(beta=0.1, n=most // portfolio_dist.dim + 1, seed=1, h=2.0))

    def test_rejects_a_loss_of_another_input_dimension(self, portfolio_dist, pert_dist):
        kw = dict(betas=(0.1,), n=10, h_rule=FixedH(2.0))
        with pytest.raises(DomainError, match="pert7 loss takes inputs of dimension 7, "
                                              "but the input model has dimension 10"):
            ExperimentConfig(dist=portfolio_dist, loss=LossModel.pert7(), **kw)
        relu = LossModel.relu_net(synthetic_relu_params(8, 12, seed=5))
        with pytest.raises(DomainError, match="dimension 8, but the input model has dimension 7"):
            ExperimentConfig(dist=pert_dist, loss=relu, **kw)
        assert ExperimentConfig(dist=pert_dist, loss=LossModel.pert7(), **kw).loss.dim == 7

    @pytest.mark.parametrize("beta", [2.0, 1.0, 0.0, -1e-3, float("nan")])
    def test_rejects_levels_outside_unit_interval(self, onedim_dist, linear, beta):
        # caught here, such a level cannot abort a whole run_replications table
        with pytest.raises(DomainError, match="beta must lie in"):
            ExperimentConfig(dist=onedim_dist, loss=linear, betas=(0.1, beta),
                             n=10, h_rule=FixedH(2.0))
