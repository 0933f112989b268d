"""Config parsing, subcommands, exit codes, manifest reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import tailshift
from tailshift import (
    ConfigError,
    ExperimentConfig,
    ISConfig,
    LossModel,
    WeightsFileError,
    derive_seed,
    estimate,
    load_relu_params,
    save_relu_params,
    synthetic_relu_params,
)
from tailshift.cli import (
    CROSSVAL_COLUMNS,
    REPLICATION_COLUMNS,
    build_parser,
    main,
    parse_config,
)

MINIMAL = {
    "dist": {"alphas": [1.0], "correlation": "identity"},
    "loss": {"kind": "linear"},
    "betas": [0.1],
    "n": 60,
    "h": 5.0,
    "seed": 123,
}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        spec = parse_config(write_config(tmp_path, MINIMAL))
        assert spec.method == "is"
        assert spec.methods == ("is",)
        exp = spec.experiment
        assert exp.reps == 50 and exp.threads == 1
        assert exp.loss.rho == 1.0
        assert exp.betas == (0.1,)
        assert exp.h_rule.h_for(0.1) == 5.0

    def test_alphas_object_form(self, tmp_path):
        doc = dict(MINIMAL, dist={"alphas": {"value": 0.9, "dim": 4},
                                  "correlation": {"pattern": "equicorrelated", "c": 0.1}})
        spec = parse_config(write_config(tmp_path, doc))
        assert spec.experiment.dist.dim == 4
        np.testing.assert_array_equal(spec.experiment.dist.alphas, np.full(4, 0.9))

    def test_dense_matrix(self, tmp_path):
        doc = dict(MINIMAL, dist={"alphas": [1.0, 1.0],
                                  "correlation": {"matrix": [[1.0, 0.3], [0.3, 1.0]]}})
        spec = parse_config(write_config(tmp_path, doc))
        assert spec.experiment.dist.correlation.matrix[0, 1] == 0.3

    def test_non_positive_definite_named(self, tmp_path):
        doc = dict(MINIMAL, dist={"alphas": [1.0, 1.0],
                                  "correlation": {"matrix": [[1.0, 1.5], [1.5, 1.0]]}})
        with pytest.raises(ConfigError, match="positive definite"):
            parse_config(write_config(tmp_path, doc))

    def test_beta_threshold_for_importance(self, tmp_path, capsys):
        doc = dict(MINIMAL, betas=[0.5])
        # the command refuses the level for its importance runs, before any output
        out = tmp_path / "o"
        assert main(["estimate", "--config", str(write_config(tmp_path, doc)), "--out",
                     str(out)]) == 1
        err = capsys.readouterr().err
        assert "config field 'betas'" in err and "beta must be < 1/e" in err
        assert not out.exists()
        # the same level is acceptable for the naive method
        ok = dict(doc, method="naive", n=100)
        assert parse_config(write_config(tmp_path, ok)).method == "naive"

    def test_unknown_keys_rejected(self, tmp_path):
        doc = dict(MINIMAL, extra=1)
        with pytest.raises(ConfigError, match="unknown entries: extra"):
            parse_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("field, doc", [
        ("loss.rh0", dict(MINIMAL, loss={"kind": "linear", "rh0": 3.0})),
        ("h.grid", dict(MINIMAL, h={"fixed": 2.6, "grid": [1, 2]})),
        ("h.affine.extra", dict(MINIMAL, h={"affine": {"intercept": 2.0, "slope": 0.6,
                                                       "extra": 1}})),
        ("dist.extra", dict(MINIMAL, dist={"alphas": [1.0], "correlation": "identity",
                                           "extra": 1})),
        ("dist.alphas.extra", dict(MINIMAL, dist={"alphas": {"value": 1.0, "dim": 1, "extra": 1},
                                                  "correlation": "identity"})),
        ("dist.correlation.pattern", dict(MINIMAL, dist={
            "alphas": [1.0], "correlation": {"matrix": [[1.0]], "pattern": "identity"}})),
        ("dist.correlation.c", dict(MINIMAL, dist={
            "alphas": [1.0], "correlation": {"pattern": "identity", "c": 0.1}})),
        ("dist.correlation.extra", dict(MINIMAL, dist={
            "alphas": [1.0, 1.0],
            "correlation": {"pattern": "tridiagonal", "c": 0.1, "extra": 1}})),
        ("loss.weights_file", dict(MINIMAL, loss={"kind": "relu_net", "weights": {},
                                                  "weights_file": "net.json"})),
    ])
    def test_an_entry_a_nested_object_does_not_read_exits_1(self, tmp_path, capsys, field, doc):
        cfg = write_config(tmp_path, doc)
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert f"config field '{field}': unknown entries" in captured.err
        assert captured.out == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc, want", [
        (dict(MINIMAL, dist={"alphas": [1.0], "correlation": 0.5}),
         "config field 'dist.correlation': must be a pattern name, a pattern object or a matrix"),
        (dict(MINIMAL, dist={"alphas": [1.0], "correlation": "banded"}),
         "config field 'dist.correlation.pattern': unknown pattern 'banded'"),
        (dict(MINIMAL, loss={"kind": "quadratic"}),
         "config field 'loss.kind': unknown kind 'quadratic'"),
        (dict(MINIMAL, h={"value": 2.6}),
         "config field 'h': must be a number or hold 'fixed', 'grid' or 'affine'"),
        ([MINIMAL], "config parse error: top level must be an object"),
        ({"resolved_config": [MINIMAL]}, "manifest holds no usable resolved_config"),
        (dict(MINIMAL, method="quasi"), "config field 'method': must be 'is', 'naive' or 'both'"),
        (dict(MINIMAL, dist={"alphas": [1.0, 1.0], "correlation": {"matrix": [[1.0]]}}),
         "config field 'dist': 2 marginals but correlation matrix of dim 1"),
        (dict(MINIMAL, dist={"alphas": [-1.0], "correlation": "identity"}),
         "config field 'dist': alpha must be positive and finite"),
        (dict(MINIMAL, dist={"alphas": [1.0] * 3,
                             "correlation": {"pattern": "tridiagonal", "c": 0.9}}),
         "config field 'dist.correlation': correlation matrix is not positive definite"),
        (dict(MINIMAL, dist={"alphas": [1.0, 1.0],
                             "correlation": {"matrix": [[1.0, 1.5], [1.5, 1.0]]}}),
         "config field 'dist.correlation': correlation matrix is not positive definite"),
        # a study rule names no one field
        (dict(MINIMAL, betas=[1e-3, 1e-3]), "error: beta levels must be distinct"),
        (dict(MINIMAL, reps=0), "error: reps must be positive, got 0"),
        (dict(MINIMAL, loss={"kind": "relu_net", "weights": {
            "dims": {"d": 1, "hidden": 2}, "W1": [math.nan, 1.0], "b1": [0, 0], "w2": [1.0, 1.0],
            "b2": 0.0}}),
         "error: config field 'loss': bad network weights: inline weights: "
         "W1 must be finite numbers, got nan\n"),
        (dict(MINIMAL, loss={"kind": "relu_net", "weights": {
            "dims": {"d": 1.5, "hidden": 2}, "W1": [1.0, 1.0], "b1": [0, 0], "w2": [1.0, 1.0],
            "b2": 0.0}}),
         "error: config field 'loss': bad network weights: inline weights: "
         "dims.d must be a whole number, got 1.5\n"),
        # one field prefix: the weights file's own, not the weights' as well
        (dict(MINIMAL, loss={"kind": "relu_net"}),
         "error: config field 'loss.weights_file': required entry is missing\n"),
        (dict(MINIMAL, loss={"kind": "relu_net", "weights_file": 3}),
         "error: config field 'loss.weights_file': expected <class 'str'>, got int\n"),
    ], ids=["correlation no string or object", "unknown pattern", "unknown loss kind",
            "h object of no known form", "top level no object", "manifest config no object",
            "unknown method", "dimension mismatch", "negative alpha",
            "pattern not positive definite", "matrix not positive definite", "repeated levels",
            "no replications", "nan network weight", "fractional network dims",
            "no weights file", "weights file no string"])
    def test_a_refused_config_exits_1_naming_its_fault(self, tmp_path, capsys, doc, want):
        cfg = write_config(tmp_path, doc)
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert want in captured.err
        assert captured.out == "" and not (tmp_path / "o").exists()

    def test_omitted_counts_and_rho_take_the_library_defaults(self, tmp_path):
        doc = {k: v for k, v in MINIMAL.items() if k != "seed"}
        assert not {"reps", "seed", "threads"} & set(doc) and "rho" not in doc["loss"]
        default = {f.name: f.default for f in (*fields(ExperimentConfig), *fields(LossModel))}
        want = (default["reps"], default["base_seed"], default["threads"], default["rho"])
        exp = parse_config(write_config(tmp_path, doc)).experiment
        assert (exp.reps, exp.base_seed, exp.threads, exp.loss.rho) == want
        # estimate runs one replication per level and records that; benchmark runs reps
        out = tmp_path / "o"
        assert main(["benchmark", "--config", str(write_config(tmp_path, doc)), "--out",
                     str(out), "--method", "is"]) == 0
        resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert (resolved["reps"], resolved["seed"], resolved["threads"],
                resolved["loss"]["rho"]) == want

    def test_missing_field_is_named(self, tmp_path):
        doc = {k: v for k, v in MINIMAL.items() if k != "n"}
        with pytest.raises(ConfigError, match="n"):
            parse_config(write_config(tmp_path, doc))

    def test_h_required_for_importance_only(self, tmp_path, capsys):
        doc = {k: v for k, v in MINIMAL.items() if k != "h"}
        out = tmp_path / "o"
        assert main(["estimate", "--config", str(write_config(tmp_path, doc)), "--out",
                     str(out)]) == 1
        assert "config field 'h'" in capsys.readouterr().err and not out.exists()
        assert parse_config(write_config(tmp_path, dict(doc, method="naive"))).method == "naive"

    def test_scientific_notation_n(self, tmp_path):
        doc = dict(MINIMAL, n=2e2)
        assert parse_config(write_config(tmp_path, doc)).experiment.n == 200
        with pytest.raises(ConfigError, match="whole number"):
            parse_config(write_config(tmp_path, dict(MINIMAL, n=2.5)))

    def test_weights_file_resolved_relative_to_config(self, tmp_path):
        sub = tmp_path / "cfgs"
        sub.mkdir()
        params = synthetic_relu_params(dim=3, hidden=4, seed=8)
        save_relu_params(params, sub / "net.json")
        doc = dict(MINIMAL,
                   dist={"alphas": [1.0, 1.0, 1.0], "correlation": "identity"},
                   loss={"kind": "relu_net", "weights_file": "net.json"})
        spec = parse_config(write_config(sub, doc))
        x = np.array([1.0, 2.0, 0.5])
        assert spec.experiment.loss(x) == LossModel.relu_net(params)(x)
        # and the resolved form carries the weights inline
        assert spec.resolved["loss"]["weights"]["dims"] == {"d": 3, "hidden": 4}

    @pytest.mark.parametrize("case", ["transposed nested W1", "wrong flat W1 count",
                                      "missing key", "fractional d", "boolean b2",
                                      "string b2", "string and boolean W1 entries",
                                      "string and boolean w2 entries", "boolean b1 entry"])
    def test_inline_and_file_weights_reject_alike(self, tmp_path, case):
        p = synthetic_relu_params(dim=3, hidden=2, seed=5)
        good = {"dims": {"d": 3, "hidden": 2}, "W1": p.W1.ravel().tolist(),
                "b1": p.b1.tolist(), "w2": p.w2.tolist(), "b2": p.b2}
        bad = {
            "transposed nested W1": dict(good, W1=p.W1.T.tolist()),
            "wrong flat W1 count": dict(good, W1=good["W1"][:-1]),
            "missing key": {k: v for k, v in good.items() if k != "b1"},
            "fractional d": dict(good, dims={"d": 3.5, "hidden": 2}),   # int() would read 3
            "boolean b2": dict(good, b2=True),
            "string b2": dict(good, b2="1.5"),
            "string and boolean W1 entries": dict(good, W1=["1.5", True] + good["W1"][2:]),
            "string and boolean w2 entries": dict(good, w2=["2", False]),
            "boolean b1 entry": dict(good, b1=[0.0, True]),
        }[case]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(WeightsFileError):
            load_relu_params(path)
        doc = dict(MINIMAL, dist={"alphas": [1.0, 1.0, 1.0], "correlation": "identity"},
                   loss={"kind": "relu_net", "weights": bad})
        with pytest.raises(ConfigError, match="bad network weights"):
            parse_config(write_config(tmp_path, doc))

    def test_inline_and_file_weights_resolve_alike(self, tmp_path):
        params = synthetic_relu_params(dim=3, hidden=2, seed=5)
        save_relu_params(params, tmp_path / "net.json")
        dist = {"alphas": [1.0, 1.0, 1.0], "correlation": "identity"}
        from_file = parse_config(write_config(tmp_path, dict(
            MINIMAL, dist=dist, loss={"kind": "relu_net", "weights_file": "net.json"})))
        inline = parse_config(write_config(tmp_path, dict(
            MINIMAL, dist=dist, loss={"kind": "relu_net", "weights": {
                "dims": {"d": 3, "hidden": 2}, "W1": params.W1.tolist(),
                "b1": params.b1.tolist(), "w2": params.w2.tolist(), "b2": params.b2}})))
        assert json.dumps(inline.resolved) == json.dumps(from_file.resolved)

    def test_missing_weights_file(self, tmp_path):
        doc = dict(MINIMAL,
                   dist={"alphas": [1.0, 1.0, 1.0], "correlation": "identity"},
                   loss={"kind": "relu_net", "weights_file": "absent.json"})
        with pytest.raises(ConfigError, match="weights file not found"):
            parse_config(write_config(tmp_path, doc))

    def test_overrides_applied(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        spec = parse_config(path, {"seed": 9, "betas": [0.05], "method": "both",
                                   "h": 4.0, "threads": 2})
        assert spec.experiment.base_seed == 9
        assert spec.experiment.betas == (0.05,)
        assert spec.methods == ("is", "naive")
        assert spec.experiment.h_rule.h_for(0.05) == 4.0
        assert spec.experiment.threads == 2

    def test_resolved_config_reparses_identically(self, tmp_path):
        spec = parse_config(write_config(tmp_path, MINIMAL))
        again = parse_config(write_config(tmp_path, spec.resolved, "resolved.json"))
        assert again.resolved == spec.resolved
        assert again.experiment == spec.experiment

    def test_repeated_betas_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(write_config(tmp_path, dict(MINIMAL, betas=[1e-3, 1e-3])))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(tmp_path / "ghost.json")


class TestEstimateCommand:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        code = main(["estimate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "estimates.csv")
        assert tuple(rows[0]) == REPLICATION_COLUMNS
        assert len(rows) == 2
        assert rows[1][0] == "is" and rows[1][-1] == "ok"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "estimate"
        assert manifest["resolved_config"]["seed"] == 123
        assert "estimates.csv" in manifest["outputs"][0]
        assert "var=" in capsys.readouterr().out

    def test_row_matches_direct_call(self, tmp_path, onedim_dist, linear):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        row = read_csv(out / "estimates.csv")[1]
        seed = derive_seed(123, 0, "is", 0)
        want = estimate(onedim_dist, linear, ISConfig(beta=0.1, n=60, seed=seed, h=5.0))
        assert int(row[5]) == seed
        assert float(row[6]) == want.var_hat
        assert float(row[7]) == want.cvar_hat
        assert float(row[8]) == want.cvar_se

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, dict(MINIMAL, method="both"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["estimate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["estimate", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["estimate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["estimate", "--config", str(a / "manifest.json"), "--out", str(b)]) == 0
        assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()

    def test_naive_infeasible_exits_2_with_flag_row(self, tmp_path, capsys):
        doc = dict(MINIMAL, method="naive", betas=[1e-6], n=1000)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["estimate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        rows = read_csv(out / "estimates.csv")
        assert rows[1][0] == "naive" and rows[1][-1] == "infeasible"
        assert rows[1][6] == "nan"
        assert "FAILED (infeasible)" in capsys.readouterr().out

    def test_invalid_config_exits_1_without_csv(self, tmp_path, capsys):
        doc = dict(MINIMAL, betas=[0.5])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["estimate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert not (out / "estimates.csv").exists()
        assert "beta must be < 1/e" in capsys.readouterr().err

    def test_method_both_orders_rows(self, tmp_path):
        cfg = write_config(tmp_path, dict(MINIMAL, method="both"))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "estimates.csv")
        assert [r[0] for r in rows[1:]] == ["is", "naive"]
        assert rows[2][2] == ""       # naive rows carry no h

    def test_cli_overrides_reach_the_run(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(cfg), "--out", str(out),
                     "--seed", "7", "--beta", "0.05", "--beta", "0.1"]) == 0
        rows = read_csv(out / "estimates.csv")
        assert [float(r[1]) for r in rows[1:]] == [0.05, 0.1]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["seed"] == 7
        assert manifest["resolved_config"]["betas"] == [0.05, 0.1]

    def test_repeated_beta_override_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        code = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--beta", "1e-3", "--beta", "1e-3"])
        assert code == 1
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("field, doc", [
        ("reps", dict(MINIMAL, reps="many")),
        ("seed", dict(MINIMAL, seed=None)),
        ("threads", dict(MINIMAL, threads=[2])),
        ("betas", dict(MINIMAL, betas=["1e-6x"])),
        ("dist.alphas", dict(MINIMAL, dist={"alphas": ["a"], "correlation": "identity"})),
        ("loss.rho", dict(MINIMAL, loss={"kind": "linear", "rho": "x"})),
        ("h.fixed", dict(MINIMAL, h={"fixed": "x"})),
        ("h.affine", dict(MINIMAL, h={"affine": [2.0, 0.6]})),    # only the object form is read
        ("dist.correlation", dict(MINIMAL, dist={"alphas": [1.0],
                                                 "correlation": {"matrix": [["a"]]}})),
        # a config number is a JSON number: no bool, no string, and a whole dim
        ("dist.alphas", dict(MINIMAL, dist={"alphas": {"value": 0.5, "dim": 7.9},
                                            "correlation": "identity"})),
        ("dist.alphas", dict(MINIMAL, dist={"alphas": {"value": 0.5, "dim": True},
                                            "correlation": "identity"})),
        ("dist.alphas", dict(MINIMAL, dist={"alphas": [True], "correlation": "identity"})),
        ("dist.alphas", dict(MINIMAL, dist={"alphas": ["1.0"], "correlation": "identity"})),
        ("loss.rho", dict(MINIMAL, loss={"kind": "linear", "rho": True})),
        ("betas", dict(MINIMAL, betas=["1e-6"])),
    ])
    def test_non_numeric_values_exit_1_naming_the_field(self, tmp_path, capsys, field, doc):
        cfg = write_config(tmp_path, doc)
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["reps", "seed", "threads"])
    def test_fractional_count_exits_1(self, tmp_path, capsys, field):
        for bad in (2.5, True):
            cfg = write_config(tmp_path, dict(MINIMAL, **{field: bad}))
            assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
            assert f"must be a whole number, got {bad!r}" in capsys.readouterr().err
            assert not (tmp_path / "o" / "estimates.csv").exists()

    def test_n_past_the_array_index_range_exits_1(self, tmp_path, capsys):
        for n in (10**400, np.iinfo(np.intp).max // 3 + 1):
            cfg = write_config(tmp_path, dict(MINIMAL, n=n,
                                              dist={"alphas": [1.0] * 3, "correlation": "identity"}))
            assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
            assert "n must be at most" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_negative_seed_override_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        code = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "-1"])
        assert code == 1
        assert "base_seed must be nonnegative" in capsys.readouterr().err

    def test_overflowing_stretch_writes_its_rows_and_exits_2(self, tmp_path):
        doc = dict(MINIMAL, dist={"alphas": [0.9] * 5 + [1.1] * 5,
                                  "correlation": {"pattern": "equicorrelated", "c": 0.1}},
                   loss={"kind": "linear", "rho": 0.0026}, betas=[1e-3, 1e-6], n=1000, h=2.6)
        cfg, out = write_config(tmp_path, doc), tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
        assert [r[-1] for r in read_csv(out / "estimates.csv")[1:]] == ["tail-mass"] * 2

    @pytest.mark.parametrize("source", ["weights", "weights_file"])
    def test_weights_with_string_or_boolean_entries_exit_1(self, tmp_path, capsys, source):
        weights = {"dims": {"d": 1, "hidden": 2}, "W1": ["1.5", True], "b1": [0, 0],
                   "w2": ["2", False], "b2": 0.0}
        (tmp_path / "net.json").write_text(json.dumps(weights))
        loss = {"kind": "relu_net", source: weights if source == "weights" else "net.json"}
        cfg = write_config(tmp_path, dict(MINIMAL, loss=loss))
        out = tmp_path / "o"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "W1 must be an array of real numbers, got '1.5'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("matrix, got", [
        ([["1", "0.3"], ["0.3", True]], "'1'"),
        ([[1.0, 0.3], [0.3, True]], "True"),
    ], ids=["strings and a bool", "a bool among floats"])
    def test_a_correlation_matrix_of_strings_or_bools_exits_1(self, tmp_path, capsys, matrix, got):
        doc = dict(MINIMAL, dist={"alphas": [1.0, 1.0], "correlation": {"matrix": matrix}})
        out = tmp_path / "o"
        assert main(["estimate", "--config", str(write_config(tmp_path, doc)), "--out",
                     str(out)]) == 1
        assert (f"config field 'dist.correlation': correlation matrix must be an array of real "
                f"numbers, got {got}") in capsys.readouterr().err
        assert not out.exists()

    def test_negative_rho_is_not_a_weights_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(MINIMAL, loss={"kind": "pert7", "rho": -1}))
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "rho must be positive" in err and "bad network weights" not in err

    @pytest.mark.parametrize("command, field, h, argv", [
        ("estimate", "h", math.nan, []),
        ("estimate", "h", 10**400, []),     # past the float range
        ("estimate", "h.fixed", {"fixed": math.inf}, []),
        ("estimate", "h.affine", {"affine": {"intercept": 2.0, "slope": math.nan}}, []),
        ("estimate", "h", 2.6, ["--h", "nan"]),
        ("crossval", "h.grid", {"grid": [math.nan, 2.0]}, []),
    ])
    def test_non_finite_h_exits_1_naming_the_field(self, tmp_path, capsys, command, field, h,
                                                   argv):
        # json.dumps writes NaN and Infinity, which the config reader accepts
        cfg = write_config(tmp_path, dict(MINIMAL, betas=[1e-4], n=300, reps=4, h=h))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out), *argv]) == 1
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["is", "naive"])
    @pytest.mark.parametrize("alphas, loss, want", [
        ([0.9] * 3, {"kind": "pert7"}, "dimension 7, but the input model has dimension 3"),
        ([0.6] * 5, "relu", "dimension 8, but the input model has dimension 5"),
    ])
    def test_a_loss_of_another_input_dimension_exits_1(self, tmp_path, capsys, method, alphas,
                                                       loss, want):
        if loss == "relu":
            save_relu_params(synthetic_relu_params(dim=8, hidden=12, seed=5), tmp_path / "net.json")
            loss = {"kind": "relu_net", "weights_file": "net.json"}
        doc = dict(MINIMAL, dist={"alphas": alphas, "correlation": "identity"}, loss=loss,
                   betas=[0.01], n=5000, method=method)
        cfg, out = write_config(tmp_path, doc), tmp_path / "o"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
        assert want in capsys.readouterr().err
        assert not out.exists()

    def test_grid_h_rejected_outside_crossval(self, tmp_path, capsys):
        doc = dict(MINIMAL, h={"grid": [2.0, 3.0]})
        cfg = write_config(tmp_path, doc)
        code = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "crossval" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["estimate", "benchmark"])
    @pytest.mark.parametrize("h", [1.0, {"affine": {"intercept": 1.0, "slope": 0.0}}])
    def test_h_that_cannot_stretch_a_level_exits_1(self, tmp_path, capsys, command, h):
        # r = h log log(1/beta) is 0.83 at 0.1 and 2.6 at 1e-6: the run cannot stretch 0.1
        cfg = write_config(tmp_path, dict(MINIMAL, betas=[1e-6, 0.1], n=100, reps=2, h=h))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config field 'h'" in err and "no outward extrapolation" in err
        assert not out.exists()


class TestCrossvalCommand:
    def config(self, tmp_path, grid):
        doc = dict(MINIMAL, betas=[1e-4], n=300, h={"grid": grid}, reps=4)
        return write_config(tmp_path, doc)

    def test_singleton_grid_selected(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [2.6])
        out = tmp_path / "out"
        assert main(["crossval", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "crossval.csv")
        assert tuple(rows[0]) == CROSSVAL_COLUMNS
        assert rows[1][0] == "2.6" and rows[1][-1] == "1"
        assert "selected h = 2.6" in capsys.readouterr().out

    def test_skipped_points_in_table(self, tmp_path):
        cfg = self.config(tmp_path, [0.2, 2.0, 3.0])
        out = tmp_path / "out"
        assert main(["crossval", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "crossval.csv")
        by_h = {r[0]: r for r in rows[1:]}
        assert by_h["0.2"][3].startswith("skipped")
        assert sum(int(r[-1]) for r in rows[1:]) == 1

    def test_runs_the_configured_reps(self, tmp_path):
        cfg = write_config(tmp_path, dict(MINIMAL, betas=[1e-4], n=300,
                                          h={"grid": [2.0, 3.0]}, reps=3))
        out = tmp_path / "out"
        assert main(["crossval", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "crossval.csv")
        assert [r[2] for r in rows[1:]] == ["3", "3"]
        assert json.loads((out / "manifest.json").read_text())["resolved_config"]["reps"] == 3

    def test_deterministic_across_thread_counts(self, tmp_path):
        # the pool workers split the replications, each weighed at every h
        cfg = self.config(tmp_path, [0.2, 2.0, 2.6, 3.0])
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["crossval", "--config", str(cfg), "--out", str(a), "--threads", "1"]) == 0
        assert main(["crossval", "--config", str(cfg), "--out", str(b), "--threads", "2"]) == 0
        assert (a / "crossval.csv").read_bytes() == (b / "crossval.csv").read_bytes()

    def test_all_points_failing_exits_2(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [0.1, 0.2])
        code = main(["crossval", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "every h grid point" in capsys.readouterr().err

    def test_fixed_h_config_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        code = main(["crossval", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "needs an h grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_grid_value_exits_1(self, tmp_path, capsys):
        # a repeated h would run twice and mark two rows selected
        cfg, out = self.config(tmp_path, [2.0, 2.0, 3.0]), tmp_path / "o"
        assert main(["crossval", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config field 'h.grid'" in err and "distinct" in err
        assert not out.exists()

    def test_one_replication_exits_1(self, tmp_path, capsys):
        # one replication has no cv, so every grid point would fail
        doc = dict(MINIMAL, betas=[1e-4], n=300, h={"grid": [2.0, 3.0]}, reps=1)
        cfg, out = write_config(tmp_path, doc), tmp_path / "o"
        assert main(["crossval", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config field 'reps'" in err and "at least 2 replications" in err
        assert not out.exists()

    def test_naive_config_level_at_or_above_1_over_e_exits_1(self, tmp_path, capsys):
        # crossval runs the importance method whatever the configured method
        doc = dict(MINIMAL, method="naive", betas=[0.5], h={"grid": [2.0, 3.0]})
        cfg, out = write_config(tmp_path, doc), tmp_path / "o"
        assert main(["crossval", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config field 'betas'" in err and "beta must be < 1/e" in err
        assert not out.exists()


class TestBenchmarkCommand:
    def test_smoke_run_with_match_row(self, tmp_path, capsys):
        doc = dict(MINIMAL, method="both", betas=[0.1], n=80, reps=3)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        reps = read_csv(out / "replications.csv")
        assert tuple(reps[0]) == REPLICATION_COLUMNS
        assert len(reps) == 1 + 2 * 3
        summary = read_csv(out / "summary.csv")
        methods = [r[0] for r in summary[1:]]
        assert methods == ["is", "naive", "naive-match"]
        assert "naive matches the importance error" in capsys.readouterr().out

    def test_match_budget_exhausted(self, tmp_path, capsys):
        # n * beta < 5 at every n up to the budget: each naive row is infeasible, none draws
        doc = dict(MINIMAL, method="both", betas=[1e-6], n=80, reps=3)
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        assert ("naive match budget exhausted at beta=1e-06: n = 327680 still above the "
                "importance error") in capsys.readouterr().out
        header, *rows = read_csv(out / "summary.csv")
        match = dict(zip(header, rows[-1]))
        assert (match["method"], match["n"], match["reps"]) == ("naive-match", "327680", "3")
        assert match["rel_rmse_cvar"] == "nan" and match["h"] == ""

    def test_no_match_row_without_an_importance_cv(self, tmp_path):
        # one replication has no cv, so there is no importance error to match
        doc = dict(MINIMAL, method="both", betas=[0.1], n=80, reps=1)
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        header, *rows = read_csv(out / "summary.csv")
        assert [(r[0], dict(zip(header, r))["rel_rmse_cvar"]) for r in rows] == [
            ("is", "nan"), ("naive", "nan")]

    def test_is_only_has_no_match_row(self, tmp_path):
        doc = dict(MINIMAL, betas=[0.1], n=80, reps=3)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        summary = read_csv(out / "summary.csv")
        assert [r[0] for r in summary[1:]] == ["is"]

    def test_deterministic_across_thread_counts(self, tmp_path):
        doc = dict(MINIMAL, method="both", betas=[0.1], n=80, reps=3)
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["benchmark", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["benchmark", "--config", str(cfg), "--out", str(b), "--threads", "4"]) == 0
        assert (a / "replications.csv").read_bytes() == (b / "replications.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_method_both_writes_the_cv_of_each_method(self, tmp_path):
        # the replication cv of each method at each level is the rel_rmse_cvar of its row;
        # the naive level 1e-4 has n * beta < 5, so its rows are infeasible and its cv nan
        doc = dict(MINIMAL, betas=[0.1, 1e-4], n=200, reps=4, h=3.0)
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out),
                     "--method", "both"]) == 0
        head, *body = read_csv(out / "summary.csv")
        cv = {(r[0], r[1]): r[head.index("rel_rmse_cvar")] for r in body}
        assert list(cv)[:4] == [("is", "0.1"), ("is", "0.0001"), ("naive", "0.1"),
                                ("naive", "0.0001")]
        assert [cv[k] != "nan" for k in list(cv)[:4]] == [True, True, True, False]
        status = {(r[0], r[1], r[-1]) for r in read_csv(out / "replications.csv")[1:]}
        assert ("naive", "0.0001", "infeasible") in status

    @pytest.mark.parametrize("doc, field, want", [
        ({"betas": [0.5]}, "betas", "beta must be < 1/e"),
        ({"h": None}, "h", "benchmark runs the importance method"),
        ({"h": {"grid": [2.0, 3.0]}}, "h", "an h grid only works with crossval"),
        # r = h log log(1/beta) is 0.83 at 0.1 and 2.6 at 1e-6: the run cannot stretch 0.1
        ({"betas": [1e-6, 0.1], "h": 1.0}, "h", "no outward extrapolation"),
        ({"betas": [1e-6, 0.1], "h": {"affine": {"intercept": 1.0, "slope": 0.0}}}, "h",
         "no outward extrapolation"),
    ], ids=["level at or above 1/e", "no h", "h grid", "fixed h", "affine h"])
    def test_method_both_refuses_what_its_importance_runs_cannot_use(self, tmp_path, capsys,
                                                                    doc, field, want):
        # a naive config takes none of the importance method's needs; --method both does
        doc = {k: v for k, v in dict(MINIMAL, method="naive", n=100, reps=2, **doc).items()
               if v is not None}
        cfg, out = write_config(tmp_path, doc), tmp_path / "o"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["benchmark", "--config", str(cfg), "--out", str(out / "both"),
                     "--method", "both"]) == 1
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and want in err
        assert not (out / "both").exists()


def resolved_config(out):
    return json.loads((out / "manifest.json").read_text())["resolved_config"]


class TestManifest:
    @pytest.mark.parametrize("command, doc, argv, ran", [
        ("estimate", dict(MINIMAL, dist={"alphas": {"value": 0.9, "dim": 2},
                                         "correlation": {"matrix": [[1, 0.3], [0.3, 1]]}},
                          betas=1e-3, n=100, h={"fixed": 2.6}),
         ["--seed", "5", "--h", "3"],
         {"h": 3.0, "n": 100, "reps": 1, "seed": 5, "method": "is", "threads": 1}),
        ("crossval", dict(MINIMAL, betas=[1e-4], n=3e2, reps=3, h={"grid": [2, 3]}),
         [], {"n": 300, "reps": 3, "seed": 123, "method": "is", "threads": 1}),
        ("benchmark", dict(MINIMAL, betas=[0.05], n=80, reps=3, method="both", threads=2),
         ["--beta", "0.1"],
         {"betas": [0.1], "n": 80, "reps": 3, "seed": 123, "method": "both", "threads": 2}),
        ("benchmark", dict(MINIMAL, dist={"alphas": [1], "correlation": {"pattern": "identity"}},
                           betas=[0.1, 1e-4], n=200, reps=3, method="naive",
                           h={"affine": {"intercept": 2, "slope": 0.1}}),
         ["--method", "both"], {"method": "both", "n": 200, "reps": 3, "seed": 123,
                                "threads": 1}),
    ])
    def test_records_the_config_it_read(self, tmp_path, command, doc, argv, ran):
        # the document as written, overrides applied, with the loss in its canonical form and
        # n, reps, seed, method and threads as the run took them (estimate runs one replication
        # per level, whatever the config's reps); a rerun records the same
        cfg = write_config(tmp_path, doc)
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([command, "--config", str(cfg), "--out", str(first), *argv]) == 0
        want = {**doc, "loss": {"kind": "linear", "rho": 1.0}, **ran}
        assert list(resolved_config(first).items()) == list(want.items())
        assert main([command, "--config", str(first / "manifest.json"), "--out", str(again)]) == 0
        assert list(resolved_config(again).items()) == list(want.items())

    def test_crossval_records_the_method_it_runs(self, tmp_path):
        # crossval runs the importance method, and the config's entry does not reach the manifest
        bundled = Path(__file__).resolve().parents[1] / "configs" / "crossval_portfolio.json"
        naive = write_config(tmp_path, dict(json.loads(bundled.read_text()), method="naive"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["crossval", "--config", str(naive), "--out", str(a)]) == 0
        assert main(["crossval", "--config", str(bundled), "--out", str(b)]) == 0
        assert (a / "crossval.csv").read_bytes() == (b / "crossval.csv").read_bytes()
        assert resolved_config(a)["method"] == "is"

    def test_a_varratio_manifest_reruns_under_benchmark(self, tmp_path):
        # varratio, once a command, wrote the replication cv of both methods to varratio.csv;
        # its manifest records method "both", so benchmark reruns it, and the is and naive
        # rows of summary.csv hold those cvs as rel_rmse_cvar
        earlier = {
            "dist": {"alphas": [1], "correlation": {"pattern": "identity"}},
            "loss": {"kind": "linear", "rho": 1.0}, "betas": [0.1, 0.0001], "n": 200,
            "h": {"affine": {"intercept": 2, "slope": 0.1}}, "seed": 123, "reps": 3,
            "method": "both", "threads": 1,
        }
        manifest = write_config(tmp_path, {"command": "varratio", "resolved_config": earlier},
                                "manifest.json")
        out = tmp_path / "o"
        assert main(["benchmark", "--config", str(manifest), "--out", str(out)]) == 0
        head, *body = read_csv(out / "summary.csv")
        cv = {(r[0], r[1]): r[head.index("rel_rmse_cvar")] for r in body}
        # varratio.csv's cv_is and cv_naive at 0.1, then at 1e-4 (whose naive level is
        # infeasible)
        assert [cv[m, b] for m in ("is", "naive") for b in ("0.1", "0.0001")] == [
            "0.0674555267001396", "0.007085614490259897", "0.16276189306555408", "nan"]

    def test_a_manifest_in_the_earlier_form_reruns(self, tmp_path):
        # earlier manifests spelled h as {"fixed": h}, alphas and a correlation matrix as
        # lists of floats, and the network weights inline
        save_relu_params(synthetic_relu_params(dim=3, hidden=4, seed=8), tmp_path / "net.json")
        doc = dict(MINIMAL, dist={"alphas": {"value": 0.6, "dim": 3}, "correlation": {
            "matrix": [[1, 0.2, 0], [0.2, 1, 0.2], [0, 0.2, 1]]}},
            loss={"kind": "relu_net", "weights_file": "net.json"}, betas=[1e-3], n=500, h=4.6)
        earlier = {
            "dist": {"alphas": [0.6, 0.6, 0.6], "correlation": {
                "matrix": [[1.0, 0.2, 0.0], [0.2, 1.0, 0.2], [0.0, 0.2, 1.0]]}},
            "loss": {"kind": "relu_net", "rho": 1.0,
                     "weights": json.loads((tmp_path / "net.json").read_text())},
            "betas": [1e-3], "n": 500, "reps": 50, "seed": 123, "method": "is", "threads": 1,
            "h": {"fixed": 4.6},
        }
        manifest = write_config(tmp_path, {"command": "estimate", "resolved_config": earlier},
                                "manifest.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["estimate", "--config", str(write_config(tmp_path, doc)), "--out",
                     str(a)]) == 0
        assert main(["estimate", "--config", str(manifest), "--out", str(b)]) == 0
        assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    # varratio was a command; benchmark --method both writes its cvs (see TestManifest)
    @pytest.mark.parametrize("command", ["frobnicate", "varratio"])
    def test_unknown_command(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert main([command, "--config", str(write_config(tmp_path, MINIMAL)), "--out",
                     str(out)]) == 1
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_flag(self, capsys):
        assert main(["estimate"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command, h, argv", [
        ("crossval", {"grid": [2.0, 3.0]}, ["--method", "is"]),
        ("benchmark", 2.6, ["--meth", "both"]),
        ("crossval", {"grid": [2.0, 3.0]}, ["--h", "2.6"]),
        ("estimate", 2.6, ["--thread", "2"]),
    ])
    def test_a_flag_the_command_does_not_read_exits_1(self, tmp_path, capsys, command, h, argv):
        # crossval runs the importance method on its h grid; a flag is matched whole, or
        # crossval's --h would be read as --help and benchmark's --meth as --method
        cfg = write_config(tmp_path, dict(MINIMAL, betas=[1e-4], n=300, reps=4, h=h))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out), *argv]) == 1
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, argv, overrides", [
        ("estimate", ["--method", "both", "--h", "2.6"], {"method": "both", "h": 2.6}),
        ("benchmark", ["--method", "naive", "--h", "2.6"], {"method": "naive", "h": 2.6}),
        ("estimate", [], {"method": None, "h": None}),     # unset: the config's entry stands
        ("crossval", [], {}),
    ])
    def test_each_command_takes_the_overrides_it_reads(self, command, argv, overrides):
        args = build_parser().parse_args([command, "--config", "c.json", "--seed", "3",
                                          "--threads", "2", "--beta", "0.1", "--beta", "0.01",
                                          *argv])
        assert vars(args) == {"command": command, "config": "c.json", "out": ".", "seed": 3,
                              "threads": 2, "betas": [0.1, 0.01], **overrides}

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "estimate" in capsys.readouterr().out

    def test_import_loads_no_scipy_linalg(self):
        # a loss runs inside a larger program, which pays for what tailshift
        # imports: numpy and scipy.special are its only numeric imports
        code = ("import sys, tailshift, tailshift.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
        src = str(Path(tailshift.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("module", ["tailshift", "tailshift.cli"])
    def test_python_m_runs_the_command_line(self, tmp_path, module):
        # a bundled config, warning-free as CI runs the demos
        cfg = str(Path(__file__).resolve().parents[1] / "configs" / "onedim.json")
        src = str(Path(tailshift.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

        def run(*args):
            return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", module,
                                   *args], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": path}, timeout=60)

        out = tmp_path / "out"
        got = run("estimate", "--config", cfg, "--out", str(out))
        assert got.returncode == 0, got.stderr
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "direct")]) == 0
        assert (out / "estimates.csv").read_bytes() == (
            tmp_path / "direct" / "estimates.csv").read_bytes()
        assert {row[-1] for row in read_csv(out / "estimates.csv")[1:]} == {"ok"}
        assert run("frobnicate").returncode == 1
