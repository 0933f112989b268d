"""The package's public surface: each module's __all__, re-exported once."""

import ast
from pathlib import Path

import tailshift
from tailshift import distributions, errors, estimators, harness, losses, transform

MODULES = (distributions, errors, estimators, harness, losses, transform)

# tailshift.__all__ before the package took its names from the modules'
# lists.  Since deleted: stretch_exponents, a test-only second formula for
# the exponents; variance_ratio_study with its VarianceRatioRow, whose
# numbers are summarize(run_replications(config, method)) for each method;
# WeightedLossSample, a record form of the (losses, log weights) pair;
# naive_var_cvar, value_at_risk and cvar on zero log weights; and
# std_normal_quantile, scipy.special.ndtri behind the open-unit check that
# copula_log_density makes
EARLIER_NAMES = (
    "__version__",
    "CorrelationMatrix", "DistributionSpec", "MarginalSpec",
    "copula_log_density", "joint_log_density", "sample_inputs",
    "BadLossError", "ConfigError", "DomainError", "EstimationError", "FeasibilityError",
    "TailMassError", "WeightsDimensionError", "WeightsFileError", "WeightsFormatError",
    "EstimateReport", "ISConfig",
    "cvar", "cvar_standard_error", "estimate",
    "tail_probability", "value_at_risk",
    "AffineH", "CrossValResult", "ExperimentConfig", "FixedH", "GridH",
    "REPLICATION_COLUMNS", "SUMMARY_COLUMNS",
    "ReplicationTable", "cross_validate_h", "derive_seed", "pert_h_rule",
    "relative_rmse", "run_replications", "summarize",
    "LossModel", "ReluNetParams", "linear_loss", "load_relu_params",
    "pert_completion_time", "relu_net_loss", "save_relu_params", "synthetic_relu_params",
    "TransformParams", "extrapolate", "extrapolation_factor",
    "log_jacobian", "log_likelihood_ratio",
)


def test_all_is_the_version_and_the_module_lists_in_order():
    want = ["__version__", *(name for mod in MODULES for name in mod.__all__)]
    assert tailshift.__all__ == want
    assert len(set(want)) == len(want)


def test_each_name_is_its_modules_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(tailshift, name) is getattr(mod, name), (mod.__name__, name)


def test_the_row_types_and_pert_dim_are_exported():
    for name in ("ReplicationRow", "CrossValEntry", "PERT_DIM"):
        assert name in tailshift.__all__


def test_earlier_names_still_import():
    for name in EARLIER_NAMES:
        assert hasattr(tailshift, name), name
    for mod, name in ((transform, "stretch_exponents"), (harness, "variance_ratio_study"),
                      (harness, "VarianceRatioRow"), (estimators, "WeightedLossSample"),
                      (estimators, "naive_var_cvar"), (distributions, "std_normal_quantile")):
        assert not hasattr(tailshift, name) and not hasattr(mod, name), name


def test_init_holds_no_list_of_names():
    # the only strings in __init__.py are its docstring, the version and "__version__"
    tree = ast.parse(Path(tailshift.__file__).read_text(encoding="utf-8"))
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert sorted(strings) == sorted([ast.get_docstring(tree, clean=False),
                                      tailshift.__version__, "__version__"])
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            assert [alias.name for alias in node.names] == ["*"], node.module
