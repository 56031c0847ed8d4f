import argparse
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import swallowtail
from swallowtail import cli, oracle, params, zeros

# the names the package exported when its __init__ imported every module
EXPORTS = [
    "AxisConfinementRecord", "Branch", "DegenerateScaling", "Direction", "DomainError",
    "EvalResult", "Form", "MappedParams", "NoConvergence", "ObstructionReport", "Params",
    "PathStalled", "QuadratureConfig", "RefineConfig", "RefinedZero", "Regime",
    "RegimeError", "SaddleContribution", "SaddleSet", "ScaledParams", "ScanGrid",
    "SeedOutOfRange", "SteepestPath", "SwallowtailError", "ToleranceNotReached",
    "ZSign", "ZeroPrediction", "axis_confinement_scan", "axis_envelope",
    "below_caustic_obstruction", "caustic_gamma", "conjugate_reflection",
    "dominance_gap", "eval_q", "eval_q_moment", "eval_s", "leading_from_contributions",
    "leading_q00", "modulus_scan", "pearcey_hill_y", "pearcey_hill_zeros",
    "phase_at_saddle", "predicted_zero", "predicted_zeros", "q_to_s", "refine_on_axis",
    "s_to_q", "saddle_contributions", "saddles", "scale", "trace_steepest",
]


def test_exports_are_the_names_of_the_eager_package():
    assert len(EXPORTS) == 51
    assert sorted(swallowtail.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(swallowtail))


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_the_object_of_its_defining_module(name):
    value = getattr(swallowtail, name)
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert getattr(swallowtail, name) is value      # cached, still the same


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        swallowtail.no_such_name
    assert not hasattr(swallowtail, "classify_regime")   # a deleted export


def test_configs_are_one_object_on_every_path():
    assert (swallowtail.QuadratureConfig is params.QuadratureConfig
            is oracle.QuadratureConfig is zeros.QuadratureConfig)
    assert swallowtail.RefineConfig is params.RefineConfig is zeros.RefineConfig


def test_benchmark_instruments_existing_library_names(monkeypatch):
    # the benchmark's traced run wraps these module attributes by name; a
    # library change that removes one must fail here, not only in the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import inprocess  # noqa: F401
    import tracing

    for module, attr, _ in tracing.INSTRUMENTED:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def _options(parser, command=""):
    """Each (sub)command's option strings but -h/--help, walked from ``parser``."""
    found = {command: [opt for action in parser._actions
                       if not isinstance(action, argparse._HelpAction)
                       for opt in action.option_strings]}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_options(sub, f"{command} {name}".strip()))
    return found


def test_every_settable_value_is_listed_here():
    # a change that adds a knob edits this list, in plain sight
    assert [f.name for f in dataclasses.fields(params.QuadratureConfig)] == [
        "target_abs_tol", "max_subdivisions"]
    assert [f.name for f in dataclasses.fields(params.RefineConfig)] == [
        "residual_tol", "max_iterations", "max_abs_z", "residual_mode", "quadrature"]
    assert list(inspect.signature(oracle._integrate_points).parameters) == [
        "x", "y", "z", "ks", "cfg"]
    quad = ["--tol", "--max-subdivisions"]
    assert _options(cli.build_parser()) == {
        "": ["--version"],
        "eval": ["--x", "--y", "--z", "--form", *quad],
        "saddles": ["--y", "--z"],
        "trace": ["--y", "--z", "--saddle", "--direction", "--step", "--cutoff"],
        "zeros": [],
        "zeros predict": ["--branch", "--m-max", "--form"],
        "zeros refine": ["--branch", "--m", "--residual-tol", "--residual-mode",
                         "--max-abs-z", "--tol"],
        "zeros confine": ["--y0", "--branch", "--m", "--modulus-tol", "--tol"],
        "scan": ["--y-range", "--z-range", "--ny", "--nz", "--out", "--format", *quad],
    }
