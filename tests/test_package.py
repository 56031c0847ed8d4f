import importlib
from pathlib import Path

import pytest

import swallowtail
from swallowtail import oracle, params, zeros

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
