"""Numerics for the swallowtail diffraction integral.

Evaluation by deformed-contour quadrature, saddle-point structure of the
rescaled quintic phase, leading-order asymptotics with closed-form zero
sequences, and numerical certification that the zeros for x = 0 stay on
the z-axis.

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so code that needs
only the closed-form zeros, the saddle points or their steepest curves never
loads numpy.
"""

import importlib

__version__ = "0.1.0"

# the one table of exports: module -> the names it defines
_EXPORTS = {
    name: module
    for module, names in {
        "asymptotics": (
            "Branch", "ObstructionReport", "SaddleContribution", "ZeroPrediction",
            "axis_envelope", "below_caustic_obstruction", "dominance_gap",
            "leading_from_contributions", "leading_q00", "pearcey_hill_y",
            "pearcey_hill_zeros", "predicted_zero", "predicted_zeros",
            "saddle_contributions",
        ),
        "errors": (
            "DegenerateScaling", "DomainError", "NoConvergence", "PathStalled",
            "RegimeError", "SeedOutOfRange", "SwallowtailError", "ToleranceNotReached",
        ),
        "oracle": ("EvalResult", "eval_q", "eval_q_moment", "eval_s"),
        "params": (
            "Form", "MappedParams", "Params", "QuadratureConfig", "RefineConfig",
            "conjugate_reflection", "q_to_s", "s_to_q",
        ),
        "saddle": (
            "Direction", "Regime", "SaddleSet", "ScaledParams", "SteepestPath", "ZSign",
            "caustic_gamma", "phase_at_saddle", "saddles", "scale", "trace_steepest",
        ),
        "zeros": (
            "AxisConfinementRecord", "RefinedZero", "ScanGrid", "axis_confinement_scan",
            "modulus_scan", "refine_on_axis",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value     # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
