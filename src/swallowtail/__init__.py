"""Numerics for the swallowtail diffraction integral.

Evaluation by deformed-contour quadrature, saddle-point structure of the
rescaled quintic phase, leading-order asymptotics with closed-form zero
sequences, and numerical certification that the zeros for x = 0 stay on
the z-axis.
"""

__version__ = "0.1.0"

from .asymptotics import (
    Branch,
    ObstructionReport,
    SaddleContribution,
    ZeroPrediction,
    axis_envelope,
    below_caustic_obstruction,
    dominance_gap,
    leading_from_contributions,
    leading_q00,
    pearcey_hill_y,
    pearcey_hill_zeros,
    predicted_zero,
    predicted_zeros,
    saddle_contributions,
)
from .errors import (
    DegenerateScaling,
    DomainError,
    NoConvergence,
    PathStalled,
    RegimeError,
    SeedOutOfRange,
    SwallowtailError,
    ToleranceNotReached,
)
from .oracle import (
    EvalResult,
    QuadratureConfig,
    eval_q,
    eval_q_moment,
    eval_s,
)
from .params import Form, MappedParams, Params, conjugate_reflection, q_to_s, s_to_q
from .saddle import (
    Direction,
    Regime,
    SaddleSet,
    ScaledParams,
    SteepestPath,
    ZSign,
    caustic_gamma,
    phase_at_saddle,
    saddles,
    scale,
    trace_steepest,
)
from .zeros import (
    AxisConfinementRecord,
    RefineConfig,
    RefinedZero,
    ScanGrid,
    axis_confinement_scan,
    modulus_scan,
    refine_on_axis,
)
