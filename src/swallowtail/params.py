"""Parameter triples for the swallowtail integral and its rescaled form.

Two normalizations of the same function are in play:

    S(x,y,z) = integral of exp[i(u^5 + x u^3 + y u^2 + z u)] du
    Q(x,y,z) = integral of exp[i(t^5/5 + x t^3/3 + y t^2/2 + z t)] dt

They are related by the substitution u = t / 5^(1/5), which rescales each
coordinate by a fixed power of 5 and the value by 5^(-1/5).  Every Params
carries its normalization tag so the two conventions cannot be mixed.

The configuration objects of the evaluator (``QuadratureConfig``) and of
Newton refinement (``RefineConfig``) live here too: this module imports no
numpy, so the CLI reads its flag defaults from them without loading it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, NamedTuple


class Form(Enum):
    """Which normalization a parameter triple refers to."""

    S = "S"
    Q = "Q"


@dataclass(frozen=True)
class Params:
    """A real parameter triple (x, y, z) tagged with its normalization."""

    x: float
    y: float
    z: float
    form: Form = Form.Q

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"coordinate {name} must be finite, got {v!r}")
        if not isinstance(self.form, Form):
            raise ValueError(f"form must be a Form enum member, got {self.form!r}")


class MappedParams(NamedTuple):
    """A rescaled triple plus the scalar relating function values.

    For ``s_to_q``:  S(p) = value_factor * Q(params).
    For ``q_to_s``:  Q(p) = value_factor * S(params).
    """

    params: Params
    value_factor: float


def s_to_q(p: Params) -> MappedParams:
    """Map S-normalized parameters to the Q convention.

    The powers of 5 are evaluated at call time rather than stored as decimal
    literals, so round trips stay at rounding level.
    """
    if p.form is not Form.S:
        raise ValueError("s_to_q expects form=S parameters")
    mapped = Params(
        x=3.0 * p.x / 5.0 ** 0.6,
        y=2.0 * p.y / 5.0 ** 0.4,
        z=p.z / 5.0 ** 0.2,
        form=Form.Q,
    )
    return MappedParams(mapped, 5.0 ** -0.2)


def q_to_s(p: Params) -> MappedParams:
    """Map Q-normalized parameters to the S convention (inverse of s_to_q)."""
    if p.form is not Form.Q:
        raise ValueError("q_to_s expects form=Q parameters")
    mapped = Params(
        x=5.0 ** 0.6 * p.x / 3.0,
        y=5.0 ** 0.4 * p.y / 2.0,
        z=5.0 ** 0.2 * p.z,
        form=Form.S,
    )
    return MappedParams(mapped, 5.0 ** 0.2)


def conjugate_reflection(p: Params) -> Params:
    """Reflect y to -y.

    Evaluators satisfy value(reflected) == conj(value(original)); in
    particular the integral is real-valued whenever y = 0.
    """
    return Params(p.x, -p.y, p.z, p.form)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and budget knobs for the contour evaluator.

    Accepted ranges (``ValueError`` otherwise): ``target_abs_tol`` finite and
    > 0 with 2 * truncation_safety / target_abs_tol finite, since the
    truncation radius solves for its logarithm, and ``max_subdivisions`` an
    integer >= 8.

    ``truncation_safety`` is fixed: the two ray tails together get
    target_abs_tol / truncation_safety of the error and each ray's panels
    half of the rest, so the result is certified for any factor above 1.
    """

    target_abs_tol: float = 1e-10
    max_subdivisions: int = 1500   # panel budget per ray
    truncation_safety: ClassVar[float] = 10.0

    def __post_init__(self):
        if not (self.target_abs_tol > 0.0 and math.isfinite(self.target_abs_tol)):
            raise ValueError("target_abs_tol must be a positive finite number")
        _check_count("max_subdivisions", self.max_subdivisions, 8)
        if not math.isfinite(2.0 * self.truncation_safety / self.target_abs_tol):
            raise ValueError("2 * truncation_safety / target_abs_tol must be finite")


@dataclass(frozen=True)
class RefineConfig:
    """Knobs for Newton refinement (1D on-axis and 2D confinement runs).

    ``residual_mode``: with "abs" the iteration stops at |Q| < residual_tol;
    with "rel" the tolerance is scaled by the local oscillation envelope,
    which keeps the convergence test meaningful at large positive z where
    the whole function is exponentially small.

    Accepted ranges (``ValueError`` otherwise): ``residual_tol`` finite and
    > 0, ``max_iterations`` an integer >= 1, ``max_abs_z`` > 0 (inf allowed,
    NaN not), ``residual_mode`` "abs" or "rel".

    ``max_backtracks`` is fixed: a Newton step is halved at most that many
    times before it is taken as it stands.
    """

    residual_tol: float = 1e-9
    max_iterations: int = 25
    max_backtracks: ClassVar[int] = 6
    max_abs_z: float = 12.0
    residual_mode: str = "abs"
    quadrature: QuadratureConfig = field(
        default_factory=lambda: QuadratureConfig(target_abs_tol=1e-11))

    def __post_init__(self):
        if self.residual_mode not in ("abs", "rel"):
            raise ValueError("residual_mode must be 'abs' or 'rel'")
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0.0):
            raise ValueError(f"residual_tol must be finite and positive, got {self.residual_tol!r}")
        if not self.max_abs_z > 0.0:
            raise ValueError(f"max_abs_z must be positive, got {self.max_abs_z!r}")
        _check_count("max_iterations", self.max_iterations, 1)


def _check_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy's too, bool
    not) of at least ``least``: NaN, inf and fractions pass a bare ``<``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
