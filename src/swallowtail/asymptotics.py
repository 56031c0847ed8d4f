"""Leading-order saddle asymptotics and closed-form zero predictions.

On the z-axis the integral collapses to a pure cosine times an envelope:

    z > 0:  Q(0,0,z) ~ |z|^(1/4) sqrt(2 pi/lam) e^{-4 lam/(5 sqrt 2)}
                         cos(4 lam/(5 sqrt 2) - pi/8)
    z < 0:  Q(0,0,z) ~ |z|^(1/4) sqrt(2 pi/lam) cos(4 lam/5 - pi/4)

with lam = |z|^(5/4).  Vanishing of the cosine gives one explicit zero
sequence per sign of z.  Off the axis (gamma > 0) the analysis instead
shows the saddle contributions cannot balance, which is packaged here as
the dominance gap and the below-caustic obstruction report.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, RegimeError
from .params import Form
from .saddle import (
    Regime,
    SaddleSet,
    ScaledParams,
    ZSign,
    phase_second_derivative,
    reduced_phase,
    saddles,
)


class Branch(Enum):
    POSITIVE_Z = "positive_z"
    NEGATIVE_Z = "negative_z"


@dataclass(frozen=True)
class ZeroPrediction:
    """One closed-form predicted zero on the z-axis."""

    branch: Branch
    m: int
    z_predicted: float
    form: Form = Form.Q


@dataclass(frozen=True)
class SaddleContribution:
    """One saddle's leading-order term, split into amplitude and exponents.

    The term equals  amplitude * lam^(-1/2) * exp(lam * (exponent_real
    + i * exponent_imag));  exponent_real < 0 means exponential decay.
    """

    saddle_index: int
    amplitude: complex
    exponent_real: float
    exponent_imag: float

    def value(self, lam: float) -> complex:
        return (self.amplitude / math.sqrt(lam)
                * cmath.exp(lam * (self.exponent_real + 1j * self.exponent_imag)))


@dataclass(frozen=True)
class ObstructionReport:
    """Witness that the two real saddles cannot generate a cosine.

    A zero-producing combination needs the two phase values to cancel and
    the two curvatures to be opposite; ``phase_sum`` and ``curvature_sum``
    are those two obstructions, and ``cancellation_blocked`` certifies both
    are bounded away from zero.  At gamma = 0 both vanish and the on-axis
    cosine (with its zeros) reappears.
    """

    t1: float
    t2: float
    phase_sum: float
    curvature_sum: float
    fpp_t1: float
    fpp_t2: float
    cancellation_blocked: bool


def leading_q00(z: float) -> float:
    """Leading-order approximation of Q(0, 0, z) for large |z|.

    For z < 0 it drops the exponentially small term of the complex saddle
    -i, which ``leading_from_contributions`` keeps.
    """
    if z == 0.0:
        raise DomainError("leading-order form is undefined at z = 0")
    az = abs(z)
    lam = az ** 1.25
    if z > 0.0:
        rate = 4.0 * lam / (5.0 * math.sqrt(2.0))
        return (az ** 0.25 * math.sqrt(2.0 * math.pi / lam)
                * math.exp(-rate) * math.cos(rate - math.pi / 8.0))
    value = math.sqrt(2.0 * math.pi / lam) * math.cos(0.8 * lam - math.pi / 4.0)
    return az ** 0.25 * value


def axis_envelope(z: float) -> float:
    """Peak magnitude of the leading-order axis form (the |cos| = 1 value).

    Used as the scale for relative residual tests: at large positive z the
    whole function decays like exp(-4 lam / (5 sqrt 2)) and absolute
    tolerances stop being meaningful.
    """
    if z == 0.0:
        raise DomainError("envelope is undefined at z = 0")
    lam = abs(z) ** 1.25
    env = abs(z) ** 0.25 * math.sqrt(2.0 * math.pi / lam)
    if z > 0.0:
        env *= math.exp(-4.0 * lam / (5.0 * math.sqrt(2.0)))
    return env


def predicted_zero(branch: Branch, m: int, form: Form = Form.Q) -> ZeroPrediction:
    """The closed-form zero of index m >= 0 on the requested branch.

    Predictions are native to the Q normalization; the S values follow from
    the coordinate map z_S = 5^(1/5) z_Q, which sends the z-axis to itself.

    Raises ``ValueError`` for m < 0, and for m from about 2.86e307 on, where
    (2m + 1) pi overflows a float.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    try:
        odd = float(2 * m + 1)    # the same float that int * float converts to
    except OverflowError:
        odd = math.inf
    if branch is Branch.POSITIVE_Z:
        lam = (5.0 * math.sqrt(2.0) / 4.0) * (math.pi / 8.0 + odd * math.pi / 2.0)
        z = lam ** 0.8
    else:
        lam = 1.25 * (math.pi / 4.0 + odd * math.pi / 2.0)
        z = -(lam ** 0.8)
    if form is Form.S:
        z *= 5.0 ** 0.2
    if not math.isfinite(z):
        raise ValueError("m is too large: its predicted zero overflows a float")
    return ZeroPrediction(branch, m, z, form)


def predicted_zeros(branch: Branch, m_max: int, form: Form = Form.Q) -> list[ZeroPrediction]:
    """``predicted_zero`` for m = 0..m_max."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    return [predicted_zero(branch, m, form) for m in range(m_max + 1)]


def pearcey_hill_y(z_q: float) -> float:
    """Transport a Q-normalized axis coordinate into I5(0, Y) coordinates.

    With I5(X,Y) the unscaled quintic integral exp[i(t^5 + X t^2 + Y t)],
    substituting t = u / 5^(1/5) gives I5(0, Y) = 5^(-1/5) Q(0, 0, 5^(-1/5) Y),
    so zeros correspond under Y = 5^(1/5) z.
    """
    return 5.0 ** 0.2 * z_q


def pearcey_hill_zeros(n_max: int) -> list[float]:
    """Positive-axis zeros of I5(0, Y) from the classical Pearcey-Hill formula."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    pref = 5.0 * 2.0 ** -1.2 * math.pi ** 0.8
    return [pref * (n + 0.625) ** 0.8 for n in range(n_max + 1)]


def saddle_contributions(sp: ScaledParams, saddle_set: SaddleSet | None = None) -> list[SaddleContribution]:
    """Leading-order terms of the saddles on the deformed contour.

    Each term is exp[i lam f(t_k) + i pi/4 - i arg(f''(t_k))/2] *
    sqrt(2 pi / (lam |f''(t_k)|)), with the argument taken in (-pi, pi].
    For z > 0 below the caustic the contour passes through the two upper
    half-plane saddles (k = 0, 1); for z < 0 it passes through k = 2, 3, 0.
    """
    sset = saddle_set if saddle_set is not None else saddles(sp)
    if sset.regime is Regime.DEGENERATE:
        raise RegimeError("no isolated-saddle asymptotics in the degenerate regime")
    if sp.sign_z is ZSign.POSITIVE:
        if sset.regime is not Regime.TWO_CONJUGATE_PAIRS:
            raise RegimeError("z > 0 contributions are implemented below the caustic only")
        indices = (0, 1)
    else:
        indices = (2, 3, 0)
    out = []
    for k in indices:
        t = sset.roots[k]
        f_t = reduced_phase(t, sp.gamma, sp.sign_z)
        fpp = phase_second_derivative(t, sp.gamma)
        amp = (cmath.exp(1j * (math.pi / 4.0 - cmath.phase(fpp) / 2.0))
               * math.sqrt(2.0 * math.pi / abs(fpp)))
        i_f = 1j * f_t
        out.append(SaddleContribution(k, amp, i_f.real, i_f.imag))
    return out


def leading_from_contributions(sp: ScaledParams) -> complex:
    """Sum of saddle terms times the |z|^(1/4) prefactor (= lam^(1/5))."""
    total = sum(c.value(sp.lam) for c in saddle_contributions(sp))
    return sp.lam ** 0.2 * total


def dominance_gap(sp: ScaledParams) -> float:
    """Difference of the two upper-saddle decay rates per unit lam (z > 0).

    With roots p + i q1 and -p + i q2 the rates are
        rate_right = (3/5) gamma p q1 + (4/5) q1
        rate_left  = (4/5) q2 - (3/5) gamma p q2
    and the gap rate_right - rate_left vanishes exactly at gamma = 0 (the
    balanced case whose cosine produces the axis zeros) and is positive for
    0 < gamma < caustic: one saddle dominates, no cancellation, no zeros.
    """
    sset = saddles(sp)
    if sset.regime is not Regime.TWO_CONJUGATE_PAIRS:
        raise RegimeError("dominance gap requires the two-conjugate-pair regime")
    g, p, q1, q2 = sp.gamma, sset.p, sset.q1, sset.q2
    rate_right = 0.6 * g * p * q1 + 0.8 * q1
    rate_left = 0.8 * q2 - 0.6 * g * p * q2
    return rate_right - rate_left


def below_caustic_obstruction(sp: ScaledParams) -> ObstructionReport:
    """Evaluate both cancellation conditions for the real saddle pair.

    Requires the real-pair regime.  For gamma > 0 both reported sums are
    provably nonzero, so the two real-saddle terms cannot combine into a
    zero-producing cosine; gamma = 0 is the boundary case where both vanish.
    """
    sset = saddles(sp)
    if sset.regime is not Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR:
        raise RegimeError("obstruction report requires the real-pair regime")
    t1, t2 = sset.real_roots()
    f1 = reduced_phase(t1, sp.gamma, sp.sign_z)
    f2 = reduced_phase(t2, sp.gamma, sp.sign_z)
    fpp1 = phase_second_derivative(t1, sp.gamma)
    fpp2 = phase_second_derivative(t2, sp.gamma)
    phase_sum = f1 + f2
    curvature_sum = fpp1 + fpp2
    scale = max(1.0, abs(f1), abs(f2))
    blocked = abs(phase_sum) > 1e-12 * scale and abs(curvature_sum) > 1e-12 * max(1.0, abs(fpp1))
    return ObstructionReport(t1, t2, phase_sum, curvature_sum, fpp1, fpp2, blocked)

