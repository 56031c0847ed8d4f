"""Saddle points of the rescaled quintic phase and their steepest curves.

For x = 0 and z != 0 the substitution t -> |z|^(1/4) t turns the integral
into |z|^(1/4) times one with phase

    f(t) = t^5/5 + gamma t^2/2 + sigma t,      sigma = sign(z),

multiplied by the large parameter lambda = |z|^(5/4), where
gamma = y / |z|^(3/4).  The saddle points are the roots of the quartic

    f'(t) = t^4 + gamma t + sigma,

whose configuration switches at the caustic value gamma = 4 / 3^(3/4):
below it (z > 0) the roots form two complex-conjugate pairs, while for
z < 0 (any gamma >= 0) or z > 0 beyond the caustic there is one real pair
plus one conjugate pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateScaling, PathStalled
from .params import Form, Params

# Angular centres of the sectors where exp(i t^5/5) decays at infinity.
VALLEY_ANGLES = tuple(math.pi / 10.0 + 2.0 * math.pi * k / 5.0 for k in range(5))

_PAIR_TOL = 1e-9          # conjugate matching / real-root detection
_CAUSTIC_BAND = 1e-9      # classification band around the caustic


class ZSign(Enum):
    """The sign of z; each member's value is that sign, +1 or -1."""

    POSITIVE = 1
    NEGATIVE = -1


class Regime(Enum):
    TWO_CONJUGATE_PAIRS = "two_conjugate_pairs"
    REAL_PAIR_PLUS_CONJUGATE_PAIR = "real_pair_plus_conjugate_pair"
    DEGENERATE = "degenerate"


class Direction(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class ScaledParams:
    """Large parameter lambda, asymmetry gamma and the sign of z."""

    lam: float
    gamma: float
    sign_z: ZSign

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


@dataclass(frozen=True)
class SaddleSet:
    """The four saddle points with regime label and pair structure.

    Root indexing is anchored to the gamma = 0 configuration:

    * z > 0, two conjugate pairs: k = 0..3 are (p + i q1, -p + i q2,
      -p - i q2, p - i q1), which at gamma = 0 reduces to i^k e^{i pi/4}.
    * z < 0: k = 0 the larger real root, k = 1 the upper complex root,
      k = 2 the smaller real root, k = 3 the lower complex root; at
      gamma = 0 this is i^k.
    * z > 0 beyond the caustic: k = 0/3 the upper/lower complex roots,
      k = 1/2 the larger/smaller real roots.

    p, q1, q2 describe the two-conjugate-pair structure (q1 attached to the
    pair with positive real part) and are NaN in the other regimes.
    """

    roots: tuple
    regime: Regime
    p: float
    q1: float
    q2: float

    def real_roots(self):
        """The two real saddles, sorted increasing (real-pair regime only)."""
        reals = sorted(r.real for r in self.roots
                       if abs(r.imag) <= _PAIR_TOL * max(1.0, abs(r)))
        if len(reals) != 2:
            raise ValueError("saddle set does not contain exactly two real roots")
        return reals[0], reals[1]


@dataclass(frozen=True)
class SteepestPath:
    """A traced descending branch of a constant-phase curve."""

    saddle_index: int
    points: tuple
    terminal_sector: int

    def to_polyline(self):
        """Plain [re, im] pairs for JSON export."""
        return [[t.real, t.imag] for t in self.points]


def scale(p: Params) -> ScaledParams:
    """Extract (lambda, gamma, sign z) from an on-plane (x = 0) Q triple."""
    if p.form is not Form.Q:
        raise ValueError("scale expects form=Q parameters")
    if p.x != 0.0:
        raise ValueError("scaling is defined for x = 0 only")
    if p.z == 0.0:
        raise DegenerateScaling("z = 0 admits no large-parameter scaling")
    az = abs(p.z)
    return ScaledParams(
        lam=az ** 1.25,
        gamma=p.y / az ** 0.75,
        sign_z=ZSign.POSITIVE if p.z > 0 else ZSign.NEGATIVE,
    )


def phase(t: complex, gamma: float, sign_z: ZSign) -> complex:
    """The rescaled phase t^5/5 + gamma t^2/2 + sigma t."""
    return t ** 5 / 5.0 + 0.5 * gamma * t * t + sign_z.value * t


def phase_derivative(t: complex, gamma: float, sign_z: ZSign) -> complex:
    return t ** 4 + gamma * t + sign_z.value


def phase_second_derivative(t: complex, gamma: float) -> complex:
    return 4.0 * t ** 3 + gamma


def caustic_gamma() -> float:
    """Asymmetry value at which the z > 0 conjugate pairs collide."""
    return 4.0 * 3.0 ** -0.75


def classify_regime(sp: ScaledParams) -> Regime:
    """Regime by direct gamma comparison (cross-checked by root counting)."""
    if sp.sign_z is ZSign.NEGATIVE:
        return Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR
    gap = abs(sp.gamma) - caustic_gamma()
    if abs(gap) <= _CAUSTIC_BAND:
        return Regime.DEGENERATE
    if gap < 0.0:
        return Regime.TWO_CONJUGATE_PAIRS
    return Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR


def _polish(roots: np.ndarray, gamma: float, sigma: float) -> np.ndarray:
    """Two Newton steps on each companion-matrix eigenvalue."""
    for _ in range(2):
        fp = roots ** 4 + gamma * roots + sigma
        fpp = 4.0 * roots ** 3 + gamma
        mask = np.abs(fpp) > 1e-30
        roots = np.where(mask, roots - fp / np.where(mask, fpp, 1.0), roots)
    return roots


def _degenerate_set(roots) -> SaddleSet:
    ordered = tuple(sorted((complex(r) for r in roots), key=cmath.phase))
    nan = float("nan")
    return SaddleSet(ordered, Regime.DEGENERATE, nan, nan, nan)


def saddles(sp: ScaledParams) -> SaddleSet:
    """Solve f'(t) = 0, classify the configuration and label the roots."""
    sigma = sp.sign_z.value
    raw = _polish(np.roots([1.0, 0.0, 0.0, sp.gamma, sigma]), sp.gamma, sigma)

    scale_ = np.maximum(1.0, np.abs(raw))
    real_mask = np.abs(raw.imag) <= _PAIR_TOL * scale_
    n_real = int(real_mask.sum())
    nan = float("nan")

    if n_real == 0:
        upper = sorted((complex(r) for r in raw if r.imag > 0), key=lambda r: -r.real)
        lower = sorted((complex(r) for r in raw if r.imag < 0), key=lambda r: -r.real)
        if len(upper) != 2 or len(lower) != 2:
            return _degenerate_set(raw)
        right_up, left_up = upper
        right_dn, left_dn = lower
        if (abs(right_up - right_dn.conjugate()) > _PAIR_TOL * max(1.0, abs(right_up))
                or abs(left_up - left_dn.conjugate()) > _PAIR_TOL * max(1.0, abs(left_up))):
            return _degenerate_set(raw)
        if abs(right_up.real - left_up.real) <= _PAIR_TOL:
            return _degenerate_set(raw)   # pairs collapsing onto one vertical line
        p = right_up.real
        q1 = abs(right_up.imag)
        q2 = abs(left_up.imag)
        roots = (right_up, left_up, left_up.conjugate(), right_up.conjugate())
        return SaddleSet(roots, Regime.TWO_CONJUGATE_PAIRS, p, q1, q2)

    if n_real == 2:
        reals = np.sort(raw.real[real_mask])
        r_lo, r_hi = float(reals[0]), float(reals[1])
        if abs(r_hi - r_lo) <= 1e-6 * max(1.0, abs(r_hi)):
            return _degenerate_set(raw)   # collided real pair: on the caustic
        cpx = [complex(r) for r in raw[~real_mask]]
        up = next((r for r in cpx if r.imag > 0), None)
        dn = next((r for r in cpx if r.imag < 0), None)
        if up is None or dn is None or abs(up - dn.conjugate()) > _PAIR_TOL * max(1.0, abs(up)):
            return _degenerate_set(raw)
        if sp.sign_z is ZSign.NEGATIVE:
            roots = (complex(r_hi), up, complex(r_lo), dn)
        else:
            roots = (up, complex(r_hi), complex(r_lo), dn)
        return SaddleSet(roots, Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR, nan, nan, nan)

    return _degenerate_set(raw)


def phase_at_saddle(sp: ScaledParams, k: int, saddle_set: SaddleSet | None = None) -> complex:
    """f(t_k) through the reduced form valid at roots of f'.

    At a saddle t^4 = -gamma t - sigma, so f(t) collapses to
    (3/10) gamma t^2 + sigma (4/5) t, which is numerically stabler than
    raw fifth powers near the caustic.
    """
    sset = saddle_set if saddle_set is not None else saddles(sp)
    t = sset.roots[k]
    return 0.3 * sp.gamma * t * t + sp.sign_z.value * 0.8 * t


def _descent_angles(fpp: complex):
    """Initial directions along which the quadratic term descends fastest."""
    alpha = 0.5 * (0.5 * math.pi - cmath.phase(fpp))
    return alpha, alpha + math.pi


def _nearest_valley(angle: float) -> int:
    def dist(a, b):
        d = (a - b) % (2.0 * math.pi)
        return min(d, 2.0 * math.pi - d)

    return min(range(5), key=lambda k: dist(angle, VALLEY_ANGLES[k]))


def trace_steepest(sp: ScaledParams, k: int, direction: Direction, *,
                   step: float = 0.01, cutoff_radius: float = 8.0,
                   level_tol: float = 1e-10, max_steps: int = 40000) -> SteepestPath:
    """Trace one descending constant-phase branch leaving saddle k.

    Predictor: Euler step along the local tangent i*conj(f'). Corrector:
    1D Newton transverse to the tangent, restoring Re(f - f(t_k)) = 0.
    The step is halved whenever the corrector fails or descent-monotonicity
    breaks; running out of step length signals a saddle collision.

    Complex-conjugate saddles share Re f, so a branch leaving one of them can
    run through its partner: for z > 0 the left branch of saddle 3 passes
    through saddle 0 and, below the caustic, the right branch of saddle 2
    through saddle 1; for z < 0 at small gamma the right branch of saddle 1
    passes through saddle 3.  Usually a step jumps past the partner and the
    trace ends in one of the partner's valleys; when a step lands on the
    partner, the trace raises ``PathStalled``, which is then the right answer.

    Raises ``ValueError`` for k outside 0..3, a step, cutoff radius or level
    tolerance that is not finite and positive, a cutoff radius inside |t_k|,
    or max_steps < 1.
    """
    if not isinstance(direction, Direction):
        direction = Direction(direction)
    if k not in range(4):
        raise ValueError(f"saddle index must be 0..3, got {k!r}")
    for name, value in (("step", step), ("cutoff_radius", cutoff_radius),
                        ("level_tol", level_tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps!r}")
    sset = saddles(sp)
    t0 = sset.roots[k]
    if cutoff_radius <= abs(t0):
        raise ValueError(f"cutoff_radius {cutoff_radius!r} does not exceed "
                         f"|t_{k}| = {abs(t0)!r}")
    if sset.regime is Regime.DEGENERATE:
        raise PathStalled("saddle set is degenerate; no isolated branch to trace")
    gamma, sign_z = sp.gamma, sp.sign_z
    sigma = sign_z.value
    f0 = phase(t0, gamma, sign_z)
    fpp = phase_second_derivative(t0, gamma)
    if abs(fpp) < 1e-12:
        raise PathStalled("vanishing second derivative at the saddle")

    a1, a2 = _descent_angles(fpp)
    c1 = math.cos(a1)
    if abs(c1) > 1e-9:
        right, left = (a1, a2) if c1 > 0 else (a2, a1)
    else:
        right, left = (a1, a2) if math.sin(a1) > 0 else (a2, a1)
    alpha = right if direction is Direction.RIGHT else left

    # f and f' are spelled exactly as in phase() and phase_derivative(), whose
    # rounding the path keeps; 12 iterates at level_tol, a last check at 10x
    level_tols = (level_tol,) * 12 + (10.0 * level_tol,)

    def correct(t: complex):
        """(t, height) back on Re(f - f0) = 0, or None; height = Re i(f - f0)."""
        for tol in level_tols:
            f = t ** 5 / 5.0 + 0.5 * gamma * t * t + sigma * t
            df = f - f0
            if abs(df.real) <= tol * max(1.0, abs(f)):
                return t, -df.imag
            fp = t ** 4 + gamma * t + sigma
            if abs(fp) < 1e-13:
                return None
            t = t - df.real * fp.conjugate() / abs(fp) ** 2
        return None

    points = [t0]
    dt = step
    cand = correct(t0 + step * cmath.exp(1j * alpha))
    if cand is None or cand[1] >= 0.0:
        raise PathStalled(f"could not leave saddle {k} in direction {direction.value}")
    t, h_prev = cand
    points.append(t)

    steps = 0
    good_streak = 0
    while abs(t) < cutoff_radius:
        steps += 1
        if steps > max_steps:
            raise PathStalled("step budget exhausted before reaching the cutoff radius")
        fp = t ** 4 + gamma * t + sigma
        if abs(fp) < 1e-13:
            raise PathStalled("ran into another saddle while tracing")
        tangent = 1j * fp.conjugate()
        cand = correct(t + dt * tangent / abs(tangent))
        if cand is None or cand[1] >= h_prev:
            dt *= 0.5
            good_streak = 0
            if dt < 1e-7:
                raise PathStalled("corrector kept failing; suspected saddle collision")
            continue
        t, h_prev = cand
        points.append(t)
        good_streak += 1
        if good_streak >= 5 and dt < step:
            dt = min(step, 2.0 * dt)
            good_streak = 0

    sector = _nearest_valley(cmath.phase(t) % (2.0 * math.pi))
    return SteepestPath(k, tuple(points), sector)
