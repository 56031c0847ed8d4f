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
plus one conjugate pair.  The quartic is solved in pure Python, through
Ferrari's resolvent cubic, so this module imports no numpy.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateScaling, DomainError, PathStalled
from .params import Form, Params

# Angular centres of the sectors where exp(i t^5/5) decays at infinity.
VALLEY_ANGLES = tuple(math.pi / 10.0 + 2.0 * math.pi * k / 5.0 for k in range(5))

_MIN_STEP = 1e-7          # the tracer's step floor and least step option
# The largest cutoff radius whose fifth power, the size of the phase there,
# a float holds (62 ulps below float max ** 0.2); a saddle at or beyond it
# lies outside every cutoff the tracer takes.
_MAX_CUTOFF = 4.476546622757235e61

# The root polish raises the largest root, about |gamma|^(1/3), to the 4th
# power; below this bound |gamma|^(4/3) stays under a quarter of the float range.
_MAX_ABS_GAMMA = (sys.float_info.max / 4.0) ** 0.75     # 5.49e230


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
        if not abs(self.gamma) <= _MAX_ABS_GAMMA:     # NaN fails too
            raise ValueError(f"gamma must be finite with |gamma| <= {_MAX_ABS_GAMMA:.3g}, "
                             "beyond which the saddle points overflow a float; "
                             f"got {self.gamma!r}")


@dataclass(frozen=True)
class SaddleSet:
    """The four saddle points with regime label and pair structure.

    Labels come straight from the quartic's two Ferrari factors and are
    anchored to the gamma = 0 configuration:

    * z > 0, two conjugate pairs: k = 0..3 are (p + i q1, -p + i q2,
      -p - i q2, p - i q1) with p > 0, at gamma = 0 i^k e^{i pi/4}.
    * z < 0: k = 0 the larger real root, k = 1 the upper complex root,
      k = 2 the smaller real root, k = 3 the lower complex root; at
      gamma = 0 this is i^k.
    * z > 0 beyond the caustic: k = 0/3 the upper/lower complex roots,
      k = 1/2 the larger/smaller real roots.
    * degenerate, within some 40 ulps of the caustic: sorted by argument.

    p, q1, q2 are NaN outside the two-conjugate-pair regime.
    """

    roots: tuple
    regime: Regime
    p: float
    q1: float
    q2: float

    def real_roots(self):
        """The two real saddles, sorted increasing (real-pair regime only):
        the roots that the solve stored with an imaginary part of exactly 0."""
        if self.regime is not Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR:
            raise ValueError("saddle set is not in the real-pair regime")
        return tuple(sorted(r.real for r in self.roots if r.imag == 0.0))


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
    """Extract (lambda, gamma, sign z) from an on-plane (x = 0) Q triple.

    Raises ``DomainError`` when lambda = |z|^(5/4) overflows a float
    (|z| > 4.0e246) or underflows to 0 (|z| below about 1.3e-259).
    """
    if p.form is not Form.Q:
        raise ValueError("scale expects form=Q parameters")
    if p.x != 0.0:
        raise ValueError("scaling is defined for x = 0 only")
    if p.z == 0.0:
        raise DegenerateScaling("z = 0 admits no large-parameter scaling")
    az = abs(p.z)
    try:
        lam = az ** 1.25
    except OverflowError:
        raise DomainError(f"lambda = |z|^(5/4) overflows a float at z = {p.z!r}") from None
    if lam == 0.0:
        raise DomainError(f"lambda = |z|^(5/4) underflows to 0 at z = {p.z!r}")
    return ScaledParams(
        lam=lam,
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


def _resolvent(g: float, sigma: int):
    """(a, g/a) for a = sqrt(u), u the largest real root of Ferrari's resolvent
    u^3 - 4 sigma u - g^2 = 0 (g = |gamma|).  Each branch keeps g^2 from
    overflowing or underflowing."""
    if sigma < 0 and g < 1.0:
        # u = g^2 / (4 + u^2), a contraction in a = g / sqrt(4 + a^4);
        # g/a is that square root, so a subnormal a is never divided by
        a = w = 0.0
        for _ in range(50):
            w = math.sqrt(4.0 + a ** 4)
            a_next = g / w
            if a_next == a:
                break
            a = a_next
        return a, w
    if g > 1e100:
        a = math.cbrt(g)              # u = g^(2/3) to 4/(3u^2) relative
        return a, g / a
    # Newton from above the root, where the cubic is increasing and convex
    u = g ** (2.0 / 3.0) + (2.0 if sigma > 0 else 0.0)
    while True:
        u_next = u - (u * u * u - 4.0 * sigma * u - g * g) / (3.0 * u * u - 4.0 * sigma)
        if not u_next < u:
            break
        u = u_next
    a = math.sqrt(u)
    return a, g / a


def _quadratic_roots(p: float, q: float):
    """The roots of t^2 + p t + q, as two equal floats when the discriminant
    is within its rounding of zero (a double root)."""
    d = p * p - 4.0 * q
    if abs(d) <= 8.0 * sys.float_info.epsilon * (p * p + 4.0 * abs(q)):
        return [complex(-0.5 * p)] * 2
    if d < 0.0:
        s = 0.5 * math.sqrt(-d)
        return [complex(-0.5 * p, s), complex(-0.5 * p, -s)]
    r = -0.5 * (p + math.copysign(math.sqrt(d), p))     # no cancellation
    return [complex(r), complex(q / r)]


def _newton(t: complex, gamma: float, sigma: int) -> complex:
    """One Newton step on t^4 + gamma t + sigma, or t where f'' nearly vanishes."""
    fpp = 4.0 * t ** 3 + gamma
    return t - (t ** 4 + gamma * t + sigma) / fpp if abs(fpp) > 1e-30 else t


def _degenerate_set(roots) -> SaddleSet:
    ordered = tuple(sorted((complex(r) for r in roots), key=cmath.phase))
    nan = float("nan")
    return SaddleSet(ordered, Regime.DEGENERATE, nan, nan, nan)


def saddles(sp: ScaledParams) -> SaddleSet:
    """Solve f'(t) = 0, classify the configuration and label the roots.

    lambda plays no part in the roots, so one solve serves every caller with
    the same gamma and sign of z: the last 16 sets are cached.
    """
    return _solve_saddles(sp.gamma, sp.sign_z)


@functools.lru_cache(maxsize=16)
def _solve_saddles(gamma: float, sign_z: ZSign) -> SaddleSet:
    """Ferrari's factors t^4 + gamma t + sigma = (t^2 - s t + big)(t^2 + s t + sigma/big),
    s = a for gamma > 0, -a otherwise (DLMF 1.11(iii)): the first always has a conjugate pair,
    the second another (two pairs), two distinct reals (a real pair) or a double root (degenerate).
    """
    sigma = sign_z.value
    a, w = _resolvent(abs(gamma), sigma)
    # the larger constant from their sum a^2, the other from their product
    # sigma: the difference would cancel to 0 for the small root at huge |gamma|
    big = 0.5 * (a * a + w)
    s = a if gamma > 0.0 else -a

    def polish(t):
        return _newton(_newton(t, gamma, sigma), gamma, sigma)

    up, dn = (polish(t) for t in _quadratic_roots(-s, big))    # discriminant -a^2 - 2w
    t1, t2 = _quadratic_roots(s, sigma / big)
    if t1 == t2:
        # the double root stays as its factor gives it: f'' vanishes there too,
        # so a Newton step would be rounding noise divided by rounding noise
        return _degenerate_set((t1, t2, up, dn))
    if t1.imag:                 # a second conjugate pair
        right, left = (up, polish(t1)) if up.real > 0.0 else (polish(t1), up)
        roots = (right, left, left.conjugate(), right.conjugate())
        return SaddleSet(roots, Regime.TWO_CONJUGATE_PAIRS, right.real, right.imag, left.imag)
    r_lo, r_hi = (complex(r) for r in sorted((polish(t1).real, polish(t2).real)))
    roots = (r_hi, up, r_lo, dn) if sign_z is ZSign.NEGATIVE else (up, r_hi, r_lo, dn)
    nan = float("nan")
    return SaddleSet(roots, Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR, nan, nan, nan)


def _check_saddle_index(k) -> int:
    """k as an int, or ``ValueError`` unless it is an integer 0..3 (not a bool)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k not in range(4):
        raise ValueError(f"saddle index must be an integer 0..3, got {k!r}")
    return int(k)


def reduced_phase(t, gamma: float, sign_z: ZSign):
    """f(t) at a root t of f', where t^4 = -gamma t - sigma collapses f to
    (3/10) gamma t^2 + sigma (4/5) t: stabler than raw fifth powers near the
    caustic, and a float for real t."""
    return 0.3 * gamma * t * t + sign_z.value * 0.8 * t


def phase_at_saddle(sp: ScaledParams, k: int) -> complex:
    """f(t_k) through the reduced form valid at roots of f'.

    Raises ``ValueError`` for k not an integer 0..3.
    """
    k = _check_saddle_index(k)
    return reduced_phase(saddles(sp).roots[k], sp.gamma, sp.sign_z)


def _descent_angles(fpp: complex):
    """Initial directions along which the quadratic term descends fastest."""
    alpha = 0.5 * (0.5 * math.pi - cmath.phase(fpp))
    return alpha, alpha + math.pi


def _nearest_valley(angle: float) -> int:
    """The index of the valley centre nearest to ``angle`` in [0, 2 pi)."""
    return round((angle - math.pi / 10.0) / (2.0 * math.pi / 5.0)) % 5


def trace_steepest(sp: ScaledParams, k: int, direction: Direction, *,
                   step: float = 0.01, cutoff_radius: float = 8.0) -> SteepestPath:
    """Trace one descending constant-phase branch leaving saddle k.

    One predictor-corrector loop takes every step. Predictor: the first step
    leaves t_k along the descent direction of the quadratic term, every later
    one is an Euler step along the local tangent i*conj(f'). Corrector: 1D
    Newton transverse to the tangent, restoring Re(f - f(t_k)) = 0.
    The step is halved whenever the corrector fails or descent-monotonicity
    breaks, down to a floor of 1e-7 that signals a saddle collision. Each
    accepted point sets it to the least of max(step, d/15), d the distance
    to the nearest other saddle, twice the step just taken and
    cutoff_radius - |t| + step, so the last point stays within one ``step``
    of the cutoff radius. No step budget is needed: heights fall strictly,
    every predictor moves at least 1e-7, at most log2((cutoff_radius +
    step)/1e-7) halvings separate two accepted points, and almost every line
    meets the degree-5 level curve Re(f - f(t_k)) = 0 at most 5 times, so by
    Cauchy-Crofton its length inside the cutoff disk is at most
    5 pi cutoff_radius.
    The saddles come from the cache of ``saddles``: one root solve per
    (gamma, sign z).  lambda plays no part in the path either, so a branch
    comes from a cache of its own, keyed on (gamma, sign z, k, direction,
    step, cutoff radius) and holding the last 16 branches, the 8 of one
    (gamma, sign z) twice over: every caller with that key gets the same
    ``SteepestPath`` object.  The cached core refuses a saddle that no
    cutoff radius can enclose, then a cutoff radius inside |t_k|, before it
    stalls on a degenerate set; neither refusal nor a ``PathStalled`` is
    cached, so each is raised again on every call.

    Complex-conjugate saddles are stored as exact conjugates, and
    f(conj t) = conj f(t), so they share Re f bit for bit: a branch leaving
    t_k can run through its partner t_j (a Stokes connection).  Heights
    fall from 0 and t_j lies at height 2 Im f(t_k), so only a saddle with
    Im f(t_k) < 0 can meet it.  A branch that comes within one step of t_j
    while its height is above 2 Im f(t_k) goes on through it by rule: its
    points so far are followed by those of the partner's own branch in
    the same direction, with the same step and cutoff radius, taken from
    the branch cache, which ends in one of the partner's valleys.  The
    partner has Im f(t_j) > 0, so it meets no partner in turn.
    A ``PathStalled`` (a degenerate set, no first step off the saddle, the
    step halved below 1e-7, or |f'| below 1e-13 at an accepted point)
    carries k, the direction and the point where the trace stopped.

    Raises ``ValueError`` for k not an integer 0..3, a step below 1e-7, a
    step or cutoff radius that is not finite, a cutoff radius inside |t_k|,
    or one whose fifth power overflows a float (beyond 4.47e61), and
    ``DomainError`` for a saddle with |t_k| >= 4.47e61 (|gamma| above about
    9.0e184), which every valid cutoff radius leaves outside.
    """
    if not isinstance(direction, Direction):
        direction = Direction(direction)
    k = _check_saddle_index(k)
    for name, value in (("step", step), ("cutoff_radius", cutoff_radius)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if step < _MIN_STEP:
        raise ValueError(f"step must be at least {_MIN_STEP!r}, got {step!r}")
    if cutoff_radius > _MAX_CUTOFF:
        raise ValueError(f"cutoff_radius {cutoff_radius!r} is so large that the phase "
                         "there, its fifth power, overflows a float")
    return _trace_branch(sp.gamma, sp.sign_z, k, direction, step, cutoff_radius)


@functools.lru_cache(maxsize=16)
def _trace_branch(gamma: float, sign_z: ZSign, k: int, direction: Direction,
                  step: float, cutoff_radius: float) -> SteepestPath:
    """The branch of ``trace_steepest``; |t_k| is checked here, against
    ``_MAX_CUTOFF`` and the cutoff."""
    sset = _solve_saddles(gamma, sign_z)
    t0 = sset.roots[k]
    if not abs(t0) < _MAX_CUTOFF:
        raise DomainError(f"saddle {k} lies at |t_{k}| = {abs(t0)!r}, at or beyond "
                          f"{_MAX_CUTOFF!r}, the largest radius whose fifth power a float "
                          "holds: no branch of it can be traced")
    if cutoff_radius <= abs(t0):
        raise ValueError(f"cutoff_radius {cutoff_radius!r} does not exceed "
                         f"|t_{k}| = {abs(t0)!r}")

    def stalled(message, point=None):
        return PathStalled(message, saddle_index=k, direction=direction, point=point)

    if sset.regime is Regime.DEGENERATE:
        raise stalled("saddle set is degenerate; no isolated branch to trace")
    f0 = phase(t0, gamma, sign_z)
    a1, a2 = _descent_angles(phase_second_derivative(t0, gamma))
    c1 = math.cos(a1)
    a1_right = c1 > 0 if abs(c1) > 1e-9 else math.sin(a1) > 0
    alpha = a1 if a1_right == (direction is Direction.RIGHT) else a2

    # f and f' share t^2 and t^4. CPython raises a complex to a small integer
    # power by squaring, so t**4 is (t*t)*(t*t) and t**5 is t*((t*t)*(t*t)):
    # both round as in phase() and phase_derivative(), whose path the tracer
    # keeps bit for bit. Before Python 3.14 an int times a complex is
    # complex(int) times it, so complex(sigma) changes no bit; afp ** 2 must
    # stay a pow, which differs from afp * afp in the last bit for some afp.
    # 12 iterates at 1e-10, a last check at 10x
    half_gamma = 0.5 * gamma
    sigma = complex(sign_z.value)
    level_tols = (1e-10,) * 12 + (1e-9,)
    # the conjugate partner of a complex t_k lies on this level set at height
    # 2 Im f0, below the saddle when Im f0 < 0
    t_partner = t0.conjugate()
    h_partner = 2.0 * f0.imag if t0.imag != 0.0 and f0.imag < 0.0 else math.inf
    s1, s2, s3 = (r for j, r in enumerate(sset.roots) if j != k)

    points = [t0]
    append = points.append
    t, fp_t, h_prev, dt = t0, None, 0.0, step
    pred = t0 + step * cmath.exp(1j * alpha)
    while True:
        # corrector: u back on Re(f - f0) = 0 with height = Re i(f - f0),
        # or height None
        u, height = pred, None
        for tol in level_tols:
            u2 = u * u
            u4 = u2 * u2
            f = u * u4 / 5.0 + half_gamma * u * u + sigma * u
            fp = u4 + gamma * u + sigma
            df = f - f0
            level = df.real
            af = abs(f)
            if abs(level) <= tol * (af if af > 1.0 else 1.0):
                height = -df.imag
                break
            # beyond 1e154, afp ** 2 overflows: a failed iterate as below 1e-13
            afp = abs(fp)
            if not 1e-13 <= afp <= 1e154:
                break
            u = u - level * fp.conjugate() / afp ** 2
        if height is None or height >= h_prev:
            if len(points) == 1:
                raise stalled(f"could not leave saddle {k} in direction {direction.value}", t0)
            dt *= 0.5
            if dt < _MIN_STEP:
                raise stalled("corrector kept failing; suspected saddle collision", t)
        else:
            t, fp_t, h_prev = u, fp, height
            append(t)
            r = abs(t)
            if not r < cutoff_radius:
                break
            # min(max(step, d / 15), 2 dt, cutoff_radius - r + step), d the
            # least distance to s1, s2, s3, by the comparisons of the builtins
            d, d_next = abs(t - s1), abs(t - s2)
            if d_next < d:
                d = d_next
            d_next = abs(t - s3)
            if d_next < d:
                d = d_next
            grown, doubled, last = d / 15.0, 2.0 * dt, cutoff_radius - r + step
            dt = grown if grown > step else step
            if doubled < dt:
                dt = doubled
            if last < dt:
                dt = last
            if height > h_partner and abs(t - t_partner) <= dt:
                tail = _trace_branch(gamma, sign_z, sset.roots.index(t_partner), direction,
                                     step, cutoff_radius)
                return SteepestPath(k, tuple(points) + tail.points, tail.terminal_sector)
        afp = abs(fp_t)
        if afp < 1e-13:
            raise stalled("ran into another saddle while tracing", t)
        # the tangent i*conj(f') has the modulus of f'
        pred = t + dt * (1j * fp_t.conjugate()) / afp

    sector = _nearest_valley(cmath.phase(t) % (2.0 * math.pi))
    return SteepestPath(k, tuple(points), sector)
