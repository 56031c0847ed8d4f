"""Brute-force contour quadrature for the swallowtail integral.

The real-line contour is deformed onto two straight rays through the origin,
entering from infinity at angle 9*pi/10 and leaving at angle pi/10.  Both
angles sit at the centre of a decay sector of exp(i t^5/5): with t = r e^{i
theta} and 5*theta = pi/2 (mod 2*pi) the quintic term contributes exactly
exp(-r^5/5), so the integrand decays super-Gaussianly on each ray no matter
what (x, y, z) are.  Everything else is standard machinery: an a-priori
truncation radius with a certified tail bound (the positive root of two
quintics, found by Newton steps from a closed-form upper bound, in numpy for
a whole pass of ``_RADIUS_BATCH`` points or more), and an adaptive
Gauss-Kronrod rule on each truncated ray.  The quintics, and the scan jets'
tail bound, come from one per-ray majorant of the integrand (``_ray_sines``).

One kernel, ``_integrate_points``, does all the quadrature.  It takes any
number of points and sizes its own passes over them: in a pass each (point,
ray) pair is a group of panels in one node array, refined by worst-first
bisection within its own budget, so a caller passes many points in one call
and a point's result does not depend on its neighbours.  Every per-node
step is a vectorised numpy loop over the panels, exp(i*phase) included: it
comes from one float64 tan (``_cexp``).
``_integrate`` is its one-point form.  The kernel integrates t^k times the
same exponential for several k at once; these moments feed the parameter
derivatives used by Newton refinement:

    dQ/dz = i * moment_1,   dQ/dy = (i/2) * moment_2,   dQ/dx = (i/3) * moment_3.

The moments obey an exact recurrence (``_moment_recurrence``), so the first
four at one point fix every moment there, and with them Q nearby:
``_y_jets`` gives Q(0, y, z) along a line of y values from the four at its
centre, with a certified bound per value.  So a grid scan integrates at one
point per line of cells instead of at every cell; ``zeros.modulus_scan``
takes its lines in one loop, a four-moment kernel pass of centres and then
their jets per slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceNotReached
from .params import Form, Params, QuadratureConfig, s_to_q
from .saddle import VALLEY_ANGLES

DEFAULT_RAY_ANGLES = (VALLEY_ANGLES[2], VALLEY_ANGLES[0])


def _ray_sines(angles):
    """(S_1, S_2, S_3, s) of the rays at ``angles``: S_n the largest
    |sin(n theta)| and s the smallest sin(5 theta), each rounded outwards.

    On t = r e^{i theta} the integrand's modulus is exp(-Im phase), and
    -Im phase = -r^5 sin 5theta/5 - x r^3 sin 3theta/3 - y r^2 sin 2theta/2
    - z r sin theta.  Where sin theta, sin 3theta >= 0, as in the sectors
    (0, pi/5) and (4 pi/5, pi), that is at most the majorant
    -s r^5/5 + S_3 x^- r^3/3 + S_2 |y| r^2/2 + S_1 z^- r on every ray, with
    x^- = max(-x, 0) and z^- = max(-z, 0).
    """
    if min(math.sin(n * theta) for theta in angles for n in (1, 3)) < 0.0:
        raise ValueError("every ray needs sin(theta) >= 0 and sin(3 theta) >= 0")
    # 1e-15 is several ulps: more than the error of math.sin and of the product
    return (*(max(abs(math.sin(n * theta)) for theta in angles) * (1.0 + 1e-15)
              for n in (1, 2, 3)),
            min(math.sin(5.0 * theta) for theta in angles) * (1.0 - 1e-15))


# the rays' directions, outgoing one first, and their _ray_sines
_RAY_W = np.exp(1j * np.array(DEFAULT_RAY_ANGLES[::-1]))
_RAY_SINES = _ray_sines(DEFAULT_RAY_ANGLES)

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-node layout: negative nodes, centre, positive nodes.
_NODES = np.concatenate((-_XGK[:7], _XGK[::-1]))
_WK_FULL = np.concatenate((_WGK[:7], _WGK[::-1]))
_WG_FULL = np.zeros(15)
_WG_FULL[1:7:2] = _WG[:3]          # Gauss nodes sit at every second Kronrod node
_WG_FULL[7] = _WG[3]
_WG_FULL[9:15:2] = _WG[2::-1]
# Rows: the Kronrod rule and the Kronrod-minus-Gauss difference rule.
_RULES = np.stack((_WK_FULL, _WK_FULL - _WG_FULL))
# the 9 edges of a ray's 8 initial panels, as fractions of its radius
_EIGHTHS = np.arange(9) / 8.0
# Panels per _panels call.  Each (15 x panels) complex temporary is then about
# 60 KB, which stays in L2 cache, and for up to 4 values of k the largest, the
# (4 x 15 x panels) moment stack, is 240 KiB: below numpy's 256 KiB threshold
# for reusing a temporary in place, where its complex multiply rounds
# differently and a result would depend on its batch.
_PANEL_BLOCK = 256
# Points per kernel pass for one k, and this over len(ks) for several: a
# pass's panel arrays and sort table grow with its points, its value and
# estimate arrays with points times ks, and its set-up cost stays small
# against the quadrature.
_POINT_PASS = 512
# Points from which a pass finds its truncation radii with numpy: on two shared
# cores the array form costs 70-100 us for 1 to 64 points, the scalar form about
# 6 us per point (they cross near 13); the benchmarks' passes hold 1, 16 or 20.
_RADIUS_BATCH = 8
# A scan line's y jet (``_y_jets``): at most this many terms, and the share of
# the tolerance its truncation may take
_JET_TERMS = 40
_JET_TAIL_SHARE = 0.05
# log(T_J) - (J + 1) log(h/2) - F for J = 0 .. _JET_TERMS, as in ``_jet_terms``
_JET_TAIL_LOG = np.array([
    math.log(0.4) - math.lgamma(j + 2) + 0.2 * (2 * j + 3) * math.log(10.0 / _RAY_SINES[3])
    + math.lgamma(0.2 * (2 * j + 3)) for j in range(_JET_TERMS + 1)])


@dataclass(frozen=True)
class EvalResult:
    """A complex value with a certified absolute error estimate."""

    value: complex
    abs_error_estimate: float
    subdivisions_used: int

    def __post_init__(self):
        if not (self.abs_error_estimate >= 0.0 and math.isfinite(self.abs_error_estimate)):
            raise ValueError("abs_error_estimate must be finite and nonnegative")


def _positive_root(a: float, b: float, c: float, d: float, e: float) -> float:
    """max(1, r*) for the positive root r* of p(r) = a r^5 - b r^3 - c r^2 - d r - e.

    With a > 0 and b, c, d, e >= 0, p(r)/r^5 increases, so r* is unique, and
    p is increasing and convex on [r*, inf).  Newton steps started above r*
    therefore fall monotonically onto it.  The start makes each negative term
    at most a r^5 / 4, so p is nonnegative there.
    """
    r = max(1.0, math.sqrt(4.0 * b / a), (4.0 * c / a) ** (1.0 / 3.0),
            (4.0 * d / a) ** 0.25, (4.0 * e / a) ** 0.2)
    return max(1.0, _newton_steps(r, a, b, c, d, e))


def _positive_roots(a, b, c, d, e):
    """``_positive_root`` elementwise over arrays, bit for bit.

    np.float_power's float64 loop is libm's pow, as Python's ** is; np.power
    has a SIMD loop that differs from it in the last bit for ~5 % of inputs.
    """
    r = 1.0
    for start in (np.sqrt(4.0 * b / a), np.float_power(4.0 * c / a, 1.0 / 3.0),
                  np.float_power(4.0 * d / a, 0.25), np.float_power(4.0 * e / a, 0.2)):
        r = np.maximum(r, start)
    return np.maximum(1.0, _newton_steps(r, a, b, c, d, e))


def _newton_steps(r, a, b, c, d, e):
    """8 Newton steps on p(r) = a r^5 - b r^3 - c r^2 - d r - e, for floats or arrays."""
    a5, b3, c2 = 5.0 * a, 3.0 * b, 2.0 * c
    for _ in range(8):
        r2 = r * r
        p = ((a * r2 - b) * r - c) * r2 - d * r - e
        r = r - p / ((a5 * r2 - b3) * r2 - c2 * r - d)
    return r


def _tail_quintics(cx, cy, cz, k: int, log_target: float, s: float):
    """(a, b, c, d, e) of the value and the slope conditions of
    ``_truncation_radius``, with cx = S_3 x^-, cy = S_2 |y|, cz = S_1 z^-."""
    # clamping the constant at 0 can only raise the root
    return ((s / 5.0, cx / 3.0, cy / 2.0, cz + k, max(0.0, log_target - k)),
            (s, cx, cy, cz + k + 1.0, 0.0))


def _truncation_radius(x: float, y: float, z: float, k: int, log_target: float,
                       sines) -> float:
    """Smallest radius beyond which the integrand tail is provably negligible.

    On rays with ``_ray_sines`` (S_1, S_2, S_3, s), s > 0, the integrand
    modulus of r^k exp(i*phase) is at most r^k exp(-g(r)) with

        g(r) = s r^5/5 - S_3 x^- r^3/3 - S_2 |y| r^2/2 - S_1 z^- r.

    Using r^k <= exp(k (r-1)), the tail beyond R is bounded by exp(-gk(R))
    once gk(r) = g(r) - k(r-1) satisfies gk >= log_target and gk' >= 1 for
    all r >= R.  Both conditions are quintics of the form that
    ``_positive_root`` solves (the second one multiplied by r).
    """
    s1, s2, s3, s = sines
    r_val, r_slope = (_positive_root(*q) for q in _tail_quintics(
        s3 * max(-x, 0.0), s2 * abs(y), s1 * max(-z, 0.0), k, log_target, s))
    return max(r_val, r_slope) * (1.0 + 1e-9) + 1e-12


def _truncation_radii(x, y, z, k: int, log_target: float, sines):
    """``_truncation_radius`` at every point of the arrays x, y, z, bit for bit.

    Below ``_RADIUS_BATCH`` points the scalar form is faster; from there on,
    the arrays.
    """
    if x.size < _RADIUS_BATCH:
        return np.array([_truncation_radius(a, b, c, k, log_target, sines)
                         for a, b, c in zip(x.tolist(), y.tolist(), z.tolist())])
    s1, s2, s3, s = sines
    quintics = _tail_quintics(s3 * np.maximum(-x, 0.0), s2 * np.abs(y),
                              s1 * np.maximum(-z, 0.0), k, log_target, s)
    # each coefficient as a (2, N) array: row 0 the value condition, row 1 the slope
    coef = np.empty((5, 2, x.size))
    for rows, pair in zip(coef, zip(*quintics)):
        rows[0], rows[1] = pair
    r_val, r_slope = _positive_roots(*coef)
    return np.maximum(r_val, r_slope) * (1.0 + 1e-9) + 1e-12


def _cexp(w):
    """exp(w) for a complex array w = a + ib, from one float64 tan.

    With u = tan(b/2), exp(a + ib) = exp(a) ((1 - u^2) + 2iu) / (1 + u^2).
    numpy's complex exp and its float64 sin and cos are scalar loops, while
    its float64 tan and exp are vectorised, so this is several times faster.
    Halving b is exact, and the absolute error stays within a few ulps of
    exp(a).
    """
    u = np.tan(0.5 * w.imag)
    u2 = u * u
    s = np.exp(w.real)
    s /= 1.0 + u2
    f = np.empty_like(w)
    np.multiply(1.0 - u2, s, out=f.real)
    np.multiply(u + u, s, out=f.imag)
    return f


def _panels(lo, hi, w, x3, y2, z, ks):
    """G7/K15 on a batch of panels: Kronrod values and error estimates.

    Panel i spans r in [lo[i], hi[i]] on the ray t = r * w[i] at a point
    whose phase coefficients x/3, y/2 and z are x3[i], y2[i] and z[i], all
    complex, so that no step of the phase mixes real and complex operands,
    which numpy would cast in buffered chunks.  Column j of both (panels,
    len(ks)) results integrates t^ks[j] exp(i*phase(t)).  Nodes run down the
    first axis of each temporary and panels along the second, so every
    broadcast is one loop over the panels.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    t = (c + h * _NODES[:, None]) * w
    f = _cexp(1j * t * (z + t * (y2 + t * (x3 + 0.2 * t * t))))
    powers = [f]                        # f t^k by repeated multiplication
    for _ in range(max(ks)):
        powers.append(powers[-1] * t)
    fk = np.array([powers[k] for k in ks])
    # the rules applied to the real and imaginary parts: a real matrix product
    # per k, which sums every panel's nodes in the same order wherever it sits
    sums = (_RULES @ fk.view(float)).view(complex) * h
    d = np.abs(sums[:, 1])
    return sums[:, 0].T, np.minimum(d, (200.0 * d) ** 1.5).T


def _group_sums(grp, v, groups: int):
    """Per-group column sums of the (panels, m) array v, each summed in panel order."""
    m = v.shape[1]
    idx = (grp[:, None] * m + np.arange(m)).ravel()
    return np.bincount(idx, v.ravel(), groups * m).reshape(groups, m)


def _worst_first(err, grp, worst, excess, room):
    """Panels to bisect: per group, its largest-error panels (in its worst k)
    until the errors they carry cover the group's excess, at most ``room``."""
    active = (excess > 0.0) & (room > 0)
    if not active.any():
        return np.empty(0, dtype=int)
    cand = np.flatnonzero(active[grp])
    g = grp[cand]
    e = err[cand, worst[g]]
    order = np.lexsort((-e, g))          # by group, then largest error first
    g, e = g[order], e[order]
    rank = np.arange(g.size) - np.searchsorted(g, g)
    # a row per group: its sorted errors after a zero column, so that the
    # running sum at column `rank` is the error of the group's larger panels
    table = np.zeros((excess.size, int(rank.max()) + 2))
    table[g, rank + 1] = e
    before = table.cumsum(axis=1)[g, rank]
    return cand[order[(before < excess[g]) & (rank < room[g])]]


def _integrate_points(x, y, z, ks, cfg: QuadratureConfig):
    """Integrate t^k exp[i(t^5/5 + x t^3/3 + y t^2/2 + z t)] at N points.

    ``x``, ``y``, ``z`` are equal-length arrays of any length; the kernel
    takes them in passes of at most ``_POINT_PASS`` / len(ks), in order.  In a pass
    every (point, ray) pair is a group of panels in one node array, and
    exp(i*phase) is computed once per node for all k in ``ks``.
    Each round, every group whose estimate (worst k) exceeds its budget
    bisects its largest-error panels until the errors they carry cover the
    excess, within its own ``max_subdivisions``.  Groups never read each
    other's panels, and panels are evaluated ``_PANEL_BLOCK`` at a time, so
    a point's result does not depend on the other points in the call.
    The rays are those of ``DEFAULT_RAY_ANGLES``; ``_integrate_pass`` takes
    its rays as inputs.

    Returns per point: values and estimates (both N x len(ks)), the panel
    count and whether both rays met their budget.  Where the integrand
    overflows, a value or estimate is NaN or inf, without a warning; the
    callers check finiteness.
    """
    # no points still make one (empty) pass, so the four outputs keep their shapes
    step = _POINT_PASS // len(ks)
    with np.errstate(over="ignore", invalid="ignore"):
        passes = [_integrate_pass(x[i:i + step], y[i:i + step], z[i:i + step], ks, cfg,
                                  _RAY_W, _RAY_SINES)
                  for i in range(0, x.size, step) or (0,)]
    return tuple(np.concatenate(columns) for columns in zip(*passes))


def _ray_budget(cfg: QuadratureConfig) -> float:
    """Each ray's share of the error: half of what the two tails leave."""
    return 0.5 * cfg.target_abs_tol * (1.0 - 1.0 / cfg.truncation_safety)


def _integrate_pass(x, y, z, ks, cfg, w, sines):
    """``_integrate_points`` on one pass of at most ``_POINT_PASS`` / len(ks)
    points; w holds the two rays' directions, outgoing one first, and sines
    their ``_ray_sines``, whose smallest sin(5 theta) must be positive."""
    safety = cfg.truncation_safety
    tol = cfg.target_abs_tol
    log_target = math.log(2.0 * safety / tol)
    # beyond r = 1, r^k <= r^max(ks): the largest power's radius covers every tail
    k_max = max(ks)
    radius = _truncation_radii(x, y, z, k_max, log_target, sines)
    trunc_bound = tol / safety          # both ray tails combined
    ray_budget = _ray_budget(cfg)

    # group 2i leaves the origin on ray 0, group 2i + 1 comes in on ray 1;
    # a complex column per group: its ray's direction and its point's x/3, y/2, z
    groups = 2 * x.size
    coef = np.empty((4, x.size, 2), dtype=complex)
    coef[0] = w
    coef[1:] = np.array((x / 3.0, 0.5 * y, z))[..., None]
    coef = coef.reshape(4, groups)
    edges = np.repeat(radius[:, None] * _EIGHTHS, 2, axis=0)   # = linspace(0, radius, 9)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    grp = np.repeat(np.arange(groups), 8)

    def panels(lo, hi, grp):
        val = np.empty((lo.size, len(ks)), dtype=complex)
        err = np.empty((lo.size, len(ks)))
        for i in range(0, lo.size, _PANEL_BLOCK):
            s = slice(i, i + _PANEL_BLOCK)
            val[s], err[s] = _panels(lo[s], hi[s], *coef.take(grp[s], axis=1), ks)
        return val, err

    val, err = panels(lo, hi, grp)
    while True:
        count = np.bincount(grp, minlength=groups)
        group_err = _group_sums(grp, err, groups)
        excess = group_err.max(axis=1) - ray_budget
        split = _worst_first(err, grp, group_err.argmax(axis=1), excess,
                             cfg.max_subdivisions - count)
        if not split.size:
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_grp = np.concatenate((grp[split], grp[split]))
        new_val, new_err = panels(new_lo, new_hi, new_grp)
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        grp = np.concatenate((grp[keep], new_grp))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))

    group_val = _group_sums(grp, val.real, groups) + 1j * _group_sums(grp, val.imag, groups)
    # keep this form: numpy's complex multiply rounds differently on its SIMD
    # and scalar paths, and picks one by array length and stride
    values = w[0] * group_val[0::2] - w[1] * group_val[1::2]
    estimates = group_err[0::2] + group_err[1::2] + trunc_bound
    ok = group_err.reshape(x.size, 2 * len(ks)).max(axis=1) <= ray_budget
    return values, estimates, count[0::2] + count[1::2], ok


def _integrate(x: float, y: float, z: float, ks,
               cfg: QuadratureConfig) -> tuple[EvalResult, ...]:
    """The kernel at one point: one EvalResult per k in ``ks``.

    Raises DomainError when a value or an estimate is not finite (the
    integrand overflowed), and ToleranceNotReached, carrying the k = ks[0]
    result, when either ray misses its budget.
    """
    values, estimates, panels, ok = _integrate_points(
        np.array([x]), np.array([y]), np.array([z]), ks, cfg)
    if not (np.isfinite(values).all() and np.isfinite(estimates).all()):
        raise DomainError(f"the quadrature overflowed at (x, y, z) = ({x:g}, {y:g}, {z:g})")
    n = int(panels[0])
    results = tuple(EvalResult(complex(v), float(e), n)
                    for v, e in zip(values[0], estimates[0]))
    if not ok[0]:
        # the verdict is per ray: the summed estimate may lie below the target
        raise ToleranceNotReached(
            f"a ray's quadrature error estimate exceeded its budget "
            f"0.5*tol*(1 - 1/safety) = {_ray_budget(cfg):.3e} after {n} panels "
            f"(summed estimate {estimates.max():.3e}, target {cfg.target_abs_tol:.3e})",
            partial=results[0],
        )
    return results


def _moment_recurrence(m, y, z, n: int, step: int = 1, unit=1j):
    """m_0, m_step, m_2step, .. up to m_n, along a new last axis, from
    m_0 .. m_3, the items of m, on the plane x = 0 by

        m_{k+4} = i k m_{k-1} - y m_{k+1} - z m_k,

    which integrating d/dt [t^k exp(i*phase)] along the contour gives (off
    the plane, - x m_{k+2} joins it); y, z and unit broadcast against an
    item.  With unit=1, -|y| and -|z| it is the majorant recurrence, whose
    terms bound those of the first in modulus.  Only the last five terms
    are held, so the work space is the output.
    """
    window = list(m)                    # m_{k-1} .. m_{k+3}, once k >= 1
    out = np.empty(np.broadcast(*window, y, z, unit).shape + (n // step + 1,), dtype=complex)
    for k in range(0, min(n, 3) + 1, step):
        out[..., k // step] = window[k]
    neg_y, neg_z = -y, -z
    for k in range(n - 3):
        term = neg_z * window[-4] + neg_y * window[-3]
        if k:
            term += unit * k * window.pop(0)
        window.append(term)
        if (k + 4) % step == 0:
            out[..., (k + 4) // step] = term
    return out


def _jet_terms(y: float, z, h: float, tol: float):
    """The terms J and the tail bound T_J of the y jet of each line z_l in
    ``z`` (``_y_jets``), centred at (0, y, z_l) and reaching |d| <= h.

    Q(0, y + d, z) = sum_j (i d/2)^j / j! m_2j, and T_J bounds the terms
    j > J.  By Taylor's integral remainder, on t = r e^{i theta} they are at
    most (h r^2/2)^(J+1) / (J+1)! exp(S_2 h r^2/2) times the integrand at
    the centre, so with ``_ray_sines``' majorant, Y = S_2 (|y| + h) and
    Z = S_1 z^-, at most the integral over both rays of
    (h r^2/2)^(J+1) / (J+1)! exp(Y r^2/2 + Z r - s r^5/5).  Half the quintic
    caps Y r^2/2 + Z r - s r^5/10 at F = 0.3 Y rb^2 + 0.8 Z rb, its value at
    its maximum rb or any larger r, and the other half integrates in closed
    form:

        T_J <= 2 (h/2)^(J+1) / (J+1)! e^F (10/s)^((2J+3)/5) Gamma((2J+3)/5) / 5.

    J is the least count <= ``_JET_TERMS`` with T_J within
    ``_JET_TAIL_SHARE`` of ``tol``, or -1 (with T_J infinite) where there
    is none.  This depends on no moment, so it decides which lines a jet
    can serve before any quadrature.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2, _, s = _RAY_SINES
        big_y, big_z = s2 * (abs(y) + h), s1 * np.maximum(-z, 0.0)
        rb = _positive_roots(0.5 * s, 0.0, big_y, big_z, 0.0) * (1.0 + 1e-9) + 1e-12
        log_f = 0.3 * big_y * rb * rb + 0.8 * big_z * rb
        # log T_J - F for each J, and its running minimum, which falls: so
        # the least J that meets the share is a search, one per line
        # h/2 underflows to 0 only at the least subnormal h, whose tail, about
        # h e^F, lies far below the last bit of any cell's bound
        half = 0.5 * h
        log_tail = _JET_TAIL_LOG + np.arange(1, _JET_TERMS + 2) * (math.log(half) if half
                                                                   else -math.inf)
        least = np.minimum.accumulate(log_tail)
        terms = np.searchsorted(-least, log_f - math.log(_JET_TAIL_SHARE * tol))
        has_terms = terms <= _JET_TERMS
        terms = np.where(has_terms, terms, -1)
        tails = np.where(has_terms, np.exp(log_tail[terms] + log_f), np.inf)
    return terms, tails


@np.errstate(over="ignore", invalid="ignore")
def _y_jets(moments, estimates, y: float, z, deltas, terms, tails):
    """Q(0, y + d, z_l) for each offset d in ``deltas`` and line z_l in
    ``z``, from the moments m_0 .. m_3 at each centre (0, y, z_l) and their
    estimates e_0 .. e_3, both (lines x 4) as the kernel returns them, with
    the terms J >= 0 and tail bounds T_J of ``_jet_terms``.

    The recurrence writes each m_2j as A_2j . (m_0 .. m_3), so the terms
    j <= J make W(d) . (m_0 .. m_3), within sum_k |W_k(d)| e_k + T_J + a
    roundoff term of Q.  Returns the values and their bounds, both
    (offsets x lines); a line with a non-finite moment or estimate has
    non-finite ones.  A line's values and bounds do not depend on the other
    lines passed with it, bit for bit.  The work space is a few
    (offsets x lines) arrays and the lines' terms, so ``zeros.modulus_scan``
    passes its lines in slices of one kernel pass of centres.
    """
    count = int(terms.max()) + 1
    # per line, A_2j's four entries and, fifth, the majorant recurrence run
    # on |m_0| .. |m_3|, which bounds the terms' moduli: (lines x 5 x count).
    # Complex coefficients spare the recurrence numpy's buffered casts, and
    # with a zero imaginary part each product rounds as the real one would
    start = np.zeros((4, z.size, 5), dtype=complex)
    start[:, :, :4] = np.eye(4)[:, None]
    start[:, :, 4] = np.abs(moments).T
    column_y = np.array([y, y, y, y, -abs(y)], dtype=complex)
    column_z = np.empty((z.size, 5), dtype=complex)
    column_z[:, :4], column_z[:, 4] = z[:, None], -np.abs(z)
    a = _moment_recurrence(start, column_y, column_z, 2 * count - 2, step=2,
                           unit=np.array([1j, 1j, 1j, 1j, 1.0]))
    # c_j(d) = i^j r_j(d), with r_j = (d/2)^j / j! real and a row per
    # offset; i^j goes into A_2j exactly, so the products are real, and
    # each line's terms beyond its J are zero.  The products go line by
    # line, as one product over every line can cross BLAS's threading
    # threshold, whose threads cost far more than they save, and each runs
    # over all _JET_TERMS + 1 terms: BLAS groups a sum's terms by its
    # length, so a line's sums would otherwise depend on the largest J of
    # the lines passed with it
    within = np.arange(count) <= terms[:, None]
    a[:, :4] *= np.where(within, np.array([1, 1j, -1, -1j])[np.arange(count) % 4], 0)[:, None]
    a[:, 4] *= within
    a = np.concatenate((a, np.zeros(a.shape[:2] + (_JET_TERMS + 1 - count,))), axis=2)
    r = np.cumprod(np.hstack((np.ones((deltas.size, 1)),
                              0.5 * deltas[:, None] / np.arange(1.0, _JET_TERMS + 1))), axis=1)
    # W_k(d) per line, k and offset, then the sums over k in the order of k
    w = (r @ a[:, :4].view(float).reshape(z.size, 4, -1, 2)).view(complex)[..., 0]
    values = (w * moments[..., None]).sum(axis=1)
    spread = (np.abs(w) * estimates[..., None]).sum(axis=1)
    # each computed A_n is off by about n ulps of the majorant's A_n, and
    # c, W and W . m add a few more: 16 (J + 2) ulps of it covers them all
    roundoff = (terms[:, None] + 2) * 2.0 ** -48 * (np.abs(r) @ a[:, 4, :, None].real)[..., 0]
    return values.T, (spread + tails[:, None] + roundoff).T


def eval_q(p: Params, cfg: QuadratureConfig | None = None) -> EvalResult:
    """Evaluate Q(x, y, z) by deformed-contour quadrature."""
    if p.form is not Form.Q:
        raise ValueError("eval_q expects form=Q parameters; use eval_s or s_to_q")
    return _integrate(p.x, p.y, p.z, (0,), cfg or QuadratureConfig())[0]


def eval_s(p: Params, cfg: QuadratureConfig | None = None) -> EvalResult:
    """Evaluate S(x, y, z) via the rescaling onto Q."""
    if p.form is not Form.S:
        raise ValueError("eval_s expects form=S parameters")
    mapped, factor = s_to_q(p)
    r = eval_q(mapped, cfg)
    return EvalResult(factor * r.value, factor * r.abs_error_estimate, r.subdivisions_used)


def eval_q_moment(p: Params, k: int, cfg: QuadratureConfig | None = None) -> EvalResult:
    """Evaluate the k-th moment: integral of t^k times the Q integrand.

    Differentiating under the integral sign gives the parameter derivatives
    listed in the module docstring; k is restricted to 1, 2, 3 accordingly.
    """
    if k not in (1, 2, 3):
        raise ValueError("moment order k must be 1, 2 or 3")
    if p.form is not Form.Q:
        raise ValueError("eval_q_moment expects form=Q parameters")
    return _integrate(p.x, p.y, p.z, (k,), cfg or QuadratureConfig())[0]
