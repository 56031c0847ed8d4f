"""Brute-force contour quadrature for the swallowtail integral.

The real-line contour is deformed onto two straight rays through the origin,
entering from infinity at angle 9*pi/10 and leaving at angle pi/10.  Both
angles sit at the centre of a decay sector of exp(i t^5/5): with t = r e^{i
theta} and 5*theta = pi/2 (mod 2*pi) the quintic term contributes exactly
exp(-r^5/5), so the integrand decays super-Gaussianly on each ray no matter
what (x, y, z) are.  Everything else is standard machinery: an a-priori
truncation radius with a certified tail bound (the positive root of two
quintics, found by Newton steps from a closed-form upper bound), and an
adaptive Gauss-Kronrod rule on each truncated ray.

One kernel, ``_integrate_points``, does all the quadrature.  It takes N
points at once: each (point, ray) pair is a group of panels in one node
array, refined by worst-first bisection within its own budget, and panels
are evaluated 256 at a time, so a grid scan passes a block of cells per
call and a point's result does not depend on its neighbours.
``_integrate`` is its one-point form.  The kernel integrates t^k times the
same exponential for several k at once; these moments feed the parameter
derivatives used by Newton refinement:

    dQ/dz = i * moment_1,   dQ/dy = (i/2) * moment_2,   dQ/dx = (i/3) * moment_3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotReached
from .params import Form, Params, s_to_q

DEFAULT_RAY_ANGLES = (9.0 * math.pi / 10.0, math.pi / 10.0)

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
# Columns: the Kronrod rule and the Kronrod-minus-Gauss difference rule.
_RULES = np.stack((_WK_FULL, _WK_FULL - _WG_FULL), axis=1)
# the 9 edges of a ray's 8 initial panels, as fractions of its radius
_EIGHTHS = np.arange(9) / 8.0
# Panels per _panels call.  Each (panels x 15) complex temporary is then about
# 60 KB, which stays in L2 cache, and for up to 4 values of k every temporary
# stays below numpy's 256 KiB threshold for reusing a temporary in place, where
# its complex multiply rounds differently and a result would depend on its batch.
_PANEL_BLOCK = 256


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and budget knobs for the contour evaluator.

    Accepted ranges (``ValueError`` otherwise): ``target_abs_tol`` finite and
    > 0, ``max_subdivisions`` >= 8, ``truncation_safety`` > 1 (NaN not), and
    2 * truncation_safety / target_abs_tol finite, since the truncation
    radius solves for its logarithm.
    """

    target_abs_tol: float = 1e-10
    max_subdivisions: int = 1500   # panel budget per ray
    truncation_safety: float = 10.0

    def __post_init__(self):
        if not (self.target_abs_tol > 0.0 and math.isfinite(self.target_abs_tol)):
            raise ValueError("target_abs_tol must be a positive finite number")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be at least 8")
        if not self.truncation_safety > 1.0:
            raise ValueError("truncation_safety must exceed 1")
        if not math.isfinite(2.0 * self.truncation_safety / self.target_abs_tol):
            raise ValueError("2 * truncation_safety / target_abs_tol must be finite")


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
    for _ in range(8):
        r2 = r * r
        p = ((a * r2 - b) * r - c) * r2 - d * r - e
        r -= p / ((5.0 * a * r2 - 3.0 * b) * r2 - 2.0 * c * r - d)
    return max(1.0, r)


def _truncation_radius(x: float, y: float, z: float, k: int, log_target: float,
                       sin5: float) -> float:
    """Smallest radius beyond which the integrand tail is provably negligible.

    On a ray at angle theta with s = sin(5*theta) > 0 the integrand modulus of
    r^k exp(i*phase) is at most r^k exp(-g(r)) with

        g(r) = s r^5/5 - |x| r^3/3 - |y| r^2/2 - |z| r.

    Using r^k <= exp(k (r-1)) for r >= 1, the tail beyond R is bounded by
    exp(-gk(R)) once gk(r) = g(r) - k(r-1) satisfies gk >= log_target and
    gk' >= 1 for all r >= R.  Both conditions are quintics of the form that
    ``_positive_root`` solves (the second one multiplied by r).
    """
    ax, ay, az = abs(x), abs(y), abs(z)
    # clamping the constant at 0 can only raise the root
    r_val = _positive_root(sin5 / 5.0, ax / 3.0, ay / 2.0, az + k, max(0.0, log_target - k))
    r_slope = _positive_root(sin5, ax, ay, az + k + 1.0, 0.0)
    return max(r_val, r_slope) * (1.0 + 1e-9) + 1e-12


def _panels(lo, hi, w, x, y, z, ks):
    """G7/K15 on a batch of panels: Kronrod values and error estimates.

    Panel i spans r in [lo[i], hi[i]] on the ray t = r * w[i] at the point
    (x[i], y[i], z[i]); column j of both (panels, len(ks)) results
    integrates t^ks[j] exp(i*phase(t)).
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    t = (c[:, None] + h[:, None] * _NODES) * w[:, None]
    f = np.exp(1j * t * (z[:, None] + t * (0.5 * y[:, None]
                                           + t * (x[:, None] / 3.0 + 0.2 * t * t))))
    fk = f[:, None, :]
    if any(ks):                         # t^0 = 1 exactly, so f * 1 = f
        fk = fk * t[:, None, :] ** np.array(ks)[:, None]
    sums = h[:, None, None] * (fk @ _RULES)
    d = np.abs(sums[..., 1])
    return sums[..., 0], np.minimum(d, (200.0 * d) ** 1.5)


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


def _integrate_points(x, y, z, ks, cfg: QuadratureConfig,
                      ray_angles=DEFAULT_RAY_ANGLES, radius_factor: float = 1.0):
    """Integrate t^k exp[i(t^5/5 + x t^3/3 + y t^2/2 + z t)] at N points.

    ``x``, ``y``, ``z`` are equal-length arrays.  Every (point, ray) pair is
    a group of panels in one (panels x 15) node array, and exp(i*phase) is
    computed once per node for all k in ``ks``.  Each round, every group
    whose estimate (worst k) exceeds its budget bisects its largest-error
    panels until the errors they carry cover the excess, within its own
    ``max_subdivisions``.  Groups never read each other's panels, and
    panels are evaluated ``_PANEL_BLOCK`` at a time, so a point's result
    does not depend on the other points in the batch: a grid scan passes a
    block of cells per call.

    ``ray_angles`` and ``radius_factor`` exist for validation: perturbing the
    rays within the decay sectors or enlarging the truncation radius must not
    change the values beyond the reported estimates.

    Returns per point: values and estimates (both N x len(ks)), the panel
    count and whether both rays met their budget.
    """
    theta_in, theta_out = ray_angles
    sin5 = min(math.sin(5.0 * theta_in), math.sin(5.0 * theta_out))
    if sin5 <= 1e-6:
        raise ValueError("ray angles must lie strictly inside decay sectors")
    if radius_factor < 1.0:
        raise ValueError("radius_factor below 1 would void the tail bound")

    safety = cfg.truncation_safety
    tol = cfg.target_abs_tol
    log_target = math.log(2.0 * safety / tol)
    # beyond r = 1, r^k <= r^max(ks): the largest power's radius covers every tail
    k_max = max(ks)
    radius = np.array([_truncation_radius(a, b, c, k_max, log_target, sin5)
                       for a, b, c in zip(x.tolist(), y.tolist(), z.tolist())]) * radius_factor
    trunc_bound = tol / safety          # both ray tails combined
    ray_budget = 0.5 * tol * (1.0 - 1.0 / safety)
    w = np.exp(1j * np.array([theta_out, theta_in]))

    # group 2i leaves the origin on ray 0, group 2i + 1 comes in on ray 1
    groups = 2 * x.size
    gw, gx, gy, gz = np.tile(w, x.size), np.repeat(x, 2), np.repeat(y, 2), np.repeat(z, 2)
    edges = np.repeat(radius[:, None] * _EIGHTHS, 2, axis=0)   # = linspace(0, radius, 9)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    grp = np.repeat(np.arange(groups), 8)

    def panels(lo, hi, grp):
        val = np.empty((lo.size, len(ks)), dtype=complex)
        err = np.empty((lo.size, len(ks)))
        for i in range(0, lo.size, _PANEL_BLOCK):
            s = slice(i, i + _PANEL_BLOCK)
            g = grp[s]
            val[s], err[s] = _panels(lo[s], hi[s], gw[g], gx[g], gy[g], gz[g], ks)
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
    ok = group_err.reshape(x.size, -1).max(axis=1) <= ray_budget
    return values, estimates, count[0::2] + count[1::2], ok


def _integrate(x: float, y: float, z: float, ks,
               cfg: QuadratureConfig) -> tuple[EvalResult, ...]:
    """The kernel at one point: one EvalResult per k in ``ks``.

    Raises ToleranceNotReached, carrying the k = ks[0] result, when either
    ray misses its budget.
    """
    values, estimates, panels, ok = _integrate_points(
        np.array([x]), np.array([y]), np.array([z]), ks, cfg)
    n = int(panels[0])
    results = tuple(EvalResult(complex(v), float(e), n)
                    for v, e in zip(values[0], estimates[0]))
    if not ok[0]:
        raise ToleranceNotReached(
            f"quadrature estimate {estimates.max():.3e} above target "
            f"{cfg.target_abs_tol:.3e} after {n} panels",
            partial=results[0],
        )
    return results


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
