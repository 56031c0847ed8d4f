"""Brute-force contour quadrature for the swallowtail integral.

The real-line contour is deformed onto two straight rays through the origin,
entering from infinity at angle 9*pi/10 and leaving at angle pi/10.  Both
angles sit at the centre of a decay sector of exp(i t^5/5): with t = r e^{i
theta} and 5*theta = pi/2 (mod 2*pi) the quintic term contributes exactly
exp(-r^5/5), so the integrand decays super-Gaussianly on each ray no matter
what (x, y, z) are.  Everything else is standard machinery: an a-priori
truncation radius with a certified tail bound, and an adaptive Gauss-Kronrod
rule on each truncated ray.

One kernel integrates t^k times the same exponential for several k at once;
these moments feed the parameter derivatives used by Newton refinement:

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and budget knobs for the contour evaluator."""

    target_abs_tol: float = 1e-10
    max_subdivisions: int = 1500   # panel budget per ray
    truncation_safety: float = 10.0

    def __post_init__(self):
        if not (self.target_abs_tol > 0.0 and math.isfinite(self.target_abs_tol)):
            raise ValueError("target_abs_tol must be a positive finite number")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be at least 8")
        if self.truncation_safety <= 1.0:
            raise ValueError("truncation_safety must exceed 1")


@dataclass(frozen=True)
class EvalResult:
    """A complex value with a certified absolute error estimate."""

    value: complex
    abs_error_estimate: float
    subdivisions_used: int

    def __post_init__(self):
        if not (self.abs_error_estimate >= 0.0 and math.isfinite(self.abs_error_estimate)):
            raise ValueError("abs_error_estimate must be finite and nonnegative")


def _truncation_radius(x: float, y: float, z: float, k: int, log_target: float,
                       sin5: float) -> float:
    """Smallest radius beyond which the integrand tail is provably negligible.

    On a ray at angle theta with s = sin(5*theta) > 0 the integrand modulus of
    r^k exp(i*phase) is at most r^k exp(-g(r)) with

        g(r) = s r^5/5 - |x| r^3/3 - |y| r^2/2 - |z| r.

    Using r^k <= exp(k (r-1)) for r >= 1, the tail beyond R is bounded by
    exp(-gk(R)) once gk(r) = g(r) - k(r-1) satisfies gk >= log_target and
    gk' >= 1 for all r >= R.
    """
    ax, ay, az = abs(x), abs(y), abs(z)
    # gk(r) - log_target as a polynomial in r (leading coefficient first)
    val_poly = [sin5 / 5.0, 0.0, -ax / 3.0, -ay / 2.0, -(az + k), k - log_target]
    # gk'(r) - 1
    slope_poly = [sin5, 0.0, -ax, -ay, -(az + k + 1.0)]
    r_min = 1.0
    for poly in (val_poly, slope_poly):
        roots = np.roots(poly)
        real = roots.real[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots))]
        if real.size:
            r_min = max(r_min, float(real.max()))
    return r_min * (1.0 + 1e-9) + 1e-12


def _panels(lo, hi, w, x: float, y: float, z: float, powers):
    """G7/K15 on a batch of panels: Kronrod values and error estimates.

    Panel i spans r in [lo[i], hi[i]] on the ray t = r * w[i]; column j of
    both (panels, len(powers)) results integrates t^powers[j] exp(i*phase(t)).
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    t = (c[:, None] + h[:, None] * _NODES) * w[:, None]
    f = np.exp(1j * t * (z + t * (0.5 * y + t * (x / 3.0 + 0.2 * t * t))))
    fk = f[:, None, :] * t[:, None, :] ** powers[:, None]
    sums = h[:, None, None] * (fk @ _RULES)
    d = np.abs(sums[..., 1])
    return sums[..., 0], np.minimum(d, (200.0 * d) ** 1.5)


def _integrate(x: float, y: float, z: float, ks, cfg: QuadratureConfig,
               ray_angles=DEFAULT_RAY_ANGLES,
               radius_factor: float = 1.0) -> tuple[EvalResult, ...]:
    """Integrate t^k exp[i(t^5/5 + x t^3/3 + y t^2/2 + z t)] over the contour.

    Returns one EvalResult per k in ``ks``.  All panels of both rays form one
    (panels x 15) node array and exp(i*phase) is computed once per node.  Each
    round, every ray whose estimate (worst k) exceeds its budget bisects its
    largest-error panels until the errors they carry cover the excess, within
    the ray's remaining ``max_subdivisions``.
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
    radius = _truncation_radius(x, y, z, max(ks), log_target, sin5) * radius_factor
    trunc_bound = tol / safety          # both ray tails combined
    ray_budget = 0.5 * tol * (1.0 - 1.0 / safety)
    powers = np.asarray(ks)
    w = np.exp(1j * np.array([theta_out, theta_in]))

    # one row per panel; ray 0 leaves the origin, ray 1 comes in to it
    edges = np.linspace(0.0, radius, 9)
    lo, hi = np.tile(edges[:-1], 2), np.tile(edges[1:], 2)
    ray = np.repeat([0, 1], 8)
    val, err = _panels(lo, hi, w[ray], x, y, z, powers)
    while True:
        on_ray = [ray == r for r in (0, 1)]
        ray_err = np.array([err[m].sum(axis=0) for m in on_ray])
        split = []
        for m, e in zip(on_ray, ray_err):
            worst = int(np.argmax(e))
            room = cfg.max_subdivisions - int(np.count_nonzero(m))
            if e[worst] > ray_budget and room > 0:
                idx = np.flatnonzero(m)
                idx = idx[np.argsort(-err[idx, worst], kind="stable")]
                n = np.searchsorted(np.cumsum(err[idx, worst]), e[worst] - ray_budget) + 1
                split.extend(idx[:min(n, room)])
        if not split:
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_ray = np.tile(ray[split], 2)
        new_val, new_err = _panels(new_lo, new_hi, w[new_ray], x, y, z, powers)
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        ray = np.concatenate((ray[keep], new_ray))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))

    values = w[0] * val[on_ray[0]].sum(axis=0) - w[1] * val[on_ray[1]].sum(axis=0)
    estimates = ray_err.sum(axis=0) + trunc_bound
    results = tuple(EvalResult(complex(v), float(e), lo.size)
                    for v, e in zip(values, estimates))
    if ray_err.max() > ray_budget:
        raise ToleranceNotReached(
            f"quadrature estimate {estimates.max():.3e} above target {tol:.3e} "
            f"after {lo.size} panels",
            partial=results[0],
        )
    return results


def eval_q(p: Params, cfg: QuadratureConfig | None = None, *,
           ray_angles=DEFAULT_RAY_ANGLES, radius_factor: float = 1.0) -> EvalResult:
    """Evaluate Q(x, y, z) by deformed-contour quadrature.

    ``ray_angles`` and ``radius_factor`` exist for validation: perturbing the
    rays within the decay sectors or doubling the truncation radius must not
    change the value beyond the reported estimates.
    """
    if p.form is not Form.Q:
        raise ValueError("eval_q expects form=Q parameters; use eval_s or s_to_q")
    return _integrate(p.x, p.y, p.z, (0,), cfg or QuadratureConfig(),
                      ray_angles, radius_factor)[0]


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
