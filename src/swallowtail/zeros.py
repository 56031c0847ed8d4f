"""Zero refinement against the quadrature evaluator.

On the axis the integral is real, so refinement is plain damped 1D Newton
on z -> Re Q(0,0,z).  Off the axis the headline experiment runs full 2D
Newton on (y, z) -> (Re Q, Im Q): started from y0 > 0 near a predicted
axis zero it must either come back to the axis or diverge; a converged
zero with |final_y| materially above zero would refute axis confinement.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import Branch, ZeroPrediction, axis_envelope, predicted_zero
from .errors import NoConvergence, SeedOutOfRange, ToleranceNotReached
from .oracle import _integrate, _integrate_points
from .oracle import eval_q  # noqa: F401  (zeros.eval_q stays importable for code that wraps it)
from .params import Form, QuadratureConfig, RefineConfig

# Beyond these bounds a 2D Newton iterate is recorded as divergent, and a
# seed is refused.
_DIVERGENCE_Y = 10.0
_DIVERGENCE_Z = 14.0


@dataclass(frozen=True)
class RefinedZero:
    """A certified on-axis zero of Q (z coordinate, Q normalization)."""

    z: float
    m: int
    branch: Branch
    residual: float
    iterations: int


@dataclass(frozen=True)
class AxisConfinementRecord:
    """Outcome of one 2D Newton run seeded off the axis."""

    seed_y: float
    seed_z: float
    converged: bool
    final_y: float
    final_z: float
    final_modulus: float
    iterations: int


def _q_axis(z: float, cfg: QuadratureConfig):
    """Q and dQ/dz on the axis, where both are real, from one kernel call."""
    q, m1 = _integrate(0.0, 0.0, z, (0, 1), cfg)
    return q.value.real, (1j * m1.value).real


def _line_search(evaluate, x, step, residual: float, max_backtracks: int):
    """Evaluate at x + step, halving the step up to ``max_backtracks`` times
    while |Q| there does not drop below ``residual``.  ``x`` is a scalar z
    or an array (y, z), and ``evaluate`` returns a tuple that starts with Q.
    Halving is exact.  Returns the last trial point and its evaluation."""
    for n in range(max_backtracks + 1):
        trial = x + step * 0.5 ** n
        result = evaluate(trial)
        if abs(result[0]) < residual:
            break
    return trial, result


def refine_on_axis(seed: ZeroPrediction, cfg: RefineConfig | None = None) -> RefinedZero:
    """Damped Newton from a predicted zero to a certified one.

    The iteration works in the Q normalization (S seeds are mapped onto the
    axis first).  The step is halved up to ``max_backtracks`` times whenever
    |Q| fails to decrease; seeds from the lowest index overshoot otherwise.
    """
    cfg = cfg or RefineConfig()
    z = seed.z_predicted if seed.form is Form.Q else seed.z_predicted / 5.0 ** 0.2
    if abs(z) > cfg.max_abs_z:
        raise SeedOutOfRange(
            f"|z| = {abs(z):.3f} exceeds the feasible range {cfg.max_abs_z}; "
            "raise max_abs_z (and consider residual_mode='rel') for larger z")
    quad = cfg.quadrature

    def tol_at(z_val: float) -> float:
        if cfg.residual_mode == "rel":
            return cfg.residual_tol * axis_envelope(z_val)
        return cfg.residual_tol

    g, gp = _q_axis(z, quad)
    for it in range(cfg.max_iterations + 1):
        if abs(g) < tol_at(z):
            return RefinedZero(z, seed.m, seed.branch, abs(g), it)
        if it == cfg.max_iterations:
            break
        if gp == 0.0 or not math.isfinite(gp):
            raise NoConvergence(f"vanishing derivative at z = {z:.6f}")
        z, (g, gp) = _line_search(lambda t: _q_axis(t, quad), z, -g / gp, abs(g),
                                  cfg.max_backtracks)
    raise NoConvergence(
        f"residual {abs(g):.3e} after {cfg.max_iterations} iterations from seed "
        f"{seed.z_predicted:.6f}")


def _q_and_jacobian(y: float, z: float, quad: QuadratureConfig):
    """Value and 2x2 Jacobian of (Re Q, Im Q) with respect to (y, z).

    On the axis (y exactly 0) the components that vanish by the y -> -y
    conjugation symmetry are zeroed explicitly, which makes the axis an
    exactly invariant set of the Newton iteration.
    """
    m0, m1, m2 = _integrate(0.0, y, z, (0, 1, 2), quad)
    q = m0.value
    dq_dy = 0.5j * m2.value
    dq_dz = 1j * m1.value
    if y == 0.0:
        q = complex(q.real, 0.0)
        dq_dy = complex(0.0, dq_dy.imag)
        dq_dz = complex(dq_dz.real, 0.0)
    f = np.array([q.real, q.imag])
    jac = np.array([[dq_dy.real, dq_dz.real],
                    [dq_dy.imag, dq_dz.imag]])
    return q, f, jac


def axis_confinement_scan(y0: float, branch: Branch, m: int,
                          cfg: RefineConfig | None = None) -> AxisConfinementRecord:
    """Run 2D Newton on (Re Q, Im Q) seeded off-axis at a predicted zero.

    Non-convergence is data, not an error: the record carries where the
    iteration ended and the modulus there.  A trial point where the
    quadrature misses its tolerance ends the run at the last accepted
    iterate.  A non-finite ``y0`` raises ``ValueError``, and a seed outside
    the box |y| <= 10, |z| <= 14, where an iterate counts as divergent,
    raises ``SeedOutOfRange`` before any evaluation.
    """
    if not math.isfinite(y0):
        raise ValueError(f"y0 must be finite, got {y0!r}")
    cfg = cfg or RefineConfig()
    seed_z = predicted_zero(branch, m).z_predicted
    if abs(y0) > _DIVERGENCE_Y or abs(seed_z) > _DIVERGENCE_Z:
        raise SeedOutOfRange(
            f"seed (y, z) = ({y0:.6g}, {seed_z:.6g}) lies outside the box "
            f"|y| <= {_DIVERGENCE_Y:g}, |z| <= {_DIVERGENCE_Z:g} of 2D Newton")
    quad = cfg.quadrature
    point = np.array([y0, seed_z])      # (y, z)
    q, f, jac = _q_and_jacobian(*point, quad)
    for it in range(cfg.max_iterations + 1):
        converged = abs(q) < cfg.residual_tol
        if it == cfg.max_iterations and not converged:
            break
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        if converged:
            # one extra Newton step once converged; quadratic contraction pulls
            # final_y to rounding level instead of leaving it at ~sqrt(tol)
            q2, _, _ = _q_and_jacobian(*(point + delta), quad)
            if abs(q2) <= abs(q):
                point, q = point + delta, q2
            break
        try:
            point, (q, f, jac) = _line_search(lambda p: _q_and_jacobian(*p, quad), point,
                                              delta, abs(q), cfg.max_backtracks)
        except ToleranceNotReached:
            break                       # a trial point the quadrature cannot evaluate
        if abs(point[0]) > _DIVERGENCE_Y or abs(point[1]) > _DIVERGENCE_Z:
            return AxisConfinementRecord(y0, seed_z, False, *point.tolist(), abs(q), it + 1)
    return AxisConfinementRecord(y0, seed_z, converged, *point.tolist(), abs(q), it)


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """|Q| sampled on a rectangle of the (y, z) plane, as read-only arrays."""

    y_values: np.ndarray
    z_values: np.ndarray
    abs_q: np.ndarray     # abs_q[i, j] at (y_values[i], z_values[j])
    flags: np.ndarray     # 'ok' or 'tol_miss' per cell

    def __post_init__(self):
        for a in (self.y_values, self.z_values, self.abs_q, self.flags):
            a.flags.writeable = False

    def _finite_argmin(self):
        """(i, j) of the smallest finite |Q|; ``ValueError`` if no cell is finite."""
        finite = np.isfinite(self.abs_q)
        if not finite.any():
            raise ValueError("no cell of the scan has a finite |Q|")
        return np.unravel_index(np.argmin(np.where(finite, self.abs_q, np.inf)),
                                self.abs_q.shape)

    @property
    def min_abs_q(self) -> float:
        """The smallest finite |Q| (``ValueError`` if there is none)."""
        return float(self.abs_q[self._finite_argmin()])

    def argmin_cell(self):
        """(y, z) of the smallest finite |Q| (``ValueError`` if there is none)."""
        i, j = self._finite_argmin()
        return float(self.y_values[i]), float(self.z_values[j])

    @property
    def flagged_cells(self) -> int:
        return int(np.count_nonzero(self.flags != "ok"))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "z", "abs_q", "flag"])
            for i, y in enumerate(self.y_values):
                for j, z in enumerate(self.z_values):
                    writer.writerow([repr(float(y)), repr(float(z)),
                                     repr(float(self.abs_q[i, j])), str(self.flags[i, j])])

    def to_json_dict(self) -> dict:
        """The grid as RFC 8259 JSON values: a non-finite |Q| becomes None."""
        return {
            "y_values": self.y_values.tolist(),
            "z_values": self.z_values.tolist(),
            "abs_q": [[v if math.isfinite(v) else None for v in row]
                      for row in self.abs_q.tolist()],
            "flags": self.flags.tolist(),
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def modulus_scan(y_range, z_range, ny: int, nz: int,
                 cfg: QuadratureConfig | None = None) -> ScanGrid:
    """Evaluate |Q(0, y, z)| on a regular grid in one kernel call, which
    sizes its own passes over the cells in row-major order.

    Cells where the quadrature budget runs out are flagged 'tol_miss' and
    keep their best-effort value; the other cells are unaffected.
    """
    if not all(math.isfinite(v) for v in (*y_range, *z_range)):
        raise ValueError("scan ranges must be finite")
    if ny < 1 or nz < 1:
        raise ValueError("resolution must be at least 1 point per axis")
    if ny == 1 and y_range[0] != y_range[1]:
        raise ValueError("single-row scan needs a degenerate y range a:a")
    if nz == 1 and z_range[0] != z_range[1]:
        raise ValueError("single-column scan needs a degenerate z range a:a")
    cfg = cfg or QuadratureConfig()
    ys = np.linspace(y_range[0], y_range[1], ny)
    zs = np.linspace(z_range[0], z_range[1], nz)
    y_cells, z_cells = np.repeat(ys, nz), np.tile(zs, ny)
    values, _, _, ok = _integrate_points(np.zeros_like(y_cells), y_cells, z_cells, (0,), cfg)
    return ScanGrid(ys, zs, np.abs(values[:, 0]).reshape(ny, nz),
                    np.where(ok, "ok", "tol_miss").reshape(ny, nz))
