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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .asymptotics import Branch, ZeroPrediction, axis_envelope, predicted_zeros
from .errors import NoConvergence, SeedOutOfRange, ToleranceNotReached
from .oracle import EvalResult, QuadratureConfig, _integrate, eval_q
from .params import Form, Params

# Beyond these bounds a 2D Newton iterate is recorded as divergent.
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


@dataclass(frozen=True)
class RefineConfig:
    """Knobs for Newton refinement (1D on-axis and 2D confinement runs).

    ``residual_mode``: with "abs" the iteration stops at |Q| < residual_tol;
    with "rel" the tolerance is scaled by the local oscillation envelope,
    which keeps the convergence test meaningful at large positive z where
    the whole function is exponentially small.
    """

    residual_tol: float = 1e-9
    max_iterations: int = 25
    max_backtracks: int = 6
    max_abs_z: float = 12.0
    residual_mode: str = "abs"
    quadrature: QuadratureConfig = field(
        default_factory=lambda: QuadratureConfig(target_abs_tol=1e-11))

    def __post_init__(self):
        if self.residual_mode not in ("abs", "rel"):
            raise ValueError("residual_mode must be 'abs' or 'rel'")


def _q_axis(z: float, cfg: QuadratureConfig):
    """Q and dQ/dz on the axis, where both are real, from one kernel call."""
    q, m1 = _integrate(0.0, 0.0, z, (0, 1), cfg)
    return q.value.real, (1j * m1.value).real


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
    for it in range(1, cfg.max_iterations + 1):
        if abs(g) < tol_at(z):
            return RefinedZero(z, seed.m, seed.branch, abs(g), it - 1)
        if gp == 0.0 or not math.isfinite(gp):
            raise NoConvergence(f"vanishing derivative at z = {z:.6f}")
        step = -g / gp
        z_new = z + step
        g_new, gp_new = _q_axis(z_new, quad)
        for _ in range(cfg.max_backtracks):
            if abs(g_new) < abs(g):
                break
            step *= 0.5
            z_new = z + step
            g_new, gp_new = _q_axis(z_new, quad)
        z, g, gp = z_new, g_new, gp_new
    if abs(g) < tol_at(z):
        return RefinedZero(z, seed.m, seed.branch, abs(g), cfg.max_iterations)
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
    iteration ended and the modulus there.
    """
    cfg = cfg or RefineConfig()
    seed_z = predicted_zeros(branch, m)[m].z_predicted
    quad = cfg.quadrature

    def polish(y, z, q, f, jac):
        # one extra Newton step once converged; quadratic contraction pulls
        # final_y to rounding level instead of leaving it at ~sqrt(tol)
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return y, z, q
        if not np.all(np.isfinite(delta)):
            return y, z, q
        q2, _, _ = _q_and_jacobian(y + delta[0], z + delta[1], quad)
        if abs(q2) <= abs(q):
            return y + delta[0], z + delta[1], q2
        return y, z, q

    y, z = float(y0), seed_z
    q, f, jac = _q_and_jacobian(y, z, quad)
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        if abs(q) < cfg.residual_tol:
            y, z, q = polish(y, z, q, f, jac)
            return AxisConfinementRecord(y0, seed_z, True, y, z, abs(q), it - 1)
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return AxisConfinementRecord(y0, seed_z, False, y, z, abs(q), it - 1)
        if not np.all(np.isfinite(delta)):
            return AxisConfinementRecord(y0, seed_z, False, y, z, abs(q), it - 1)
        scale = 1.0
        y_new, z_new = y + delta[0], z + delta[1]
        q_new, f_new, jac_new = _q_and_jacobian(y_new, z_new, quad)
        for _ in range(cfg.max_backtracks):
            if abs(q_new) < abs(q):
                break
            scale *= 0.5
            y_new, z_new = y + scale * delta[0], z + scale * delta[1]
            q_new, f_new, jac_new = _q_and_jacobian(y_new, z_new, quad)
        y, z, q, f, jac = y_new, z_new, q_new, f_new, jac_new
        if abs(y) > _DIVERGENCE_Y or abs(z) > _DIVERGENCE_Z:
            return AxisConfinementRecord(y0, seed_z, False, y, z, abs(q), it)
    converged = abs(q) < cfg.residual_tol
    if converged:
        y, z, q = polish(y, z, q, f, jac)
    return AxisConfinementRecord(y0, seed_z, converged, y, z, abs(q), it)


@dataclass(frozen=True)
class ScanGrid:
    """|Q| sampled on a rectangle of the (y, z) plane."""

    y_values: tuple
    z_values: tuple
    abs_q: tuple          # row-major: abs_q[i][j] at (y_values[i], z_values[j])
    flags: tuple          # 'ok' or 'tol_miss' per cell

    @property
    def min_abs_q(self) -> float:
        return min(min(row) for row in self.abs_q)

    def argmin_cell(self):
        best = (0, 0)
        best_v = self.abs_q[0][0]
        for i, row in enumerate(self.abs_q):
            for j, v in enumerate(row):
                if v < best_v:
                    best_v, best = v, (i, j)
        return self.y_values[best[0]], self.z_values[best[1]]

    @property
    def flagged_cells(self) -> int:
        return sum(1 for row in self.flags for f in row if f != "ok")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "z", "abs_q", "flag"])
            for i, y in enumerate(self.y_values):
                for j, z in enumerate(self.z_values):
                    writer.writerow([repr(y), repr(z), repr(self.abs_q[i][j]),
                                     self.flags[i][j]])

    def to_json_dict(self) -> dict:
        return {
            "y_values": list(self.y_values),
            "z_values": list(self.z_values),
            "abs_q": [list(row) for row in self.abs_q],
            "flags": [list(row) for row in self.flags],
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def _scan_cell(y: float, z: float, cfg: QuadratureConfig):
    try:
        r = eval_q(Params(0.0, y, z), cfg)
        return abs(r.value), "ok"
    except ToleranceNotReached as exc:
        partial: EvalResult | None = exc.partial
        return (abs(partial.value) if partial is not None else float("nan")), "tol_miss"


def modulus_scan(y_range, z_range, ny: int, nz: int,
                 cfg: QuadratureConfig | None = None, workers: int = 1) -> ScanGrid:
    """Evaluate |Q(0, y, z)| on a regular grid.

    Cells where the quadrature budget runs out are flagged 'tol_miss' and
    keep their best-effort value.  With workers > 1 the (independent) cell
    evaluations are distributed over a process pool.
    """
    if ny < 1 or nz < 1:
        raise ValueError("resolution must be at least 1 point per axis")
    if ny == 1 and y_range[0] != y_range[1]:
        raise ValueError("single-row scan needs a degenerate y range a:a")
    if nz == 1 and z_range[0] != z_range[1]:
        raise ValueError("single-column scan needs a degenerate z range a:a")
    cfg = cfg or QuadratureConfig()
    ys = np.linspace(y_range[0], y_range[1], ny)
    zs = np.linspace(z_range[0], z_range[1], nz)
    cell_y, cell_z = (g.ravel().tolist() for g in np.meshgrid(ys, zs, indexing="ij"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_scan_cell, cell_y, cell_z, repeat(cfg),
                                  chunksize=max(1, len(cell_y) // (4 * workers))))
    else:
        cells = list(map(_scan_cell, cell_y, cell_z, repeat(cfg)))
    abs_rows = tuple(tuple(cells[i * nz + j][0] for j in range(nz)) for i in range(ny))
    flag_rows = tuple(tuple(cells[i * nz + j][1] for j in range(nz)) for i in range(ny))
    return ScanGrid(tuple(float(v) for v in ys), tuple(float(v) for v in zs),
                    abs_rows, flag_rows)
