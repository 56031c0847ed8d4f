"""The two workloads that call the library in the benchmark's own process.

Each workload turns a ``random.Random`` into a list of op specs (plain
tuples), runs one op through the public functions of ``swallowtail`` and
checks one op's result against references that use no quadrature.  Library
functions are always looked up through their module (``zeros.modulus_scan``)
so that the traced run can swap them for span-recording wrappers.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import swallowtail.asymptotics as asymptotics
import swallowtail.saddle as saddle
import swallowtail.zeros as zeros
from swallowtail.errors import PathStalled
from swallowtail.oracle import QuadratureConfig
from swallowtail.saddle import Direction, Regime, ScaledParams, ZSign

from cli_workload import CAUSTIC_BAND, CAUSTIC_GAMMA
from reference import SeriesReference


@functools.cache
def _reference():
    """The mpmath series reference, set up on first use."""
    return SeriesReference()


def _dealt(deck, rng, n):
    """n items from repeated shuffles of ``deck``: every item equally often."""
    out = []
    while len(out) < n:
        hand = list(deck)
        rng.shuffle(hand)
        out.extend(hand[:n - len(out)])
    return out


def _stratified(rng, lo, hi, n):
    """n values in [lo, hi), one per equal-width stratum, in shuffled order."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------- scan

# A 400-cell op lasts ~0.25 s.  On the 2-core shared host the benchmark was
# tuned on, slow bursts last 0.2 to 1.5 s; with ops that long, the ten ops
# beyond the tail percentile are not just the ones one burst happened to hit.
SCAN_SHAPE = (20, 20)
SCAN_Y = (0.0, 1.0)
SCAN_Z = (-24.0, 16.0)
SCAN_DY = 0.1
SCAN_DZ = 36.0
SCAN_TOL = 1e-8


class Scan:
    """One serial ``modulus_scan`` at tol 1e-8 on a seeded 20 x 20 patch.

    Every patch spans 36 of the 40 z units, so each op mixes 16-panel cells
    near z = 0 with the costlier large -z and large +z cells.
    """

    name = "scan"
    ops_per_second = 4.5

    def generate(self, rng, n):
        ny, nz = SCAN_SHAPE
        ops = []
        for _ in range(n):
            y0 = rng.uniform(SCAN_Y[0], SCAN_Y[1] - SCAN_DY)
            z0 = rng.uniform(SCAN_Z[0], SCAN_Z[1] - SCAN_DZ)
            sample = (rng.randrange(ny), rng.randrange(nz))
            ops.append(((y0, y0 + SCAN_DY), (z0, z0 + SCAN_DZ), sample))
        return ops

    def run(self, op):
        y_range, z_range, _ = op
        return zeros.modulus_scan(y_range, z_range, *SCAN_SHAPE, QuadratureConfig(SCAN_TOL))

    def check(self, op, grid):
        ny, nz = SCAN_SHAPE
        if not isinstance(grid, zeros.ScanGrid):
            return [f"scan {op[:2]}: {grid!r}"]
        if len(grid.y_values) != ny or len(grid.z_values) != nz:
            return ["grid has the wrong shape"]
        failures = []
        values = [v for row in grid.abs_q for v in row]
        if not all(math.isfinite(v) and v >= 0.0 for v in values):
            failures.append("non-finite or negative |Q| in grid")
        missed = sum(1 for row in grid.flags for f in row if f != "ok")
        if missed:
            failures.append(f"{missed} cells flagged tol_miss")
        i, j = op[2]
        y, z = grid.y_values[i], grid.z_values[j]
        err = abs(grid.abs_q[i][j] - abs(_reference().q(y, z)))
        if not err <= SCAN_TOL:
            failures.append(f"|Q| at (y={y:.6g}, z={z:.6g}) off by {err:.2e} > tol {SCAN_TOL:.0e}")
        return failures


# ---------------------------------------------------------------- geometry

GEOMETRY_GAMMA = (0.0, 2.5)   # crosses the caustic CAUSTIC_GAMMA = 1.755
GEOMETRY_LAMBDA = (1.0, 200.0)
# Triples per op.  One triple takes ~35 ms, shorter than the slow bursts
# (0.2 to 1.5 s) of a 2-core shared host; with single-triple ops those bursts
# set the tail.  Eight make an op of ~0.3 s, like a scan op.
GEOMETRY_BATCH = 8
CUTOFF_RADIUS = 8.0      # trace_steepest default
VALLEY_ANGLE_TOL = 0.05  # rad, terminal point to its valley centre at r = 8
ROOT_TOL = 1e-10
PAIR_TOL = 1e-9
LEVEL_TOL = 1e-8


class PathEnds(NamedTuple):
    saddle_index: int
    n_points: int
    start: complex
    end: complex
    terminal_sector: int


def _phase(t, gamma, sigma):
    return t ** 5 / 5.0 + 0.5 * gamma * t * t + sigma * t


class Geometry:
    """Saddles, the regime's asymptotics and all 8 steepest-descent branches
    for each of 8 seeded (lambda, gamma, sign z), 4 of each sign; no quadrature."""

    name = "geometry"
    ops_per_second = 3.0

    def generate(self, rng, n):
        signs = _dealt((ZSign.POSITIVE, ZSign.NEGATIVE), rng, n * GEOMETRY_BATCH)
        gammas = {sign: iter(_stratified(rng, *GEOMETRY_GAMMA, signs.count(sign)))
                  for sign in ZSign}
        triples = [(rng.uniform(*GEOMETRY_LAMBDA), next(gammas[sign]), sign) for sign in signs]
        return [tuple(triples[i:i + GEOMETRY_BATCH])
                for i in range(0, len(triples), GEOMETRY_BATCH)]

    def run(self, op):
        return [self._analyse(triple) for triple in op]

    def keep(self, outs):
        """Drop the path polylines once an op is timed; the check needs only
        their ends, and keeping 8 x ~800 points per triple would set peak RSS."""
        if isinstance(outs, list):
            for out in outs:
                out["paths"] = {key: path if isinstance(path, PathStalled) else PathEnds(
                    path.saddle_index, len(path.points), path.points[0], path.points[-1],
                    path.terminal_sector) for key, path in out["paths"].items()}
        return outs

    def check(self, op, outs):
        if not isinstance(outs, list):
            return [f"geometry op {op}: {outs!r}"]
        return [reason for triple, out in zip(op, outs)
                for reason in self._check_triple(triple, out)]

    @staticmethod
    def _analyse(triple):
        sp = ScaledParams(*triple)
        sset = saddle.saddles(sp)
        out = {"saddles": sset}
        if sset.regime is Regime.DEGENERATE:
            pass
        elif sp.sign_z is ZSign.NEGATIVE:
            out["contributions"] = asymptotics.saddle_contributions(sp, sset)
            out["leading"] = asymptotics.leading_from_contributions(sp)
            out["obstruction"] = asymptotics.below_caustic_obstruction(sp)
        elif sset.regime is Regime.TWO_CONJUGATE_PAIRS:
            out["contributions"] = asymptotics.saddle_contributions(sp, sset)
            out["leading"] = asymptotics.leading_from_contributions(sp)
            out["gap"] = asymptotics.dominance_gap(sp)
        else:
            out["obstruction"] = asymptotics.below_caustic_obstruction(sp)
        paths = {}
        for k in range(4):
            for direction in Direction:
                try:
                    paths[k, direction] = saddle.trace_steepest(sp, k, direction)
                except PathStalled as exc:
                    paths[k, direction] = exc
        out["paths"] = paths
        return out

    def _check_triple(self, triple, out):
        lam, gamma, sign = triple
        sigma = 1.0 if sign is ZSign.POSITIVE else -1.0
        near_caustic = sign is ZSign.POSITIVE and abs(gamma - CAUSTIC_GAMMA) <= CAUSTIC_BAND
        where = f"gamma={gamma:.6f} sign={sign.name}"
        failures = []
        sset = out["saddles"]
        for t in sset.roots:
            if not abs(t ** 4 + gamma * t + sigma) <= ROOT_TOL * max(1.0, abs(t) ** 4):
                failures.append(f"{where}: |f'(t)| too large at saddle {t}")
        expected = (Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR
                    if sign is ZSign.NEGATIVE or gamma > CAUSTIC_GAMMA else Regime.TWO_CONJUGATE_PAIRS)
        if sset.regime is not expected and not near_caustic:
            failures.append(f"{where}: regime {sset.regime.value}, expected {expected.value}")
        if sset.regime is Regime.TWO_CONJUGATE_PAIRS:
            p2 = 2.0 * sset.p ** 2
            if not abs(sset.q1 ** 2 + sset.q2 ** 2 - p2) <= PAIR_TOL * max(1.0, p2):
                failures.append(f"{where}: q1^2 + q2^2 != 2 p^2")
        if "contributions" in out:
            n_expected = 3 if sign is ZSign.NEGATIVE else 2
            terms = out["contributions"]
            if len(terms) != n_expected or not all(cmath.isfinite(c.amplitude) for c in terms):
                failures.append(f"{where}: bad saddle contributions")
            if not cmath.isfinite(out["leading"]):
                failures.append(f"{where}: leading term not finite")
        if gamma > 0.0 and "gap" in out and not out["gap"] > 0.0:
            failures.append(f"{where}: dominance gap {out['gap']} not positive")
        if gamma > 0.0 and "obstruction" in out and not out["obstruction"].cancellation_blocked:
            failures.append(f"{where}: real-pair cancellation not blocked")
        for (k, direction), path in out["paths"].items():
            label = f"{where} k={k} {direction.value}"
            if isinstance(path, PathStalled):
                if not near_caustic:
                    failures.append(f"{label}: stalled ({path})")
                continue
            failures.extend(self._check_path(label, path, sset.roots[k], k, gamma, sigma))
        return failures

    @staticmethod
    def _check_path(label, path, root, k, gamma, sigma):
        if not isinstance(path, PathEnds) or path.saddle_index != k or path.n_points < 2:
            return [f"{label}: malformed path"]
        if path.start != root:
            return [f"{label}: path does not start at its saddle"]
        end = path.end
        if not abs(end) >= CUTOFF_RADIUS:
            return [f"{label}: path ends inside the cutoff radius"]
        failures = []
        valley = math.pi / 10.0 + 2.0 * math.pi * path.terminal_sector / 5.0
        off = abs((cmath.phase(end) - valley + math.pi) % (2.0 * math.pi) - math.pi)
        if not off <= VALLEY_ANGLE_TOL:
            failures.append(f"{label}: ends {off:.3f} rad from valley {path.terminal_sector}")
        f0 = _phase(root, gamma, sigma)
        f_end = _phase(end, gamma, sigma)
        if not abs((f_end - f0).real) <= LEVEL_TOL * max(1.0, abs(f_end)):
            failures.append(f"{label}: end point left the constant-phase curve")
        if not (f_end - f0).imag > 0.0:
            failures.append(f"{label}: path does not descend")
        return failures


WORKLOADS = {w.name: w for w in (Scan(), Geometry())}
