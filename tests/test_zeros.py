import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from swallowtail import (
    Branch,
    Form,
    NoConvergence,
    Params,
    QuadratureConfig,
    RefineConfig,
    SeedOutOfRange,
    ToleranceNotReached,
    ZeroPrediction,
    axis_confinement_scan,
    axis_envelope,
    eval_q,
    modulus_scan,
    predicted_zeros,
    refine_on_axis,
)
import swallowtail.oracle as oracle
import swallowtail.zeros as zeros
from swallowtail.zeros import AxisConfinementRecord, RefinedZero, ScanGrid
from swallowtail.oracle import _integrate, _integrate_points
from conftest import q_axis_series

# Certified axis zeros, cross-checked against the quadrature-free series
# oracle (root of q_axis_series to 12 digits).
TRUE_ZEROS = {
    (Branch.POSITIVE_Z, 0): 2.754254274850,
    (Branch.POSITIVE_Z, 1): 5.830317416013,
    (Branch.NEGATIVE_Z, 0): -2.473282048212,
    (Branch.NEGATIVE_Z, 1): -4.700016753015,
    (Branch.NEGATIVE_Z, 2): -6.726017224211,
}


def test_true_zeros_are_series_roots():
    # the frozen table really does hold roots of the independent series
    for (_, _), z in TRUE_ZEROS.items():
        assert abs(q_axis_series(z).real) < 1e-9


@pytest.mark.parametrize("branch,m", sorted(TRUE_ZEROS, key=str))
def test_refine_lands_on_true_zero(branch, m):
    seed = predicted_zeros(branch, m)[m]
    refined = refine_on_axis(seed)
    assert refined.residual < 1e-9
    assert refined.z == pytest.approx(TRUE_ZEROS[(branch, m)], abs=1e-6)
    assert refined.iterations <= 25
    assert refined.m == m and refined.branch is branch


def test_seed_gap_shrinks_with_m():
    gaps = []
    for m in range(3):
        seed = predicted_zeros(Branch.NEGATIVE_Z, m)[m]
        refined = refine_on_axis(seed)
        gaps.append(abs(refined.z - seed.z_predicted))
    assert gaps[0] > gaps[1] > gaps[2]


def test_refine_accepts_s_normalized_seed():
    from swallowtail import Form
    seed_q = predicted_zeros(Branch.POSITIVE_Z, 0)[0]
    seed_s = predicted_zeros(Branch.POSITIVE_Z, 0, Form.S)[0]
    a = refine_on_axis(seed_q)
    b = refine_on_axis(seed_s)
    assert b.z == pytest.approx(a.z, abs=1e-9)   # both refine in Q coordinates


def test_seed_out_of_range():
    with pytest.raises(SeedOutOfRange):
        refine_on_axis(ZeroPrediction(Branch.NEGATIVE_Z, 9, -13.0))


def test_no_convergence_on_impossible_residual():
    cfg = RefineConfig(residual_tol=1e-17)
    with pytest.raises(NoConvergence):
        refine_on_axis(predicted_zeros(Branch.POSITIVE_Z, 0)[0], cfg)


def test_vanishing_derivative_stops_refinement(monkeypatch):
    monkeypatch.setattr(zeros, "_q_axis", lambda z, quad: (1e-3, 0.0))
    with pytest.raises(NoConvergence, match="vanishing derivative at z = -2.372996"):
        refine_on_axis(predicted_zeros(Branch.NEGATIVE_Z, 0)[0])


def test_refined_residual_certified_by_tight_oracle():
    refined = refine_on_axis(predicted_zeros(Branch.NEGATIVE_Z, 0)[0])
    r = eval_q(Params(0.0, 0.0, refined.z), QuadratureConfig(target_abs_tol=1e-11))
    assert abs(r.value) < 1e-9


def _extremum_z(branch: Branch, j: int) -> float:
    # cosine-argument extrema of the leading form: the offsets by +-pi/2
    # around each predicted zero
    if branch is Branch.POSITIVE_Z:
        lam = (5.0 * math.sqrt(2.0) / 4.0) * (math.pi / 8.0 + j * math.pi)
        return lam ** 0.8
    lam = 1.25 * (math.pi / 4.0 + j * math.pi)
    return -(lam ** 0.8)


@pytest.mark.parametrize("branch,m", sorted(TRUE_ZEROS, key=str))
def test_refined_zeros_interlace_predicted_extrema(branch, m):
    refined = refine_on_axis(predicted_zeros(branch, m)[m])
    lo = abs(_extremum_z(branch, m))
    hi = abs(_extremum_z(branch, m + 1))
    assert lo < abs(refined.z) < hi


def test_relative_residual_mode():
    from swallowtail import axis_envelope
    cfg = RefineConfig(residual_tol=1e-6, residual_mode="rel")
    refined = refine_on_axis(predicted_zeros(Branch.POSITIVE_Z, 2)[2], cfg)
    assert refined.residual < 1e-6 * axis_envelope(refined.z)
    assert refined.z == pytest.approx(8.540878, abs=1e-3)


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(residual_mode="bogus")
    for bad in ({"residual_tol": math.nan}, {"residual_tol": math.inf},
                {"residual_tol": 0.0}, {"residual_tol": -1.0},
                {"max_abs_z": math.nan}, {"max_abs_z": 0.0}, {"max_abs_z": -12.0},
                {"max_iterations": 0}, {"max_iterations": math.nan},
                {"max_iterations": math.inf}, {"max_iterations": 2.5},
                {"max_iterations": True}):
        with pytest.raises(ValueError):
            RefineConfig(**bad)
    assert RefineConfig(max_iterations=np.int64(1)).max_iterations == 1


# ------------------------------------------------------- axis confinement


@pytest.mark.parametrize("branch", list(Branch))
def test_confinement_returns_to_axis(branch):
    rec = axis_confinement_scan(0.3, branch, 0)
    assert rec.converged
    assert abs(rec.final_y) < 1e-6
    assert rec.final_modulus < 1e-9
    assert rec.final_z == pytest.approx(TRUE_ZEROS[(branch, 0)], abs=1e-6)


def test_confinement_axis_is_exactly_invariant():
    rec = axis_confinement_scan(0.0, Branch.POSITIVE_Z, 0)
    assert rec.converged
    assert rec.final_y == 0.0


@pytest.mark.parametrize("y0", [0.3, 0.0])
def test_confinement_coordinates_are_plain_floats(y0):
    # after Newton steps as at the seed, the record holds Python floats
    rec = axis_confinement_scan(y0, Branch.POSITIVE_Z, 0)
    assert rec.iterations > 0
    assert type(rec.final_y) is float and type(rec.final_z) is float


@pytest.mark.parametrize("y0", [math.nan, math.inf, -math.inf])
def test_confinement_rejects_non_finite_seed(y0):
    with pytest.raises(ValueError, match="y0 must be finite"):
        axis_confinement_scan(y0, Branch.POSITIVE_Z, 0)


@pytest.mark.parametrize("y0,branch,m", [
    (0.3, Branch.POSITIVE_Z, 12),        # seed z = 29.97, once certified at y = 0.3
    (0.3, Branch.POSITIVE_Z, 8),         # seed z = 22.09, once certified at y = 0.041
    (0.3, Branch.POSITIVE_Z, 10 ** 12),  # seed z = 1.57e10, where |Q| reads 0.0
    (0.3, Branch.NEGATIVE_Z, 9),         # seed z = -18.47, once divergent after one step
    (10.5, Branch.POSITIVE_Z, 0),
    (-10.5, Branch.NEGATIVE_Z, 0),
])
def test_confinement_rejects_seed_outside_the_box(monkeypatch, y0, branch, m):
    # an iterate outside |y| <= 10, |z| <= 14 counts as divergent, so a seed
    # there is refused before any evaluation
    def no_evaluation(*args):
        raise AssertionError("evaluated a seed outside the box")

    monkeypatch.setattr(zeros, "_integrate", no_evaluation)
    with pytest.raises(SeedOutOfRange, match="outside the box"):
        axis_confinement_scan(y0, branch, m)


@pytest.mark.parametrize("branch,m", [(Branch.POSITIVE_Z, 4), (Branch.NEGATIVE_Z, 6)])
def test_confinement_runs_the_outermost_seeds_inside_the_box(branch, m):
    rec = axis_confinement_scan(0.3, branch, m)
    assert abs(rec.seed_z) <= 14.0 and rec.iterations > 0


def test_confinement_record_shape_on_divergence():
    # a far-off seed with a tiny iteration budget ends as data, not an error
    cfg = RefineConfig(max_iterations=1)
    rec = axis_confinement_scan(3.0, Branch.POSITIVE_Z, 1, cfg)
    assert isinstance(rec.converged, bool)
    assert rec.seed_y == 3.0
    if rec.converged:
        assert rec.final_modulus < cfg.residual_tol


@pytest.mark.parametrize("entry", [0.0, math.nan])
def test_confinement_stops_where_newton_has_no_step(monkeypatch, entry):
    # a singular Jacobian makes the solve raise, a NaN one makes its step
    # non-finite: either run ends at its seed as a non-converged record
    jac = np.full((2, 2), entry)
    monkeypatch.setattr(zeros, "_q_and_jacobian",
                        lambda y, z, quad: (1e-3 + 0j, np.array([1e-3, 0.0]), jac))
    rec = axis_confinement_scan(0.3, Branch.POSITIVE_Z, 0)
    assert not rec.converged
    assert (rec.final_y, rec.final_z) == (rec.seed_y, rec.seed_z)
    assert rec.iterations == 0


@pytest.mark.parametrize("branch,accepted", [(Branch.POSITIVE_Z, 0), (Branch.NEGATIVE_Z, 3)])
def test_confinement_records_a_quadrature_miss(monkeypatch, branch, accepted):
    # from y0 = 5 a full Newton step lands far out (near (-35.5, -20.4) on the
    # positive branch), where the quadrature misses its tolerance; the run
    # ends there as a non-converged record at the last accepted iterate
    points = []

    def recording(x, y, z, ks, cfg):
        result = _integrate(x, y, z, ks, cfg)
        points.append((y, z))
        return result

    monkeypatch.setattr(zeros, "_integrate", recording)
    rec = axis_confinement_scan(5.0, branch, 0)
    assert not rec.converged
    assert rec.iterations == accepted
    assert (rec.final_y, rec.final_z) == points[-1]


def test_confinement_ends_where_the_kernel_overflows():
    # the first Newton trial from (9.5, 2.706) is (332.3, 276.1), where the
    # integrand overflows: the run ends at its seed as data
    rec = axis_confinement_scan(9.5, Branch.POSITIVE_Z, 0)
    assert not rec.converged and rec.iterations == 0
    assert (rec.final_y, rec.final_z) == (rec.seed_y, rec.seed_z)


# ------------------------------------------------------- modulus scans


def test_scan_smoke_corners(cfg_fast):
    grid = modulus_scan((0.0, 1.0), (1.0, 2.0), 2, 2, cfg_fast)
    assert len(grid.y_values) == 2 and len(grid.z_values) == 2
    vals = [v for row in grid.abs_q for v in row]
    assert all(math.isfinite(v) for v in vals)
    assert grid.flagged_cells == 0


def test_scan_modulus_even_in_y(cfg_fast):
    grid = modulus_scan((-1.0, 1.0), (0.5, 2.5), 5, 3, cfg_fast)
    for j in range(3):
        assert grid.abs_q[0][j] == pytest.approx(grid.abs_q[4][j], abs=1e-7)
        assert grid.abs_q[1][j] == pytest.approx(grid.abs_q[3][j], abs=1e-7)


def test_axis_trace_brackets_first_zero(cfg_fast):
    grid = modulus_scan((0.0, 0.0), (2.0, 3.0), 1, 101, cfg_fast)
    j_min = min(range(101), key=lambda j: grid.abs_q[0][j])
    assert 2.7 < grid.z_values[j_min] < 2.8
    # sign change of the (real) axis values brackets the dip
    lo = eval_q(Params(0.0, 0.0, 2.7), cfg_fast).value.real
    hi = eval_q(Params(0.0, 0.0, 2.8), cfg_fast).value.real
    assert lo > 0.0 > hi


def test_scan_flags_tolerance_misses():
    cfg = QuadratureConfig(target_abs_tol=1e-12, max_subdivisions=8)
    grid = modulus_scan((0.0, 0.0), (50.0, 50.0), 1, 1, cfg)
    assert grid.flags[0][0] == "tol_miss"
    assert grid.flagged_cells == 1
    assert math.isfinite(grid.abs_q[0][0])


def test_scan_csv_format(tmp_path, cfg_fast):
    grid = modulus_scan((0.0, 1.0), (1.0, 2.0), 3, 4, cfg_fast)
    out = tmp_path / "grid.csv"
    grid.to_csv(out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y", "z", "abs_q", "flag"]
    assert len(rows) == 1 + 3 * 4
    assert all(len(r) == 4 for r in rows[1:])
    assert all(r[3] == "ok" for r in rows[1:])
    # values round-trip through repr
    assert float(rows[1][2]) == grid.abs_q[0][0]


def test_scan_json_roundtrip(tmp_path, cfg_fast):
    grid = modulus_scan((0.0, 1.0), (1.0, 2.0), 2, 3, cfg_fast)
    out = tmp_path / "grid.json"
    grid.to_json(out)
    data = json.loads(out.read_text())
    assert data["y_values"] == list(grid.y_values)
    assert data["abs_q"][1][2] == grid.abs_q[1][2]
    assert data["flags"][0][0] == "ok"


def test_scan_isolates_a_tolerance_miss():
    # one kernel call per block of cells: a cell that runs out of panels
    # must not disturb the other cells of its block
    cfg = QuadratureConfig(target_abs_tol=1e-8, max_subdivisions=20)
    grid = modulus_scan((0.3, 0.3), (-24.0, 16.0), 1, 5, cfg)
    assert grid.flags[0].tolist() == ["tol_miss", "ok", "ok", "ok", "ok"]
    with pytest.raises(ToleranceNotReached) as info:
        eval_q(Params(0.0, 0.3, -24.0), cfg)
    assert grid.abs_q[0, 0] == np.abs(info.value.partial.value)
    for j, z in enumerate(grid.z_values[1:], start=1):
        assert grid.abs_q[0, j] == np.abs(eval_q(Params(0.0, 0.3, z), cfg).value)


def test_scan_grid_serialization_is_fixed(tmp_path):
    grid = ScanGrid(np.array([0.0, 0.5]), np.array([-1.0, 0.1 + 0.2]),
                    np.array([[0.1 + 0.2, 1e-300], [2.5, 7.0 / 3.0]]),
                    np.array([["ok", "tol_miss"], ["ok", "ok"]]))
    out = tmp_path / "grid.csv"
    grid.to_csv(out)
    assert out.read_bytes() == (
        b"y,z,abs_q,flag\r\n"
        b"0.0,-1.0,0.30000000000000004,ok\r\n"
        b"0.0,0.30000000000000004,1e-300,tol_miss\r\n"
        b"0.5,-1.0,2.5,ok\r\n"
        b"0.5,0.30000000000000004,2.3333333333333335,ok\r\n")
    out = tmp_path / "grid.json"
    grid.to_json(out)
    assert json.loads(out.read_text()) == {
        "y_values": [0.0, 0.5], "z_values": [-1.0, 0.30000000000000004],
        "abs_q": [[0.30000000000000004, 1e-300], [2.5, 2.3333333333333335]],
        "flags": [["ok", "tol_miss"], ["ok", "ok"]]}
    assert grid.min_abs_q == 1e-300 and grid.argmin_cell() == (0.0, 0.1 + 0.2)
    assert grid.flagged_cells == 1


def test_scan_grid_json_is_strict(tmp_path):
    # RFC 8259 has no NaN or Infinity: a non-finite |Q| is written as null,
    # and its flag still says tol_miss
    grid = ScanGrid(np.array([0.0, 0.5]), np.array([-2.0, 1.0]),
                    np.array([[math.nan, 0.5], [math.inf, 0.25]]),
                    np.array([["tol_miss", "ok"], ["tol_miss", "ok"]]))
    out = tmp_path / "grid.json"
    grid.to_json(out)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert json.loads(out.read_text(), parse_constant=reject) == {
        "y_values": [0.0, 0.5], "z_values": [-2.0, 1.0],
        "abs_q": [[None, 0.5], [None, 0.25]],
        "flags": [["tol_miss", "ok"], ["tol_miss", "ok"]]}


def test_scan_summary_takes_finite_cells_only():
    # a cell whose quadrature overflowed holds NaN or inf; the summary must
    # neither report it as the minimum nor point the argmin at it
    grid = ScanGrid(np.array([0.0, 0.5]), np.array([-2.0, 1.0]),
                    np.array([[math.nan, 0.5], [math.inf, 0.25]]),
                    np.array([["tol_miss", "ok"], ["tol_miss", "ok"]]))
    assert grid.min_abs_q == 0.25 and grid.argmin_cell() == (0.5, 1.0)
    empty = ScanGrid(np.array([0.0]), np.array([-2.0, 1.0]),
                     np.array([[math.nan, math.inf]]), np.array([["tol_miss", "tol_miss"]]))
    with pytest.raises(ValueError, match="finite"):
        empty.min_abs_q
    with pytest.raises(ValueError, match="finite"):
        empty.argmin_cell()


def test_scan_validation():
    with pytest.raises(ValueError):
        modulus_scan((0.0, 1.0), (0.0, 1.0), 0, 2)
    with pytest.raises(ValueError):
        modulus_scan((0.0, 1.0), (0.0, 1.0), 1, 2)   # non-degenerate range, 1 row
    with pytest.raises(ValueError, match="single-column scan"):
        modulus_scan((0.0, 1.0), (0.0, 1.0), 2, 1)   # non-degenerate range, 1 column
    # counts follow the config classes' rule: integers, bool not
    for ny, nz in ((2.0, 2), (math.nan, 2), (True, 2), (2, 3.0), (2, math.inf), (2, False)):
        with pytest.raises(ValueError, match="must be an integer"):
            modulus_scan((0.0, 1.0), (0.0, 1.0), ny, nz)


@pytest.mark.parametrize("y_range, z_range", [
    ((0.0, math.nan), (-1.0, 1.0)),
    ((0.0, math.inf), (-1.0, 1.0)),
    ((0.0, 1.0), (-math.inf, 1.0)),
    ((math.nan, math.nan), (0.0, 1.0)),
])
def test_scan_rejects_non_finite_ranges(y_range, z_range):
    with pytest.raises(ValueError, match="finite"):
        modulus_scan(y_range, z_range, 3, 3)


def test_scan_makes_one_kernel_call_in_passes(monkeypatch, cfg_fast):
    # the scan hands the centres of its lines z = const to one kernel call
    # for the four moments, and every cell's jet meets the tolerance, so no
    # cell goes to a second call
    calls = []

    def counting(x, y, z, ks, cfg):
        calls.append((x.size, ks, set(y.tolist())))
        return _integrate_points(x, y, z, ks, cfg)

    monkeypatch.setattr(zeros, "_integrate_points", counting)
    grid = modulus_scan((0.0, 1.0), (-6.0, 6.0), 20, 20, cfg_fast)
    assert calls == [(20, (0, 1, 2, 3), {0.5})]
    assert grid.flagged_cells == 0


def test_wide_scan_serves_every_line_from_jets(monkeypatch):
    # over z in [-24, 16] and y in [0, 3] the per-ray tail bound lets every
    # one of the 40 lines meet tol/20, z = -24 included: one four-moment call
    # of 40 centres and no direct call
    calls = []

    def counting(x, y, z, ks, cfg):
        calls.append((x.size, ks))
        return _integrate_points(x, y, z, ks, cfg)

    monkeypatch.setattr(zeros, "_integrate_points", counting)
    grid = modulus_scan((0.0, 3.0), (-24.0, 16.0), 40, 40, QuadratureConfig(target_abs_tol=1e-8))
    assert calls == [(40, (0, 1, 2, 3))]
    assert grid.flagged_cells == 0


def test_scan_without_a_valid_half_tolerance_runs_direct(monkeypatch):
    # at tol 2e-307 a QuadratureConfig takes tol but not the centres' tol/2,
    # so no line is served from a jet and every cell goes to the direct call
    calls = []

    def fake(x, y, z, ks, cfg):
        calls.append((x.size, ks))
        return (np.zeros((x.size, len(ks)), dtype=complex), np.zeros((x.size, len(ks))),
                np.zeros(x.size, dtype=int), np.ones(x.size, dtype=bool))

    monkeypatch.setattr(zeros, "_integrate_points", fake)
    with pytest.raises(ValueError):
        QuadratureConfig(target_abs_tol=1e-307)
    modulus_scan((0.0, 0.1), (-6.0, 6.0), 20, 20, QuadratureConfig(target_abs_tol=2e-307))
    assert calls == [(400, (0,))]


def test_scan_line_with_a_missed_centre_falls_back(monkeypatch):
    # a line is served only where its centre met its budget: when the first
    # centre is reported missed, that line's cells, and only they, are
    # integrated directly
    cfg = QuadratureConfig(target_abs_tol=1e-8)
    direct = []

    def first_centre_missed(x, y, z, ks, cfg):
        values, estimates, panels, ok = _integrate_points(x, y, z, ks, cfg)
        if ks == (0,):
            direct.extend(zip(y.tolist(), z.tolist()))
        else:
            ok[0] = False
        return values, estimates, panels, ok

    monkeypatch.setattr(zeros, "_integrate_points", first_centre_missed)
    grid = modulus_scan((0.0, 1.0), (-6.0, 6.0), 6, 13, cfg)
    assert direct == [(y, -6.0) for y in grid.y_values.tolist()]
    assert grid.flagged_cells == 0


def test_scan_blocks_change_no_cell(monkeypatch):
    # 1600 cells span four kernel passes and many 256-panel slices; each
    # sampled cell, a tolerance miss among them, equals its one-point result
    cfg = QuadratureConfig(target_abs_tol=1e-8, max_subdivisions=20)
    ys, zs = np.linspace(0.0, 3.0, 40), np.linspace(-24.0, 16.0, 40)
    passes = []
    integrate_pass = oracle._integrate_pass

    def pass_counting(x, *args):
        passes.append(x.size)
        return integrate_pass(x, *args)

    monkeypatch.setattr(oracle, "_integrate_pass", pass_counting)
    values, _, _, ok = _integrate_points(np.zeros(1600), np.repeat(ys, 40), np.tile(zs, 40),
                                         (0,), cfg)
    assert passes == [512, 512, 512, 64]
    abs_q = np.abs(values[:, 0]).reshape(40, 40)
    flags = np.where(ok, "ok", "tol_miss").reshape(40, 40)
    misses = np.argwhere(flags == "tol_miss")
    assert 0 < len(misses) < flags.size
    cells = [misses[0]] + list(np.random.default_rng(9).integers(0, 40, (29, 2)))
    for i, j in cells:
        try:
            value = _integrate(0.0, ys[i], zs[j], (0,), cfg)[0].value
            flag = "ok"
        except ToleranceNotReached as exc:
            value, flag = exc.partial.value, "tol_miss"
        assert flags[i, j] == flag
        assert abs_q[i, j] == np.abs(value)


def test_scan_memory_stays_bounded():
    # the kernel takes its points in passes and slices its panels, so a grid
    # much larger than one pass still keeps every temporary small
    cfg = QuadratureConfig(target_abs_tol=1e-8)
    tracemalloc.start()
    try:
        modulus_scan((0.0, 3.0), (-24.0, 16.0), 60, 60, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_scan_memory_stays_bounded_over_many_lines():
    # 5000 lines of 3 rows: jets serve every line, a quarter of them with 20
    # to 23 terms, and the scan takes them in slices of one kernel pass, so
    # the peak stays about 2.6 MB, not the lines times their terms
    cfg = QuadratureConfig(target_abs_tol=1e-8)
    tracemalloc.start()
    try:
        grid = modulus_scan((0.0, 2.0), (-24.0, 16.0), 3, 5000, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.flagged_cells == 0
    assert peak <= 4e6


def test_scan_fallback_cells_equal_their_one_point_results(monkeypatch):
    # at 20 panels per ray some centres miss, so their lines go to the direct
    # kernel: each such cell has its one-point value and flag, bit for bit
    cfg = QuadratureConfig(target_abs_tol=1e-8, max_subdivisions=20)
    direct = []

    def recording(x, y, z, ks, cfg):
        if ks == (0,):
            direct.extend(zip(y.tolist(), z.tolist()))
        return _integrate_points(x, y, z, ks, cfg)

    monkeypatch.setattr(zeros, "_integrate_points", recording)
    grid = modulus_scan((0.0, 1.0), (-24.0, 16.0), 8, 9, cfg)
    assert 0 < len(direct) < grid.flags.size
    flags = set()
    for y, z in direct:
        i, j = grid.y_values.tolist().index(y), grid.z_values.tolist().index(z)
        try:
            value = _integrate(0.0, y, z, (0,), cfg)[0].value
            flag = "ok"
        except ToleranceNotReached as exc:
            value, flag = exc.partial.value, "tol_miss"
        assert grid.flags[i, j] == flag and grid.abs_q[i, j] == np.abs(value)
        flags.add(flag)
    assert flags == {"ok", "tol_miss"}


def test_scan_jets_match_the_axis_series(monkeypatch):
    # the row y = 0 lies 0.3 from its lines' centres and comes from their jets
    calls = []

    def counting(x, y, z, ks, cfg):
        calls.append(ks)
        return _integrate_points(x, y, z, ks, cfg)

    monkeypatch.setattr(zeros, "_integrate_points", counting)
    grid = modulus_scan((0.0, 0.6), (-8.0, 8.0), 7, 17, QuadratureConfig(target_abs_tol=1e-10))
    assert calls == [(0, 1, 2, 3)] and grid.flagged_cells == 0
    for j, z in enumerate(grid.z_values):
        assert abs(grid.abs_q[0, j] - abs(q_axis_series(z))) <= 1e-10


def test_scan_cells_hold_the_tolerance():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tol = 1e-8

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(st.floats(-2.0, 2.0), st.floats(0.0, 2.0), st.floats(-20.0, 12.0),
                      st.integers(2, 8))
    def check(y0, width, z0, ny):
        # from 5 rows on, 16 lines are enough for jets
        grid = modulus_scan((y0, y0 + width), (z0, z0 + 4.0), ny, 16, QuadratureConfig(tol))
        i, j = np.nonzero(grid.flags == "ok")
        direct, estimates, _, _ = _integrate_points(
            np.zeros(i.size), grid.y_values[i], grid.z_values[j], (0,),
            QuadratureConfig(target_abs_tol=1e-12))
        assert (np.abs(grid.abs_q[i, j] - np.abs(direct[:, 0])) <= tol + estimates[:, 0]).all()

    check()


@pytest.mark.parametrize("ny, nz", [(2, 3), (3, 48)])
def test_scan_over_a_subnormal_y_band(ny, nz):
    # half the band's width underflows to 0; the jets' tail takes it as 0
    # instead of failing on log(0)
    grid = modulus_scan((0.0, 1e-323), (0.0, 1.0), ny, nz, QuadratureConfig(1e-8))
    assert grid.flagged_cells == 0


def test_scan_where_the_kernel_overflows_is_all_misses():
    # every cell overflows: NaN cells flagged tol_miss, and under the
    # suite's warning filter no numpy warning
    grid = modulus_scan((0.0, 0.1), (-1000.0, -990.0), 3, 3)
    assert np.isnan(grid.abs_q).all() and grid.flagged_cells == 9


def test_scan_min_and_argmin(cfg_fast):
    grid = modulus_scan((0.0, 0.0), (2.5, 3.0), 1, 6, cfg_fast)
    ay, az = grid.argmin_cell()
    assert ay == 0.0
    assert grid.min_abs_q == min(grid.abs_q[0])
    assert az in grid.z_values


def test_newton_spends_one_kernel_call_per_point(monkeypatch):
    # value and derivatives of a trial point (iterate, backtrack or polish)
    # come from one joint quadrature, and no point is evaluated twice
    calls = []

    def counting(x, y, z, ks, cfg):
        calls.append((y, z, ks))
        return _integrate(x, y, z, ks, cfg)

    monkeypatch.setattr(zeros, "_integrate", counting)
    monkeypatch.setattr(zeros, "eval_q", None)
    refined = refine_on_axis(predicted_zeros(Branch.NEGATIVE_Z, 0)[0])
    assert {ks for _, _, ks in calls} == {(0, 1)}
    assert len(calls) >= refined.iterations + 1
    assert len({(y, z) for y, z, _ in calls}) == len(calls)

    calls.clear()
    rec = axis_confinement_scan(0.3, Branch.POSITIVE_Z, 0)
    assert rec.converged
    assert {ks for _, _, ks in calls} == {(0, 1, 2)}
    assert len(calls) >= rec.iterations + 2          # seed, iterates and the polish
    assert len({(y, z) for y, z, _ in calls}) == len(calls)


# ------------------------------------------------ reference Newton loops


def _reference_refine(seed, cfg):
    """refine_on_axis as it was when it tested |Q| at the top of each
    iteration and again after the loop, kept verbatim (renamed, helpers read
    through the module) as the reference the 1D records must equal bit for
    bit."""
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

    g, gp = zeros._q_axis(z, quad)
    for it in range(1, cfg.max_iterations + 1):
        if abs(g) < tol_at(z):
            return RefinedZero(z, seed.m, seed.branch, abs(g), it - 1)
        if gp == 0.0 or not math.isfinite(gp):
            raise NoConvergence(f"vanishing derivative at z = {z:.6f}")
        step = -g / gp
        z_new = z + step
        g_new, gp_new = zeros._q_axis(z_new, quad)
        for _ in range(cfg.max_backtracks):
            if abs(g_new) < abs(g):
                break
            step *= 0.5
            z_new = z + step
            g_new, gp_new = zeros._q_axis(z_new, quad)
        z, g, gp = z_new, g_new, gp_new
    if abs(g) < tol_at(z):
        return RefinedZero(z, seed.m, seed.branch, abs(g), cfg.max_iterations)
    raise NoConvergence(
        f"residual {abs(g):.3e} after {cfg.max_iterations} iterations from seed "
        f"{seed.z_predicted:.6f}")


def _reference_confine(y0, branch, m, cfg):
    """axis_confinement_scan as it was with a separate ``polish`` step and a
    convergence test both in and after the loop, kept verbatim (renamed,
    helpers read through the module) as the reference the 2D records must
    equal bit for bit."""
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
        q2, _, _ = zeros._q_and_jacobian(y + delta[0], z + delta[1], quad)
        if abs(q2) <= abs(q):
            return y + delta[0], z + delta[1], q2
        return y, z, q

    y, z = float(y0), seed_z
    q, f, jac = zeros._q_and_jacobian(y, z, quad)
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
        q_new, f_new, jac_new = zeros._q_and_jacobian(y_new, z_new, quad)
        for _ in range(cfg.max_backtracks):
            if abs(q_new) < abs(q):
                break
            scale *= 0.5
            y_new, z_new = y + scale * delta[0], z + scale * delta[1]
            q_new, f_new, jac_new = zeros._q_and_jacobian(y_new, z_new, quad)
        y, z, q, f, jac = y_new, z_new, q_new, f_new, jac_new
        if abs(y) > zeros._DIVERGENCE_Y or abs(z) > zeros._DIVERGENCE_Z:
            return AxisConfinementRecord(y0, seed_z, False, y, z, abs(q), it)
    converged = abs(q) < cfg.residual_tol
    if converged:
        y, z, q = polish(y, z, q, f, jac)
    return AxisConfinementRecord(y0, seed_z, converged, y, z, abs(q), it)


def _float_coordinates(y0, branch, m, cfg):
    """``_reference_confine``'s record with final_y and final_z as Python
    floats (the reference leaves them np.float64 after a step); same bits."""
    record = _reference_confine(y0, branch, m, cfg)
    return dataclasses.replace(record, final_y=float(record.final_y),
                               final_z=float(record.final_z))


def _outcome(calls, run, *args):
    """A run's record (with its repr, so types and bits count) or exception,
    plus the points it evaluated, in order."""
    calls.clear()
    try:
        result = run(*args)
        out = (result, repr(result))
    except (NoConvergence, SeedOutOfRange, ToleranceNotReached) as exc:
        out = (type(exc), str(exc))
    return out, list(calls)


def test_newton_loops_match_reference(monkeypatch):
    # converged, no-convergence, out-of-range and divergent outcomes (and
    # quadrature failures at far seeds), at budgets that stop both loops
    # early and late
    calls = []

    def recording(x, y, z, ks, cfg):
        calls.append((y, z, ks))
        return _integrate(x, y, z, ks, cfg)

    monkeypatch.setattr(zeros, "_integrate", recording)
    for branch in Branch:
        for m in range(8):
            seed = predicted_zeros(branch, m)[m]
            for mode, max_abs_z in (("abs", 12.0), ("rel", 30.0)):
                for max_iterations in (1, 3, 25):
                    cfg = RefineConfig(residual_mode=mode, max_abs_z=max_abs_z,
                                       max_iterations=max_iterations)
                    assert (_outcome(calls, refine_on_axis, seed, cfg)
                            == _outcome(calls, _reference_refine, seed, cfg))
        for m in range(4):
            for y0 in (0.0, 0.05, 0.3, 0.7, 1.5, 3.0, 5.0, 8.0):
                for max_iterations in (1, 4, 25):
                    cfg = RefineConfig(max_iterations=max_iterations)
                    got = _outcome(calls, axis_confinement_scan, y0, branch, m, cfg)
                    want = _outcome(calls, _float_coordinates, y0, branch, m, cfg)
                    if want[0][0] is ToleranceNotReached:
                        # where the reference raises, the run is now a
                        # non-converged record after the same evaluations
                        (record, _), points = got
                        assert not record.converged
                        assert points == want[1]
                    else:
                        assert got == want
