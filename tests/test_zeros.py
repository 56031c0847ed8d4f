import csv
import json
import math

import numpy as np
import pytest

from swallowtail import (
    Branch,
    NoConvergence,
    Params,
    QuadratureConfig,
    RefineConfig,
    SeedOutOfRange,
    ZeroPrediction,
    axis_confinement_scan,
    eval_q,
    modulus_scan,
    predicted_zeros,
    refine_on_axis,
)
import swallowtail.zeros as zeros
from swallowtail.oracle import _integrate
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


def test_confinement_record_shape_on_divergence():
    # a far-off seed with a tiny iteration budget ends as data, not an error
    cfg = RefineConfig(max_iterations=1)
    rec = axis_confinement_scan(3.0, Branch.POSITIVE_Z, 1, cfg)
    assert isinstance(rec.converged, bool)
    assert rec.seed_y == 3.0
    if rec.converged:
        assert rec.final_modulus < cfg.residual_tol


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


def test_scan_workers_agree(cfg_fast):
    seq = modulus_scan((0.0, 1.0), (0.5, 1.5), 2, 2, cfg_fast, workers=1)
    par = modulus_scan((0.0, 1.0), (0.5, 1.5), 2, 2, cfg_fast, workers=2)
    assert seq.abs_q == par.abs_q
    assert seq.flags == par.flags


def test_scan_validation():
    with pytest.raises(ValueError):
        modulus_scan((0.0, 1.0), (0.0, 1.0), 0, 2)
    with pytest.raises(ValueError):
        modulus_scan((0.0, 1.0), (0.0, 1.0), 1, 2)   # non-degenerate range, 1 row


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
