import cmath
import math
import warnings

import numpy as np
import pytest

from swallowtail import (
    EvalResult,
    Form,
    Params,
    QuadratureConfig,
    ToleranceNotReached,
    eval_q,
    eval_q_moment,
    eval_s,
)
from swallowtail.oracle import (
    DEFAULT_RAY_ANGLES,
    _POINT_PASS,
    _RADIUS_BATCH,
    _cexp,
    _integrate,
    _integrate_points,
    _truncation_radii,
    _truncation_radius,
)
from conftest import q_axis_series

# Contour values computed independently with 40-digit tanh-sinh quadrature
# (mpmath) of the same two-ray reduction; frozen to 18 significant digits.
INDEPENDENT_SPOTS = {
    (0.0, 1.5, 2.0): 0.477565110394926144 - 0.470620106221211510j,
    (1.0, -2.0, 0.5): 1.780850515189953770 - 0.154955671543099633j,
    (0.0, 0.0, 5.0): -0.0152165958971638462 + 0.0j,
    (0.0, 0.0, 2.7065): 0.0101089781897583108 + 0.0j,
}


def test_origin_matches_gamma_closed_form(cfg):
    # both rays reduce to gamma integrals: Q(0,0,0) = 2 * 5^(1/5) G(6/5) cos(pi/10)
    closed = 2.0 * 5.0 ** 0.2 * math.gamma(1.2) * math.cos(math.pi / 10.0)
    r = eval_q(Params(0.0, 0.0, 0.0), cfg)
    assert abs(r.value - closed) < 1e-8
    assert abs(closed - 2.4096436731871047) < 1e-12


def test_origin_matches_series_oracle(cfg):
    r = eval_q(Params(0.0, 0.0, 0.0), cfg)
    assert abs(r.value - q_axis_series(0.0)) <= r.abs_error_estimate


def test_axis_values_match_series_oracle(cfg):
    for z in (1.3, -3.7, 5.0, -2.373, 6.5):
        r = eval_q(Params(0.0, 0.0, z), cfg)
        assert abs(r.value - q_axis_series(z)) <= 2.0 * r.abs_error_estimate


def test_independent_spot_values(cfg):
    for (x, y, z), expected in INDEPENDENT_SPOTS.items():
        r = eval_q(Params(x, y, z), cfg)
        assert abs(r.value - expected) < 1e-9


def test_trapezoid_cross_check():
    # same contour, independent rule: dense composite trapezoid on each ray
    x, y, z = 0.7, -1.2, 2.5
    radius = 8.0
    n = 200_001
    r = np.linspace(0.0, radius, n)
    total = 0.0 + 0.0j
    for theta, orientation in ((math.pi / 10.0, 1.0), (9.0 * math.pi / 10.0, -1.0)):
        w = cmath.exp(1j * theta)
        t = r * w
        f = np.exp(1j * (t ** 5 / 5.0 + x * t ** 3 / 3.0 + y * t ** 2 / 2.0 + z * t))
        total += orientation * w * np.trapezoid(f, r)
    q = eval_q(Params(x, y, z)).value
    assert abs(q - total) < 1e-7


def test_conjugation_symmetry_random(rng, cfg_fast):
    for _ in range(200):
        x, y, z = rng.uniform(-4.0, 4.0, 3)
        a = eval_q(Params(x, y, z), cfg_fast)
        b = eval_q(Params(x, -y, z), cfg_fast)
        assert abs(b.value - a.value.conjugate()) <= 2.0 * (
            a.abs_error_estimate + b.abs_error_estimate)


def test_realness_on_y_zero_random(rng, cfg_fast):
    for _ in range(200):
        x, z = rng.uniform(-5.0, 5.0, 2)
        r = eval_q(Params(x, 0.0, z), cfg_fast)
        assert abs(r.value.imag) <= 2.0 * r.abs_error_estimate


def _kernel_at(x, y, z, cfg, **controls):
    """Value, estimate and success flag of the kernel's k = 0 result at one point."""
    values, estimates, _, ok = _integrate_points(
        np.array([x]), np.array([y]), np.array([z]), (0,), cfg, **controls)
    return values[0, 0], estimates[0, 0], ok[0]


def test_contour_independence(cfg):
    angles = (0.88 * math.pi, 0.12 * math.pi)
    for (x, y, z) in [(0.0, 0.0, 0.0), (0.5, 1.0, -2.0), (0.0, 2.0, 3.0)]:
        a = eval_q(Params(x, y, z), cfg)
        b, b_err, ok = _kernel_at(x, y, z, cfg, ray_angles=angles)
        assert ok
        assert abs(a.value - b) <= a.abs_error_estimate + b_err


def test_truncation_soundness(cfg):
    for (x, y, z) in [(0.0, 0.0, 0.0), (1.0, -1.0, 2.0), (0.0, 1.5, -3.0)]:
        a = eval_q(Params(x, y, z), cfg)
        b, _, ok = _kernel_at(x, y, z, cfg, radius_factor=2.0)
        assert ok
        assert abs(a.value - b) < cfg.target_abs_tol


def test_moment_closed_forms_at_origin(cfg):
    # same gamma reduction as the value itself, one power of r higher:
    #   m1 = 2i 5^(-3/5) G(2/5) sin(pi/5)
    #   m2 = 2  5^(-2/5) G(3/5) cos(3 pi/10)
    #   m3 = 2i 5^(-1/5) G(4/5) sin(2 pi/5)
    origin = Params(0.0, 0.0, 0.0)
    m1 = eval_q_moment(origin, 1, cfg).value
    m2 = eval_q_moment(origin, 2, cfg).value
    m3 = eval_q_moment(origin, 3, cfg).value
    assert abs(m1 - 2j * 5.0 ** -0.6 * math.gamma(0.4) * math.sin(math.pi / 5)) < 1e-8
    assert abs(m2 - 2.0 * 5.0 ** -0.4 * math.gamma(0.6) * math.cos(0.3 * math.pi)) < 1e-8
    assert abs(m3 - 2j * 5.0 ** -0.2 * math.gamma(0.8) * math.sin(0.4 * math.pi)) < 1e-8


def test_moment1_is_z_derivative(cfg):
    p = Params(0.0, 0.0, 1.0)
    h = 1e-3
    dq = (eval_q(Params(0.0, 0.0, 1.0 + h), cfg).value
          - eval_q(Params(0.0, 0.0, 1.0 - h), cfg).value) / (2.0 * h)
    m1 = 1j * eval_q_moment(p, 1, cfg).value
    assert abs(m1 - dq) < 5e-6      # central difference truncation O(h^2)


def test_moment2_is_y_derivative(cfg):
    x, y, z = 0.3, 0.7, 1.1
    h = 1e-3
    dq = (eval_q(Params(x, y + h, z), cfg).value
          - eval_q(Params(x, y - h, z), cfg).value) / (2.0 * h)
    m2 = 0.5j * eval_q_moment(Params(x, y, z), 2, cfg).value
    assert abs(m2 - dq) < 5e-6


def test_moment3_is_x_derivative(cfg):
    x, y, z = 0.2, -0.4, 0.9
    h = 1e-3
    dq = (eval_q(Params(x + h, y, z), cfg).value
          - eval_q(Params(x - h, y, z), cfg).value) / (2.0 * h)
    m3 = (1j / 3.0) * eval_q_moment(Params(x, y, z), 3, cfg).value
    assert abs(m3 - dq) < 5e-6


def test_moment1_real_derivative_on_axis(cfg):
    r = eval_q_moment(Params(0.0, 0.0, 2.0), 1, cfg)
    assert abs((1j * r.value).imag) <= 2.0 * r.abs_error_estimate


def test_eval_s_origin(cfg):
    r = eval_s(Params(0.0, 0.0, 0.0, Form.S), cfg)
    assert abs(r.value - 1.7464607310356372) < 1e-8


def test_eval_s_delegates_exactly(cfg):
    p = Params(0.4, -0.8, 1.7, Form.S)
    direct = eval_s(p, cfg)
    from swallowtail import s_to_q
    mapped, factor = s_to_q(p)
    via_q = eval_q(mapped, cfg)
    assert direct.value == factor * via_q.value
    assert direct.abs_error_estimate == factor * via_q.abs_error_estimate


def test_s_zero_tracks_q_zero(cfg):
    # the coordinate map sends the z-axis to itself with z_S = 5^(1/5) z_Q;
    # 2.754254274850 is the certified first positive axis zero of Q
    z_s = 5.0 ** 0.2 * 2.754254274850
    r = eval_s(Params(0.0, 0.0, z_s, Form.S), cfg)
    assert abs(r.value) < 1e-6


def test_tolerance_not_reached_carries_partial():
    cfg = QuadratureConfig(target_abs_tol=1e-12, max_subdivisions=8)
    with pytest.raises(ToleranceNotReached) as err:
        eval_q(Params(0.0, 0.0, 50.0), cfg)
    partial = err.value.partial
    assert partial is not None
    assert partial.abs_error_estimate > cfg.target_abs_tol


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(target_abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=4)
    with pytest.raises(ValueError):
        QuadratureConfig(truncation_safety=1.0)
    # 2 * safety / tol must stay finite: an infinite log target once cut the
    # rays at r = 1 and returned a wrong value marked "ok"
    for safety in (math.inf, 1e300, math.nan):
        with pytest.raises(ValueError):
            QuadratureConfig(truncation_safety=safety)
    with pytest.raises(ValueError):
        QuadratureConfig(target_abs_tol=5e-324)


def test_eval_result_invariant():
    with pytest.raises(ValueError):
        EvalResult(0.0 + 0.0j, -1.0, 1)


def test_form_mismatch_rejected():
    with pytest.raises(ValueError):
        eval_q(Params(0.0, 0.0, 0.0, Form.S))
    with pytest.raises(ValueError):
        eval_s(Params(0.0, 0.0, 0.0, Form.Q))
    with pytest.raises(ValueError):
        eval_q_moment(Params(0.0, 0.0, 0.0), 4)
    with pytest.raises(ValueError, match="eval_q_moment expects form=Q"):
        eval_q_moment(Params(0.0, 0.0, 0.0, Form.S), 1)


def test_bad_ray_angles_rejected(cfg):
    # pi/4 sits in a growth sector; pi/5 is a sector boundary
    with pytest.raises(ValueError):
        _kernel_at(0.0, 0.0, 0.0, cfg, ray_angles=(math.pi / 4.0, math.pi / 10.0))
    with pytest.raises(ValueError):
        _kernel_at(0.0, 0.0, 0.0, cfg, ray_angles=(9 * math.pi / 10.0, math.pi / 5.0))


def test_short_truncation_radius_rejected(cfg):
    with pytest.raises(ValueError, match="radius_factor"):
        _kernel_at(0.0, 0.0, 0.0, cfg, radius_factor=0.5)


def test_no_points_give_four_empty_outputs(cfg):
    values, estimates, panels, ok = _integrate_points(
        np.array([]), np.array([]), np.array([]), (0, 1), cfg)
    assert values.shape == estimates.shape == (0, 2)
    assert panels.shape == ok.shape == (0,)
    assert values.dtype == complex and estimates.dtype == float
    assert panels.dtype.kind == "i" and ok.dtype == bool


def test_no_points_still_validate_the_controls(cfg):
    empty = np.array([])
    with pytest.raises(ValueError, match="decay sectors"):
        _integrate_points(empty, empty, empty, (0,), cfg,
                          ray_angles=(math.pi / 4.0, math.pi / 10.0))
    with pytest.raises(ValueError, match="radius_factor"):
        _integrate_points(empty, empty, empty, (0,), cfg, radius_factor=0.5)


def test_estimates_bound_actual_error_on_axis(cfg):
    # the series oracle gives the truth; the reported estimate must cover it
    for z in (0.5, -1.0, 3.2, -4.4):
        r = eval_q(Params(0.0, 0.0, z), cfg)
        assert abs(r.value - q_axis_series(z)) <= r.abs_error_estimate


def test_kernel_moments_satisfy_the_ode(rng, cfg):
    # integration by parts: m4 + x m2 + y m1 + z m0 = 0 (DLMF 36.10), an
    # identity no quadrature rule enforces, so each moment's estimate must
    # cover its share of the residual
    for _ in range(30):
        x, y, z = rng.uniform(-4.0, 4.0, 3)
        m0, m1, m2, m4 = _integrate(x, y, z, (0, 1, 2, 4), cfg)
        residual = m4.value + x * m2.value + y * m1.value + z * m0.value
        bound = (m4.abs_error_estimate + abs(x) * m2.abs_error_estimate
                 + abs(y) * m1.abs_error_estimate + abs(z) * m0.abs_error_estimate)
        assert abs(residual) <= bound


def test_kernel_joint_call_matches_separate_evaluations(rng, cfg):
    for _ in range(10):
        x, y, z = rng.uniform(-4.0, 4.0, 3)
        p = Params(x, y, z)
        joint = _integrate(x, y, z, (0, 1, 2), cfg)
        separate = (eval_q(p, cfg), eval_q_moment(p, 1, cfg), eval_q_moment(p, 2, cfg))
        for a, b in zip(joint, separate):
            assert abs(a.value - b.value) <= a.abs_error_estimate + b.abs_error_estimate


def test_batched_row_matches_single_points():
    # a scan row mixes 16-panel cells near z = 0 with costlier large -z and
    # large +z cells; batching must not change any cell's refinement
    cfg = QuadratureConfig(target_abs_tol=1e-8)
    zs = np.linspace(-24.0, 16.0, 21)
    values, estimates, panels, ok = _integrate_points(
        np.zeros(zs.size), np.full(zs.size, 0.3), zs, (0,), cfg)
    assert ok.all()
    assert panels.max() > 40 and panels.min() == 16
    for j, z in enumerate(zs):
        single = eval_q(Params(0.0, 0.3, z), cfg)
        assert panels[j] == single.subdivisions_used
        assert abs(values[j, 0] - single.value) <= estimates[j, 0] + single.abs_error_estimate


def test_batched_moments_match_single_points():
    # 320 points of mixed cost in one call span many 256-panel slices and
    # go through t**k; each point's values, estimates and panel count equal
    # those of its one-point call
    rng = np.random.default_rng(20261018)
    x, y = rng.uniform(-2.0, 2.0, 320), rng.uniform(-3.0, 3.0, 320)
    z = rng.uniform(-24.0, 16.0, 320)
    cfg = QuadratureConfig()
    values, estimates, panels, ok = _integrate_points(x, y, z, (0, 1, 2), cfg)
    assert panels.min() == 16 and panels.max() > 40
    for i in range(x.size):
        one = _integrate_points(x[i:i + 1], y[i:i + 1], z[i:i + 1], (0, 1, 2), cfg)
        assert (one[0][0] == values[i]).all() and (one[1][0] == estimates[i]).all()
        assert one[2][0] == panels[i] and one[3][0] == ok[i]
    # behind 280 other points the same 320 straddle the kernel's first pass
    # boundary, and each keeps its result bit for bit
    x2, y2 = rng.uniform(-2.0, 2.0, 280), rng.uniform(-3.0, 3.0, 280)
    z2 = rng.uniform(-24.0, 16.0, 280)
    longer = _integrate_points(np.concatenate((x2, x)), np.concatenate((y2, y)),
                               np.concatenate((z2, z)), (0, 1, 2), cfg)
    assert 280 < _POINT_PASS < 600
    for got, want in zip(longer, (values, estimates, panels, ok)):
        assert (got[280:] == want).all()


def _reference_radius(x, y, z, k, log_target, sin5):
    """The eigenvalue form of the truncation radius: both conditions by np.roots."""
    ax, ay, az = abs(x), abs(y), abs(z)
    val_poly = [sin5 / 5.0, 0.0, -ax / 3.0, -ay / 2.0, -(az + k), k - log_target]
    slope_poly = [sin5, 0.0, -ax, -ay, -(az + k + 1.0)]
    r_min = 1.0
    for poly in (val_poly, slope_poly):
        roots = np.roots(poly)
        real = roots.real[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots))]
        if real.size:
            r_min = max(r_min, float(real.max()))
    return r_min * (1.0 + 1e-9) + 1e-12


def test_truncation_radius_matches_eigenvalue_form():
    hypothesis = pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    st = hypothesis.strategies
    coord = st.floats(-1000.0, 1000.0)
    sin5 = math.sin(5.0 * DEFAULT_RAY_ANGLES[1])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(coord, coord, coord, st.integers(0, 4), st.floats(-14.0, -2.0))
    def check(x, y, z, k, log10_tol):
        log_target = math.log(2.0 * 10.0 / 10.0 ** log10_tol)
        radius = _truncation_radius(x, y, z, k, log_target, sin5)
        reference = _reference_radius(x, y, z, k, log_target, sin5)
        # np.roots is itself only good to ~1e-14 relative, so "not below the
        # reference" allows that much; the tail conditions are checked exactly
        assert -1e-13 <= radius / reference - 1.0 <= 1e-10
        with mpmath.workdps(40):
            r, s = mpmath.mpf(radius), mpmath.mpf(sin5)
            gk = s * r**5 / 5 - abs(x) * r**3 / 3 - abs(y) * r**2 / 2 - abs(z) * r - k * (r - 1)
            slope = s * r**4 - abs(x) * r**2 - abs(y) * r - abs(z) - k
            assert gk >= log_target and slope >= 1

    check()


def test_batched_radius_equals_scalar_radius():
    # a pass's radii must not depend on how many points it holds, so the
    # array form must give the scalar form's bits, Newton start included
    rng = np.random.default_rng(20261018)
    sin5 = math.sin(5.0 * DEFAULT_RAY_ANGLES[1])
    n = 1000
    for k in range(5):
        for tol in (1e-14, 1e-11, 1e-8, 1e-3):
            log_target = math.log(2.0 * 10.0 / tol)
            x, y, z = rng.uniform(-1.0, 1.0, (3, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, n))
            x[: n // 2] = 0.0
            batched = _truncation_radii(x, y, z, k, log_target, sin5)
            scalar = [_truncation_radius(a, b, c, k, log_target, sin5)
                      for a, b, c in zip(x.tolist(), y.tolist(), z.tolist())]
            assert n >= _RADIUS_BATCH
            assert batched.tolist() == scalar


def test_half_angle_exp_matches_numpy():
    rng = np.random.default_rng(20261018)
    a = rng.uniform(-100.0, 10.0, 20000)
    b = rng.uniform(-200.0, 200.0, 20000)
    # where tan(b/2) is largest: within 1e-12 of odd multiples of pi
    b[:2000] = (2 * rng.integers(-32, 32, 2000) + 1) * math.pi + rng.uniform(-1e-12, 1e-12, 2000)
    w = a + 1j * b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _cexp(w)
    assert (np.abs(got - np.exp(w)) <= 4.0 * np.finfo(float).eps * np.exp(a)).all()
