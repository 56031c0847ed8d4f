import cmath
import math
import warnings

import numpy as np
import pytest

from swallowtail import (
    DomainError,
    EvalResult,
    Form,
    Params,
    QuadratureConfig,
    ToleranceNotReached,
    eval_q,
    eval_q_moment,
    eval_s,
    oracle,
)
from swallowtail.oracle import (
    DEFAULT_RAY_ANGLES,
    _POINT_PASS,
    _RAY_SINES,
    _cexp,
    _integrate,
    _integrate_pass,
    _integrate_points,
    _jet_terms,
    _moment_recurrence,
    _ray_sines,
    _truncation_radii,
    _y_jets,
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


def _kernel_at(x, y, z, cfg, rays=None):
    """Value, estimate and success flag of the kernel's k = 0 result at one
    point, on the rays (w, sines) of ``_integrate_pass`` if given."""
    point = (np.array([x]), np.array([y]), np.array([z]), (0,), cfg)
    values, estimates, _, ok = _integrate_pass(*point, *rays) if rays else _integrate_points(*point)
    return values[0, 0], estimates[0, 0], ok[0]


def test_contour_independence(cfg):
    # rays perturbed within the decay sectors: in at 0.88 pi, out at 0.12 pi
    theta_in, theta_out = 0.88 * math.pi, 0.12 * math.pi
    rays = (np.exp(1j * np.array([theta_out, theta_in])), _ray_sines((theta_in, theta_out)))
    for (x, y, z) in [(0.0, 0.0, 0.0), (0.5, 1.0, -2.0), (0.0, 2.0, 3.0)]:
        a = eval_q(Params(x, y, z), cfg)
        b, b_err, ok = _kernel_at(x, y, z, cfg, rays)
        assert ok
        assert abs(a.value - b) <= a.abs_error_estimate + b_err


@pytest.mark.parametrize("angles", [
    (math.pi / 2, math.pi / 10),         # sin 3 theta = -1 on the first ray
    (0.9 * math.pi, -math.pi / 10),      # sin theta < 0 on the second
])
def test_ray_sines_refuse_rays_outside_the_majorant_sectors(angles):
    # the majorant holds only where sin theta and sin 3 theta are both >= 0
    with pytest.raises(ValueError, match="sin"):
        _ray_sines(angles)


def test_truncation_soundness(cfg, monkeypatch):
    radii = oracle._truncation_radii
    for (x, y, z) in [(0.0, 0.0, 0.0), (1.0, -1.0, 2.0), (0.0, 1.5, -3.0)]:
        a = eval_q(Params(x, y, z), cfg)
        with monkeypatch.context() as m:    # twice the truncation radius
            m.setattr(oracle, "_truncation_radii", lambda *args: radii(*args) * 2.0)
            b, _, ok = _kernel_at(x, y, z, cfg)
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


def test_tolerance_miss_names_the_ray_budget():
    # the verdict is per ray: here the summed estimate 8.356e-07 lies below
    # the target 1e-6, while one ray's share exceeds its budget 4.5e-07
    cfg = QuadratureConfig(1e-6, max_subdivisions=12)
    with pytest.raises(ToleranceNotReached) as err:
        eval_q(Params(0.0, 1.5, -16.25), cfg)
    message = str(err.value)
    assert "a ray's quadrature error estimate exceeded its budget" in message
    assert "0.5*tol*(1 - 1/safety) = 4.500e-07" in message
    assert "summed estimate 8.356e-07" in message and "target 1.000e-06" in message
    assert err.value.partial.abs_error_estimate < cfg.target_abs_tol


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(target_abs_tol=0.0)
    # a count must be an integer: inf once bisected without bound, NaN
    # never bisected at all
    for budget in (4, math.inf, math.nan, 8.5, True):
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=budget)
    assert QuadratureConfig(max_subdivisions=np.int64(8)).max_subdivisions == 8
    # 2 * safety / tol must stay finite: an infinite log target once cut the
    # rays at r = 1 and returned a wrong value marked "ok"
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


@pytest.mark.parametrize("k", [1.0, 2.5, True, math.nan])
def test_moment_order_must_be_an_integer(k):
    # 1.0 raised a TypeError from the kernel, and True gave moment 1
    with pytest.raises(ValueError, match="moment order k must be an integer"):
        eval_q_moment(Params(0.0, 0.0, 1.0), k)


def test_no_points_give_four_empty_outputs(cfg):
    values, estimates, panels, ok = _integrate_points(
        np.array([]), np.array([]), np.array([]), (0, 1), cfg)
    assert values.shape == estimates.shape == (0, 2)
    assert panels.shape == ok.shape == (0,)
    assert values.dtype == complex and estimates.dtype == float
    assert panels.dtype.kind == "i" and ok.dtype == bool


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
    # with three moments a pass holds _POINT_PASS // 3 = 170 points, so 600
    # break into passes at 170, 340 and 510: behind 280 other points the
    # same 320 straddle the boundaries at 340 and 510, and each keeps its
    # result bit for bit
    x2, y2 = rng.uniform(-2.0, 2.0, 280), rng.uniform(-3.0, 3.0, 280)
    z2 = rng.uniform(-24.0, 16.0, 280)
    longer = _integrate_points(np.concatenate((x2, x)), np.concatenate((y2, y)),
                               np.concatenate((z2, z)), (0, 1, 2), cfg)
    step = _POINT_PASS // 3
    assert list(range(step, 600, step)) == [170, 340, 510]
    for got, want in zip(longer, (values, estimates, panels, ok)):
        assert (got[280:] == want).all()


def _majorant_coefficients(x, y, z, sines):
    """(S_3 x^-, S_2 |y|, S_1 z^-, s) of the per-ray tail majorant."""
    s1, s2, s3, s = sines
    return s3 * max(-x, 0.0), s2 * abs(y), s1 * max(-z, 0.0), s


def _radius(x, y, z, k, log_target):
    """``_truncation_radii`` at the one point (x, y, z) on the default rays."""
    return float(_truncation_radii(np.array([x]), np.array([y]), np.array([z]), k,
                                   log_target, _RAY_SINES)[0])


def _reference_radius(x, y, z, k, log_target, sines):
    """The eigenvalue form of the truncation radius: both conditions by np.roots."""
    cx, cy, cz, s = _majorant_coefficients(x, y, z, sines)
    val_poly = [s / 5.0, 0.0, -cx / 3.0, -cy / 2.0, -(cz + k), k - log_target]
    slope_poly = [s, 0.0, -cx, -cy, -(cz + k + 1.0)]
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

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(coord, coord, coord, st.integers(0, 4), st.floats(-14.0, -2.0))
    def check(x, y, z, k, log10_tol):
        log_target = math.log(2.0 * 10.0 / 10.0 ** log10_tol)
        radius = _radius(x, y, z, k, log_target)
        reference = _reference_radius(x, y, z, k, log_target, _RAY_SINES)
        # np.roots is itself only good to ~1e-14 relative, so "not below the
        # reference" allows that much; the tail conditions are checked exactly
        assert -1e-13 <= radius / reference - 1.0 <= 1e-10
        with mpmath.workdps(40):
            r = mpmath.mpf(radius)
            cx, cy, cz, s = (mpmath.mpf(c) for c in _majorant_coefficients(x, y, z, _RAY_SINES))
            gk = s * r**5 / 5 - cx * r**3 / 3 - cy * r**2 / 2 - cz * r - k * (r - 1)
            slope = s * r**4 - cx * r**2 - cy * r - cz - k
            assert gk >= log_target and slope >= 1

    check()


def test_ray_tail_lies_below_its_majorant_and_within_its_share():
    # on each default ray, at 40 digits: r^k exp(-Im phase(r e^{i theta}))
    # lies below the radius's majorant exp(-g(r) + k (r - 1)) at sampled
    # r >= R, and its integral beyond R is within tol / (2 safety)
    hypothesis = pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    st = hypothesis.strategies
    coord = st.floats(-30.0, 30.0)
    safety = QuadratureConfig.truncation_safety

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(coord, coord, coord, st.integers(0, 4), st.floats(-12.0, -4.0),
                      st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
    def check(x, y, z, k, log10_tol, steps):
        tol = 10.0 ** log10_tol
        log_target = math.log(2.0 * safety / tol)
        radius = _radius(x, y, z, k, log_target)
        with mpmath.workdps(40):
            cx, cy, cz, s = (mpmath.mpf(c) for c in _majorant_coefficients(x, y, z, _RAY_SINES))
            for theta in DEFAULT_RAY_ANGLES:
                w = mpmath.expj(mpmath.mpf(theta))

                def log_modulus(r):
                    t = r * w
                    phase = t**5 / 5 + x * t**3 / 3 + y * t**2 / 2 + z * t
                    return k * mpmath.log(r) - mpmath.im(phase)

                for step in steps:
                    r = mpmath.mpf(radius) + step
                    majorant = -(s * r**5 / 5 - cx * r**3 / 3 - cy * r**2 / 2 - cz * r
                                 - k * (r - 1))
                    assert log_modulus(r) <= majorant
                tail = mpmath.quad(lambda r: mpmath.exp(log_modulus(r)),
                                   [radius, radius + 1, mpmath.inf])
                assert tail <= tol / (2.0 * safety)

    check()


def test_radius_does_not_depend_on_its_pass():
    # a point's radius alone equals its radius among 1 000 others, bit for
    # bit, NaN where Newton overflows included: at the first three points a
    # scalar twin of the solver read max(1, nan) = 1 and gave 1.0000000010010002
    rng = np.random.default_rng(20261022)
    n = 1000
    overflows = np.array([(0.0, 0.0, -1e248), (0.0, 1e200, 0.0), (-1e150, 0.0, 0.0)]).T
    with np.errstate(over="ignore", invalid="ignore"):
        for k, tol in zip(range(5), (1e-14, 1e-11, 1e-8, 1e-5, 1e-3)):
            log_target = math.log(2.0 * 10.0 / tol)
            x, y, z = rng.choice((-1.0, 1.0), (3, n)) * 10.0 ** rng.uniform(-3.0, 300.0, (3, n))
            x[n // 2:] = 0.0
            x[:3], y[:3], z[:3] = overflows
            batched = _truncation_radii(x, y, z, k, log_target, _RAY_SINES)
            alone = np.concatenate([_truncation_radii(x[i:i + 1], y[i:i + 1], z[i:i + 1], k,
                                                      log_target, _RAY_SINES)
                                    for i in range(n)])
            assert np.isnan(batched[:3]).all()
            assert np.array_equal(alone, batched, equal_nan=True)


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


def test_overflow_raises_domain_error():
    # at z = -1e300 the integrand overflows on the rays: no EvalResult with a
    # NaN estimate, and (under the suite's warning filter) no numpy warning
    with pytest.raises(DomainError, match="overflowed"):
        eval_q(Params(0.0, 0.0, -1e300))


# ------------------------------------------------------- holonomic jets


@pytest.mark.parametrize("y,z", [(0.5, -5.0), (0.0, 3.0), (-0.75, -2.0)])
def test_moment_recurrence_matches_the_kernel(y, z):
    # m_4 .. m_7 from m_0 .. m_3 by the recurrence, against the kernel's own
    cfg = QuadratureConfig(target_abs_tol=1e-12)
    values, _, _, ok = _integrate_points(
        np.zeros(1), np.array([y]), np.array([z]), tuple(range(8)), cfg)
    assert ok[0]
    extended = _moment_recurrence(values[0, :4], y, z, 7)
    assert np.abs(extended[4:] - values[0, 4:]).max() <= 1e-11


@pytest.mark.parametrize("ny", [2, 3, 20])
def test_y_jets_lie_within_their_bounds(ny):
    # every jet cell of a met centre, served or not, is within its bound of
    # the direct value, up to that value's own estimate at tol 1e-12
    tol = 1e-8
    zs = np.linspace(-24.0, 16.0, 9)
    for y0, width in ((0.0, 0.1), (0.4, 1.0), (-1.0, 3.0)):
        ys = np.linspace(y0, y0 + width, ny)
        y_c = 0.5 * (ys[0] + ys[-1])
        terms, tails = _jet_terms(y_c, zs, 0.5 * width, tol)
        if width == 0.1:
            assert (terms >= 0).all()
        served = zs[terms >= 0]
        moments, estimates, _, ok = _integrate_points(
            np.zeros(served.size), np.full(served.size, y_c), served, (0, 1, 2, 3),
            QuadratureConfig(target_abs_tol=0.5 * tol))
        values, bounds = _y_jets(moments, estimates, y_c, served, ys - y_c,
                                 terms[terms >= 0], tails[terms >= 0])
        if width == 0.1:
            assert (bounds <= tol).all()
        finite = np.isfinite(bounds) & ok
        i, j = np.nonzero(finite)
        direct, direct_est, _, _ = _integrate_points(
            np.zeros(i.size), ys[i], served[j], (0,), QuadratureConfig(target_abs_tol=1e-12))
        assert i.size and (np.abs(values[finite] - direct[:, 0])
                           <= bounds[finite] + direct_est[:, 0]).all()


def test_y_jet_line_does_not_depend_on_its_slice():
    # on random bands whose lines need different numbers of terms, each
    # line's values and bounds are the same, bit for bit, from a call with
    # the whole band as from a call with that line alone
    rng = np.random.default_rng(20261019)
    zs = np.linspace(-24.0, 16.0, 120)
    lines = moved = 0
    for _ in range(12):
        tol = 10.0 ** rng.uniform(-10.0, -6.0)
        y0, width = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 3.0)
        deltas = np.linspace(-0.5 * width, 0.5 * width, rng.integers(5, 31))
        y_c = y0 + 0.5 * width
        terms, tails = _jet_terms(y_c, zs, 0.5 * width, tol)
        served = np.flatnonzero(terms >= 0)
        moments, estimates, _, _ = _integrate_points(
            np.zeros(served.size), np.full(served.size, y_c), zs[served], (0, 1, 2, 3),
            QuadratureConfig(target_abs_tol=0.5 * tol))
        values, bounds = _y_jets(moments, estimates, y_c, zs[served], deltas, terms[served],
                                 tails[served])
        assert np.unique(terms[served]).size > 1
        for n, line in enumerate(served):
            one, alone = slice(n, n + 1), slice(line, line + 1)
            value, bound = _y_jets(moments[one], estimates[one], y_c, zs[alone], deltas,
                                   terms[alone], tails[alone])
            moved += not ((value[:, 0] == values[:, n]).all()
                          and (bound[:, 0] == bounds[:, n]).all())
        lines += served.size
    assert lines > 1000 and moved == 0


@pytest.mark.parametrize("y,z,h,tol", [(0.5, -3.0, 0.5, 1e-4), (0.0, 2.0, 0.3, 1e-6),
                                       (0.5, -5.0, 1.0, 1e-8), (2.0, 8.0, 1.0, 1e-6),
                                       (0.3, -20.0, 0.05, 1e-8), (6.0, 0.0, 0.2, 1e-8),
                                       (4.0, 2.0, 0.3, 1e-8), (4.0, -10.0, 1.5, 1e-3)])
def test_jet_tail_is_close_above_the_integral_it_bounds(y, z, h, tol):
    # T_J in closed form against the integral over both rays of the
    # per-ray bound on the series' terms beyond J, (h r^2/2)^(J+1) / (J+1)!
    # times exp(S_2 (|y| + h) r^2/2 + S_1 z^- r - s r^5/5): above it, and
    # within 50 times
    terms, tails = _jet_terms(y, np.array([z]), h, tol)
    j_last = int(terms[0])
    assert 0 <= j_last < 40 and tails[0] <= 0.05 * tol
    s1, s2, _, s = _RAY_SINES
    r = np.linspace(0.0, 10.0, 20001)
    term = (0.5 * h * r * r) ** (j_last + 1) / math.factorial(j_last + 1)
    integral = 2.0 * np.trapezoid(
        term * np.exp(s2 * (abs(y) + h) * r * r / 2 + s1 * max(-z, 0.0) * r - s * r ** 5 / 5), r)
    assert integral <= tails[0] <= 50.0 * integral


@pytest.mark.parametrize("y,z,h,tol", [(0.0, 0.0, 1.0, 1e-3), (0.0, 2.0, 0.3, 1e-6)])
def test_jet_tail_bounds_the_series_remainder(y, z, h, tol):
    # where the tail is what limits the bound, the terms J < j <= J + 30 of
    # sum_j (i d/2)^j / j! m_2j at d = +-h lie within T_J, and not 1000
    # times below it
    terms, tails = _jet_terms(y, np.array([z]), h, tol)
    j_last = int(terms[0])
    moments, _, _, ok = _integrate_points(np.zeros(1), np.array([y]), np.array([z]),
                                          (0, 1, 2, 3), QuadratureConfig(target_abs_tol=1e-13))
    assert ok[0]
    even = _moment_recurrence(moments[0], y, z, 2 * (j_last + 30), step=2)
    j = np.arange(j_last + 1, j_last + 31)
    for d in (h, -h):
        weights = np.array([(0.5j * d) ** n / math.factorial(n) for n in j])
        remainder = abs((weights * even[j]).sum())
        assert remainder <= tails[0] <= 1e3 * remainder


def test_jet_bound_takes_the_tail_and_each_moment_estimate():
    # with exact moments a cell's bound is T_J and a roundoff term; an error
    # e in m_k alone moves its value by |W_k(d)| e, and an estimate e_k = e
    # adds exactly that to its bound, for each k = 0 .. 3
    y, zs, deltas = 0.4, np.array([-6.0, 1.0, 5.0]), np.linspace(-0.5, 0.5, 7)
    terms, tails = _jet_terms(y, zs, 0.5, 1e-8)
    moments, _, _, _ = _integrate_points(np.zeros(3), np.full(3, y), zs, (0, 1, 2, 3),
                                         QuadratureConfig(target_abs_tol=5e-9))
    exact = np.zeros((3, 4))
    values, bounds = _y_jets(moments, exact, y, zs, deltas, terms, tails)
    assert (tails <= bounds).all() and (bounds <= tails + 1e-12).all()
    for k in range(4):
        shifted, estimates = moments.copy(), exact.copy()
        shifted[:, k] += 1e-6 * np.exp(0.7j)
        estimates[:, k] = 1e-6
        moved = np.abs(_y_jets(shifted, exact, y, zs, deltas, terms, tails)[0] - values)
        added = _y_jets(moments, estimates, y, zs, deltas, terms, tails)[1] - bounds
        assert (np.abs(moved - added) <= 1e-6 * added + 1e-15).all()
        assert (added[deltas != 0.0] > 0.0).all()


def test_y_jets_of_a_non_finite_centre_are_non_finite():
    # a centre whose quadrature overflowed gives its line non-finite bounds,
    # without a numpy warning; the other lines keep theirs
    y, zs, deltas = 0.2, np.array([-3.0, 2.0]), np.linspace(-0.1, 0.1, 5)
    terms, tails = _jet_terms(y, zs, 0.1, 1e-8)
    moments, estimates, _, _ = _integrate_points(np.zeros(2), np.full(2, y), zs, (0, 1, 2, 3),
                                                 QuadratureConfig(target_abs_tol=5e-9))
    moments[0, 2], estimates[0, 3] = np.nan, np.inf
    _, bounds = _y_jets(moments, estimates, y, zs, deltas, terms, tails)
    assert not np.isfinite(bounds[:, 0]).any() and (bounds[:, 1] <= 1e-8).all()
