import cmath
import math

import numpy as np
import pytest

import swallowtail.saddle as saddle_mod
from swallowtail import asymptotics
from swallowtail import (
    DegenerateScaling,
    Direction,
    Form,
    Params,
    PathStalled,
    Regime,
    ScaledParams,
    ZSign,
    caustic_gamma,
    phase_at_saddle,
    saddles,
    scale,
    trace_steepest,
)
from swallowtail.saddle import (
    _PAIR_TOL,
    VALLEY_ANGLES,
    SaddleSet,
    SteepestPath,
    _degenerate_set,
    _descent_angles,
    _nearest_valley,
    _polish,
    phase,
    phase_derivative,
    phase_second_derivative,
)

GAMMA_CAUSTIC = 4.0 * 3.0 ** -0.75


def _angdist(a, b):
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


# ---------------------------------------------------------------- scaling


def test_scale_examples():
    sp = scale(Params(0.0, 0.0, 16.0))
    assert sp.lam == 32.0 and sp.gamma == 0.0 and sp.sign_z is ZSign.POSITIVE
    sp = scale(Params(0.0, 8.0, 16.0))
    assert sp.lam == 32.0 and abs(sp.gamma - 1.0) < 1e-15
    sp = scale(Params(0.0, 1.0, -1.0))
    assert sp.lam == 1.0 and sp.gamma == 1.0 and sp.sign_z is ZSign.NEGATIVE


def test_scale_rejects_degenerate_and_off_plane():
    with pytest.raises(DegenerateScaling):
        scale(Params(0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        scale(Params(0.5, 1.0, 1.0))
    with pytest.raises(ValueError, match="scale expects form=Q"):
        scale(Params(0.0, 1.0, 1.0, Form.S))
    for lam in (0.0, math.inf):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            ScaledParams(lam, 0.0, ZSign.POSITIVE)


@pytest.mark.parametrize("gamma", [1e300, -1e300])
@pytest.mark.parametrize("sign", list(ZSign))
def test_scaled_params_reject_gamma_beyond_the_solvable_range(gamma, sign):
    # the root polish raises the largest root, about |gamma|^(1/3), to the
    # 4th power, which overflows from about 5.5e230 on: the roots were NaN
    with pytest.raises(ValueError, match="gamma"):
        ScaledParams(1.0, gamma, sign)
    with pytest.raises(ValueError, match="gamma"):
        scale(Params(0.0, gamma, sign.value))
    near = math.copysign(1e230, gamma)
    assert saddles(ScaledParams(1.0, near, sign)).regime is Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR


# ---------------------------------------------------------------- roots


def test_roots_at_gamma_zero_positive():
    sset = saddles(ScaledParams(1.0, 0.0, ZSign.POSITIVE))
    assert sset.regime is Regime.TWO_CONJUGATE_PAIRS
    for k in range(4):
        assert abs(sset.roots[k] - 1j ** k * cmath.exp(0.25j * math.pi)) < 1e-12


def test_roots_at_gamma_zero_negative():
    sset = saddles(ScaledParams(1.0, 0.0, ZSign.NEGATIVE))
    assert sset.regime is Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR
    for k in range(4):
        assert abs(sset.roots[k] - 1j ** k) < 1e-12


def test_pair_identity_at_gamma_one():
    sset = saddles(ScaledParams(1.0, 1.0, ZSign.POSITIVE))
    assert sset.regime is Regime.TWO_CONJUGATE_PAIRS
    assert abs(sset.q1 ** 2 + sset.q2 ** 2 - 2.0 * sset.p ** 2) < 1e-10


def test_pair_identity_across_regime(rng):
    for _ in range(200):
        g = rng.uniform(0.0, GAMMA_CAUSTIC - 1e-3)
        sset = saddles(ScaledParams(1.0, g, ZSign.POSITIVE))
        assert sset.regime is Regime.TWO_CONJUGATE_PAIRS
        assert abs(sset.q1 ** 2 + sset.q2 ** 2 - 2.0 * sset.p ** 2) < 1e-10
        assert sset.p >= 0.0 and sset.q1 >= 0.0 and sset.q2 >= 0.0


def test_residuals_and_vieta(rng):
    for _ in range(400):
        g = rng.uniform(0.0, 3.0)
        sign = ZSign.POSITIVE if rng.uniform() < 0.5 else ZSign.NEGATIVE
        sset = saddles(ScaledParams(1.0, g, sign))
        roots = sset.roots
        for t in roots:
            assert abs(phase_derivative(t, g, sign)) < 1e-12
        assert abs(sum(roots)) < 1e-11
        e2 = sum(roots[i] * roots[j] for i in range(4) for j in range(i + 1, 4))
        assert abs(e2) < 1e-11
        # closed under conjugation
        for t in roots:
            assert any(abs(t.conjugate() - u) < 1e-9 for u in roots)


def test_classification_matches_root_count(rng):
    # the regime label against an independent count of the real roots
    for _ in range(1000):
        g = rng.uniform(0.0, 3.0)
        if abs(g - GAMMA_CAUSTIC) < 1e-6:
            continue
        sign = ZSign.POSITIVE if rng.uniform() < 0.5 else ZSign.NEGATIVE
        roots = np.roots([1.0, 0.0, 0.0, g, sign.value])
        n_real = int(np.count_nonzero(np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))))
        expected = {0: Regime.TWO_CONJUGATE_PAIRS, 2: Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR}[n_real]
        assert saddles(ScaledParams(1.0, g, sign)).regime is expected


def test_caustic_value_and_degeneracy():
    assert abs(caustic_gamma() - GAMMA_CAUSTIC) < 1e-15
    sp = ScaledParams(1.0, caustic_gamma(), ZSign.POSITIVE)
    assert saddles(sp).regime is Regime.DEGENERATE


def test_classification_examples():
    assert saddles(ScaledParams(1.0, 0.0, ZSign.POSITIVE)).regime is Regime.TWO_CONJUGATE_PAIRS
    assert saddles(ScaledParams(1.0, 0.0, ZSign.NEGATIVE)).regime is Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR
    assert saddles(ScaledParams(1.0, 2.5, ZSign.POSITIVE)).regime is Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR


@pytest.mark.parametrize("offset,regime", [
    (-1e-10, Regime.TWO_CONJUGATE_PAIRS),
    (-1e-12, Regime.TWO_CONJUGATE_PAIRS),
    (0.0, Regime.DEGENERATE),
    (1e-12, Regime.DEGENERATE),
    (1e-10, Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR),
])
def test_regime_next_to_the_caustic(offset, regime):
    # z > 0: the band saddles() calls degenerate is one-sided, from the
    # caustic up to some 5000 ulps (1.1e-12) above it
    assert saddles(ScaledParams(1.0, caustic_gamma() + offset, ZSign.POSITIVE)).regime is regime


def test_real_roots_accessor():
    sset = saddles(ScaledParams(1.0, 0.5, ZSign.NEGATIVE))
    t1, t2 = sset.real_roots()
    assert t1 < t2
    with pytest.raises(ValueError):
        saddles(ScaledParams(1.0, 0.0, ZSign.POSITIVE)).real_roots()
    # on the caustic the real pair has collided: the set is degenerate
    with pytest.raises(ValueError, match="real-pair regime"):
        saddles(ScaledParams(1.0, caustic_gamma(), ZSign.POSITIVE)).real_roots()


def _reference_saddles(sp):
    """``saddles`` as it was with one labelling block per regime, kept
    verbatim (renamed) as the reference the labelled sets must equal bit for
    bit."""
    sigma = sp.sign_z.value
    raw = _polish(np.roots([1.0, 0.0, 0.0, sp.gamma, sigma]), sp.gamma, sigma)

    scale_ = np.maximum(1.0, np.abs(raw))
    real_mask = np.abs(raw.imag) <= _PAIR_TOL * scale_
    n_real = int(real_mask.sum())
    nan = float("nan")

    if n_real == 0:
        upper = sorted((complex(r) for r in raw if r.imag > 0), key=lambda r: -r.real)
        lower = sorted((complex(r) for r in raw if r.imag < 0), key=lambda r: -r.real)
        if len(upper) != 2 or len(lower) != 2:
            return _degenerate_set(raw)
        right_up, left_up = upper
        right_dn, left_dn = lower
        if (abs(right_up - right_dn.conjugate()) > _PAIR_TOL * max(1.0, abs(right_up))
                or abs(left_up - left_dn.conjugate()) > _PAIR_TOL * max(1.0, abs(left_up))):
            return _degenerate_set(raw)
        if abs(right_up.real - left_up.real) <= _PAIR_TOL:
            return _degenerate_set(raw)   # pairs collapsing onto one vertical line
        p = right_up.real
        q1 = abs(right_up.imag)
        q2 = abs(left_up.imag)
        roots = (right_up, left_up, left_up.conjugate(), right_up.conjugate())
        return SaddleSet(roots, Regime.TWO_CONJUGATE_PAIRS, p, q1, q2)

    if n_real == 2:
        reals = np.sort(raw.real[real_mask])
        r_lo, r_hi = float(reals[0]), float(reals[1])
        if abs(r_hi - r_lo) <= 1e-6 * max(1.0, abs(r_hi)):
            return _degenerate_set(raw)   # collided real pair: on the caustic
        cpx = [complex(r) for r in raw[~real_mask]]
        up = next((r for r in cpx if r.imag > 0), None)
        dn = next((r for r in cpx if r.imag < 0), None)
        if up is None or dn is None or abs(up - dn.conjugate()) > _PAIR_TOL * max(1.0, abs(up)):
            return _degenerate_set(raw)
        if sp.sign_z is ZSign.NEGATIVE:
            roots = (complex(r_hi), up, complex(r_lo), dn)
        else:
            roots = (up, complex(r_hi), complex(r_lo), dn)
        return SaddleSet(roots, Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR, nan, nan, nan)

    return _degenerate_set(raw)


def _saddle_bits(sset):
    """Everything a SaddleSet holds, in a form that tells -0.0 from 0.0 and
    compares NaN equal to NaN."""
    return ([(t.real.hex(), t.imag.hex()) for t in sset.roots], sset.regime,
            repr(sset.p), repr(sset.q1), repr(sset.q2))


def test_saddles_are_bit_identical_to_reference():
    rng = np.random.default_rng(15)
    c = caustic_gamma()
    # z > 0 is degenerate from the caustic up to some 4000 ulps above it
    ulps = [c + k * math.ulp(c) for k in range(-100, 300)]
    gammas = [*rng.uniform(-6.0, 6.0, 250), *ulps, *(-g for g in ulps),
              *(rng.choice((-1.0, 1.0), 200) * 10.0 ** rng.uniform(-300.0, 8.0, 200))]
    degenerate = 0
    for gamma in gammas:
        for sign in ZSign:
            sp = ScaledParams(1.0, float(gamma), sign)
            got = saddles(sp)
            assert _saddle_bits(got) == _saddle_bits(_reference_saddles(sp)), sp
            degenerate += got.regime is Regime.DEGENERATE
    assert degenerate >= 500


def test_saddle_cache_keeps_signed_zeros_apart():
    # -0.0 and 0.0 are equal keys for a plain float; the cache key carries
    # gamma's sign bit, so each signed zero gets its own root solve
    assert -0.0 == 0.0 and hash(-0.0) == hash(0.0)
    for sign in ZSign:
        for gammas in ((-0.0, 0.0), (0.0, -0.0)):
            for clear in (True, False):
                if clear:
                    saddle_mod._solve_saddles.cache_clear()
                for gamma in gammas:
                    sp = ScaledParams(1.0, gamma, sign)
                    assert _saddle_bits(saddles(sp)) == _saddle_bits(_reference_saddles(sp)), sp


@pytest.mark.parametrize("lam,gamma,sign", [
    (10.0, 0.7, ZSign.NEGATIVE),                 # real pair plus conjugate pair
    (10.0, 0.5, ZSign.POSITIVE),                 # two conjugate pairs
    (10.0, 2.0, ZSign.POSITIVE),                 # beyond the caustic
])
def test_one_root_solve_per_gamma_and_sign(monkeypatch, lam, gamma, sign):
    # the geometry sequence: saddles, the regime's asymptotics and all 8
    # branches, which all ask for the same quartic
    calls = []
    roots = np.roots

    def counted(p):
        calls.append(p)
        return roots(p)

    saddle_mod._solve_saddles.cache_clear()
    monkeypatch.setattr(np, "roots", counted)
    sp = ScaledParams(lam, gamma, sign)
    sset = saddles(sp)
    if sign is ZSign.NEGATIVE:
        asymptotics.saddle_contributions(sp, sset)
        asymptotics.leading_from_contributions(sp)
        asymptotics.below_caustic_obstruction(sp)
    elif sset.regime is Regime.TWO_CONJUGATE_PAIRS:
        asymptotics.saddle_contributions(sp, sset)
        asymptotics.leading_from_contributions(sp)
        asymptotics.dominance_gap(sp)
    else:
        asymptotics.below_caustic_obstruction(sp)
    for k in range(4):
        for direction in Direction:
            try:
                trace_steepest(sp, k, direction)
            except PathStalled:
                pass
    assert len(calls) == 1


# ---------------------------------------------------------------- phases


def test_phase_at_saddle_gamma_zero():
    sp = ScaledParams(1.0, 0.0, ZSign.POSITIVE)
    assert abs(phase_at_saddle(sp, 0) - 0.8 * cmath.exp(0.25j * math.pi)) < 1e-14
    sn = ScaledParams(1.0, 0.0, ZSign.NEGATIVE)
    assert abs(phase_at_saddle(sn, 0) - (-0.8)) < 1e-14
    # k-dependence: f(t_k) = +-(4/5) i^k (rotation factor per index)
    for k in range(4):
        assert abs(phase_at_saddle(sp, k) - 0.8 * 1j ** k * cmath.exp(0.25j * math.pi)) < 1e-13
        assert abs(phase_at_saddle(sn, k) - (-0.8) * 1j ** k) < 1e-13


def test_reduced_phase_agrees_with_direct(rng):
    for _ in range(100):
        g = rng.uniform(0.0, 3.0)
        sign = ZSign.POSITIVE if rng.uniform() < 0.5 else ZSign.NEGATIVE
        sp = ScaledParams(1.0, g, sign)
        sset = saddles(sp)
        for k in range(4):
            direct = phase(sset.roots[k], g, sign)
            assert abs(phase_at_saddle(sp, k) - direct) < 1e-12


# ---------------------------------------------------------------- tracing

EXPECTED_SECTORS = {
    # (sign, saddle): set of valley indices the two descending branches reach;
    # valley j sits at angle pi/10 + 2 pi j / 5
    (ZSign.POSITIVE, 1): {2, 1},
    (ZSign.POSITIVE, 0): {1, 0},
    (ZSign.NEGATIVE, 2): {2, 3},
    (ZSign.NEGATIVE, 3): {3, 4},
    (ZSign.NEGATIVE, 0): {4, 0},
}


@pytest.mark.parametrize("sign,k", sorted(EXPECTED_SECTORS, key=str))
def test_terminal_sectors_gamma_zero(sign, k):
    sp = ScaledParams(1.0, 0.0, sign)
    sectors = set()
    for d in (Direction.LEFT, Direction.RIGHT):
        path = trace_steepest(sp, k, d)
        sectors.add(path.terminal_sector)
        end = path.points[-1]
        ang = cmath.phase(end) % (2.0 * math.pi)
        assert _angdist(ang, VALLEY_ANGLES[path.terminal_sector]) < 0.05
    assert sectors == EXPECTED_SECTORS[(sign, k)]


def test_path_is_level_set_and_descending():
    sp = ScaledParams(1.0, 0.0, ZSign.POSITIVE)
    path = trace_steepest(sp, 1, Direction.RIGHT)
    t0 = path.points[0]
    f0 = phase(t0, 0.0, ZSign.POSITIVE)
    heights = []
    for t in path.points[1:]:
        df = phase(t, 0.0, ZSign.POSITIVE) - f0
        assert abs(df.real) <= 1e-9 * max(1.0, abs(f0) + abs(df))
        heights.append(-df.imag)
    assert all(b < a for a, b in zip(heights, heights[1:]))


def test_path_off_axis_gamma():
    sp = ScaledParams(1.0, 1.2, ZSign.POSITIVE)
    path = trace_steepest(sp, 0, Direction.RIGHT)
    assert abs(path.points[-1]) >= 8.0
    assert path.terminal_sector in range(5)


def test_trace_stalls_on_saddle_connection():
    # gamma = 0, z < 0: the two purely imaginary saddles share a level line,
    # so the downward branch from the upper one runs straight into the lower
    sp = ScaledParams(1.0, 0.0, ZSign.NEGATIVE)
    with pytest.raises(PathStalled):
        trace_steepest(sp, 1, Direction.LEFT)


def test_trace_stalls_on_conjugate_saddle_connection():
    # z > 0: saddles 3 and 0 are conjugates and share Re f, so the left branch
    # from saddle 3 runs through saddle 0.  At most gamma a step jumps past
    # saddle 0; at this one (drawn by the benchmark) a step lands 4e-8 from
    # it, where |f'| ~ 1.7e-7, and the corrector gives up
    sp = ScaledParams(1.0, 0.24738569133613494, ZSign.POSITIVE)
    with pytest.raises(PathStalled, match="corrector kept failing"):
        trace_steepest(sp, 3, Direction.LEFT)
    nearby = ScaledParams(1.0, 0.25, ZSign.POSITIVE)
    path = trace_steepest(nearby, 3, Direction.LEFT)
    t_partner = saddles(nearby).roots[0]
    assert min(abs(t - t_partner) for t in path.points) < 1e-4
    assert path.terminal_sector == 1


def test_stall_names_where_the_trace_stopped():
    # the conjugate-connection stall above stops next to saddle 0, the
    # conjugate partner of saddle 3
    sp = ScaledParams(1.0, 0.24738569133613494, ZSign.POSITIVE)
    with pytest.raises(PathStalled) as info:
        trace_steepest(sp, 3, Direction.LEFT)
    exc = info.value
    assert exc.saddle_index == 3 and exc.direction is Direction.LEFT
    assert abs(exc.point - saddles(sp).roots[0]) < 1e-4
    # a stall before tracing starts has no point
    with pytest.raises(PathStalled) as info:
        trace_steepest(ScaledParams(1.0, caustic_gamma(), ZSign.POSITIVE), 1, "right")
    assert (info.value.saddle_index, info.value.direction, info.value.point) == (
        1, Direction.RIGHT, None)
    plain = PathStalled("message")
    assert str(plain) == "message" and plain.args == ("message",)
    assert (plain.saddle_index, plain.direction, plain.point) == (None, None, None)


@pytest.mark.parametrize("k", [-1, 4, 1.0, True])
def test_trace_rejects_saddle_index_out_of_range(k):
    with pytest.raises(ValueError, match="saddle index"):
        trace_steepest(ScaledParams(1.0, 0.5, ZSign.NEGATIVE), k, Direction.LEFT)


@pytest.mark.parametrize("k", [-1, 4, 1.0])
def test_phase_at_saddle_rejects_saddle_index_out_of_range(k):
    with pytest.raises(ValueError, match="saddle index"):
        phase_at_saddle(ScaledParams(1.0, 0.5, ZSign.NEGATIVE), k)


def test_saddle_index_may_be_a_numpy_integer():
    sp = ScaledParams(1.0, 0.5, ZSign.NEGATIVE)
    assert phase_at_saddle(sp, np.int64(2)) == phase_at_saddle(sp, 2)
    path = trace_steepest(sp, np.int8(0), Direction.RIGHT)
    assert path == trace_steepest(sp, 0, Direction.RIGHT)
    assert type(path.saddle_index) is int


@pytest.mark.parametrize("name,value", [
    ("step", 0.0), ("step", -0.01), ("step", math.nan), ("step", math.inf),
    ("cutoff_radius", 0.0), ("cutoff_radius", math.nan), ("cutoff_radius", math.inf),
    ("cutoff_radius", 0.5),              # inside |t_0| = 1
])
def test_trace_rejects_bad_controls(name, value):
    with pytest.raises(ValueError, match=name):
        trace_steepest(ScaledParams(1.0, 0.0, ZSign.NEGATIVE), 0, Direction.RIGHT,
                       **{name: value})


def test_trace_rejects_degenerate():
    sp = ScaledParams(1.0, caustic_gamma(), ZSign.POSITIVE)
    with pytest.raises(PathStalled):
        trace_steepest(sp, 1, Direction.LEFT)


def test_polyline_serialization():
    path = trace_steepest(ScaledParams(1.0, 0.0, ZSign.NEGATIVE), 0, Direction.RIGHT)
    poly = path.to_polyline()
    assert len(poly) == len(path.points)
    assert all(len(pt) == 2 for pt in poly)
    assert poly[0][0] == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------ reference predictor-corrector


def _reference_trace(sp, k, direction, *, step=0.01, cutoff_radius=8.0,
                     level_tol=1e-10, max_steps=40000):
    """The tracer as it was before its corrector evaluated the phase once per
    iterate, kept verbatim (renamed, without the later input validation) as
    the reference the paths must equal bit for bit."""
    if not isinstance(direction, Direction):
        direction = Direction(direction)
    sset = saddles(sp)
    if sset.regime is Regime.DEGENERATE:
        raise PathStalled("saddle set is degenerate; no isolated branch to trace")
    t0 = sset.roots[k]
    gamma, sign_z = sp.gamma, sp.sign_z
    f0 = phase(t0, gamma, sign_z)
    fpp = phase_second_derivative(t0, gamma)
    if abs(fpp) < 1e-12:
        raise PathStalled("vanishing second derivative at the saddle")

    a1, a2 = _descent_angles(fpp)
    c1 = math.cos(a1)
    if abs(c1) > 1e-9:
        right, left = (a1, a2) if c1 > 0 else (a2, a1)
    else:
        right, left = (a1, a2) if math.sin(a1) > 0 else (a2, a1)
    alpha = right if direction is Direction.RIGHT else left

    def level(t: complex) -> float:
        # Im i(f - f0): zero on the steepest curve
        return (phase(t, gamma, sign_z) - f0).real

    def height(t: complex) -> float:
        # Re i(f - f0): strictly decreasing along a descending branch
        return -(phase(t, gamma, sign_z) - f0).imag

    def correct(t: complex):
        for _ in range(12):
            g = level(t)
            tol = level_tol * max(1.0, abs(phase(t, gamma, sign_z)))
            if abs(g) <= tol:
                return t
            fp = phase_derivative(t, gamma, sign_z)
            if abs(fp) < 1e-13:
                return None
            t = t - g * fp.conjugate() / abs(fp) ** 2
        return t if abs(level(t)) <= 10.0 * level_tol * max(1.0, abs(phase(t, gamma, sign_z))) else None

    points = [t0]
    h_prev = 0.0
    dt = step
    t = correct(t0 + step * cmath.exp(1j * alpha))
    if t is None or height(t) >= 0.0:
        raise PathStalled(f"could not leave saddle {k} in direction {direction.value}")
    points.append(t)
    h_prev = height(t)

    steps = 0
    good_streak = 0
    while abs(t) < cutoff_radius:
        steps += 1
        if steps > max_steps:
            raise PathStalled("step budget exhausted before reaching the cutoff radius")
        fp = phase_derivative(t, gamma, sign_z)
        if abs(fp) < 1e-13:
            raise PathStalled("ran into another saddle while tracing")
        tangent = 1j * fp.conjugate()
        cand = correct(t + dt * tangent / abs(tangent))
        if cand is None or height(cand) >= h_prev:
            dt *= 0.5
            good_streak = 0
            if dt < 1e-7:
                raise PathStalled("corrector kept failing; suspected saddle collision")
            continue
        t = cand
        h_prev = height(t)
        points.append(t)
        good_streak += 1
        if good_streak >= 5 and dt < step:
            dt = min(step, 2.0 * dt)
            good_streak = 0

    sector = _nearest_valley(cmath.phase(t) % (2.0 * math.pi))
    return SteepestPath(k, tuple(points), sector)


def _outcome(tracer, *args, **kwargs):
    try:
        path = tracer(*args, **kwargs)
    except PathStalled as exc:
        return "stalled", str(exc)
    return path.saddle_index, path.points, path.terminal_sector


def _assert_matches_reference(sp, k, direction, **controls):
    assert (_outcome(trace_steepest, sp, k, direction, **controls)
            == _outcome(_reference_trace, sp, k, direction, **controls))


def test_trace_is_bit_identical_to_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # defaults in 8 of 10 draws: a step of 0.001 makes a path 10x longer
    controls = ({},) * 8 + ({"step": 0.001}, {"cutoff_radius": 12.0})

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.floats(1.0, 200.0), st.floats(0.0, 2.5), st.sampled_from(ZSign),
                      st.integers(0, 3), st.sampled_from(Direction), st.sampled_from(controls))
    def check(lam, gamma, sign, k, direction, controls):
        _assert_matches_reference(ScaledParams(lam, gamma, sign), k, direction, **controls)

    check()


def test_powers_round_as_repeated_squaring():
    # the tracer's bit identity with _reference_trace rests on these: CPython
    # raises a complex to a small integer power by squaring, and the tangent
    # i*conj(f') has the modulus of f'
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = st.complex_numbers(max_magnitude=1e60, allow_nan=False, allow_infinity=False)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(finite, finite)
    def check(t, w):
        t2 = t * t
        assert t ** 4 == t2 * t2
        assert t ** 5 == t * (t2 * t2)
        assert abs(1j * w.conjugate()) == abs(w)

    check()


@pytest.mark.parametrize("gamma", [
    GAMMA_CAUSTIC - 1e-2, GAMMA_CAUSTIC - 1e-6, GAMMA_CAUSTIC - 1e-10,
    GAMMA_CAUSTIC + 1e-10, GAMMA_CAUSTIC + 1e-6, GAMMA_CAUSTIC + 1e-2,
    0.24738569133613494,                 # the conjugate-connection stall
])
def test_trace_is_bit_identical_to_reference_near_caustic(gamma):
    sp = ScaledParams(1.0, gamma, ZSign.POSITIVE)
    for k in range(4):
        for direction in Direction:
            _assert_matches_reference(sp, k, direction)


@pytest.mark.parametrize("gamma", [-0.0, 0.0, -0.7, -2.5])
@pytest.mark.parametrize("sign", list(ZSign))
def test_trace_is_bit_identical_to_reference_fixed(gamma, sign):
    # signed zeros and y < 0, which the hypothesis draws leave out
    sp = ScaledParams(1.0, gamma, sign)
    for k in range(4):
        for direction in Direction:
            _assert_matches_reference(sp, k, direction)
