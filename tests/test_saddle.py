import cmath
import hashlib
import math

import numpy as np
import pytest

import swallowtail.saddle as saddle_mod
from swallowtail import asymptotics
from swallowtail import (
    DegenerateScaling,
    Direction,
    DomainError,
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
    VALLEY_ANGLES,
    SaddleSet,
    SteepestPath,
    _degenerate_set,
    _descent_angles,
    _nearest_valley,
    phase,
    phase_derivative,
    phase_second_derivative,
)

GAMMA_CAUSTIC = 4.0 * 3.0 ** -0.75
_ULP = math.ulp(GAMMA_CAUSTIC)


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


@pytest.mark.parametrize("z", [1e-300, -1e-300, 1.3e-259, 5e-324])
def test_scale_names_lambda_underflow(z):
    # lambda = |z|^(5/4) rounds to 0 below |z| ~ 1.3e-259; ScaledParams would
    # refuse it as "lam must be ...", a field the caller never passed
    with pytest.raises(DomainError, match="underflows"):
        scale(Params(0.0, 1.0, z))
    assert scale(Params(0.0, 1.0, math.copysign(1.4e-259, z))).lam == 5e-324


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
    (1e-12, Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR),
    (1e-10, Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR),
    pytest.param(-100 * _ULP, Regime.TWO_CONJUGATE_PAIRS, id="-100ulp-two_conjugate_pairs"),
    pytest.param(-30 * _ULP, Regime.DEGENERATE, id="-30ulp-degenerate"),
    pytest.param(30 * _ULP, Regime.DEGENERATE, id="30ulp-degenerate"),
    pytest.param(100 * _ULP, Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR, id="100ulp-real_pair"),
])
def test_regime_next_to_the_caustic(offset, regime):
    # z > 0: the band saddles() calls degenerate is the double root of one
    # Ferrari factor, some 40 ulps (9e-15) to either side of the caustic
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


def _polish(roots, gamma: float, sigma: float):
    """Two Newton steps on each companion-matrix eigenvalue (a numpy array),
    kept verbatim from the numpy solve for ``_reference_saddles``."""
    for _ in range(2):
        fp = roots ** 4 + gamma * roots + sigma
        fpp = 4.0 * roots ** 3 + gamma
        mask = np.abs(fpp) > 1e-30
        roots = np.where(mask, roots - fp / np.where(mask, fpp, 1.0), roots)
    return roots


_PAIR_TOL = 1e-9          # conjugate matching / real-root detection


def _reference_saddles(sp):
    """``saddles`` as it was with one labelling block per regime and the
    roots from ``np.roots``, kept verbatim (renamed) as a reference."""
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


def _mp_roots(gamma, sigma):
    """The four roots of t^4 + gamma t + sigma to 40 digits, from neither
    float solve: ``mpmath.polyroots`` up to |gamma| = 1e8.  Beyond it, where
    polyroots loses the small root, the small root of r = -(sigma + r^4)/gamma
    and the three large ones of t = w (-gamma - sigma/t)^(1/3), w a cube root
    of 1: both maps contract by about |gamma|^(-4/3)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        if abs(gamma) <= 1e8:
            return mpmath.polyroots([1, 0, 0, gamma, sigma], maxsteps=100, extraprec=40)
        g = mpmath.mpf(gamma)
        small = -sigma / g
        large = [mpmath.cbrt(-g) * mpmath.root(1, 3, j) for j in range(3)]
        for _ in range(4):
            small = -(sigma + small ** 4) / g
            large = [t * mpmath.cbrt((-g - sigma / t) / t ** 3) for t in large]
        return [small, *large]


def _ulps_from_mp(t, ref):
    """The distance of t from the nearest of the roots ``ref``, in ulps of it."""
    near = min(ref, key=lambda r: abs(t - complex(r)))
    return float(abs(near - t)) / math.ulp(abs(complex(near)))


def test_saddles_match_reference_and_mpmath():
    # the numpy solve (np.roots and its polish) labels alike and agrees to
    # 1e-12, and every root is within 8 ulps of mpmath's, except in the z > 0
    # caustic band, where the double root is ill-conditioned for every solve
    rng = np.random.default_rng(15)
    c = caustic_gamma()
    ulps = [c + k * math.ulp(c) for k in range(-100, 300)]
    gammas = [*rng.uniform(-6.0, 6.0, 250), *ulps, *(-g for g in ulps),
              *(rng.choice((-1.0, 1.0), 200) * 10.0 ** rng.uniform(-300.0, 8.0, 200)),
              *(rng.choice((-1.0, 1.0), 40) * 10.0 ** rng.uniform(8.0, 230.7, 40))]
    near = set(ulps)
    degenerate = 0
    for i, gamma in enumerate(gammas):
        # polyroots takes some 5 ms: every third gamma, every 50th beside the caustic
        mp_check = i % (50 if abs(gamma) in near else 3) == 0
        for sign in ZSign:
            sp = ScaledParams(1.0, float(gamma), sign)
            got = saddles(sp)
            if got.regime is Regime.DEGENERATE:
                # the band is centred on the caustic, not one-sided
                assert abs(abs(sp.gamma) - c) <= 64 * math.ulp(c), sp
                degenerate += 1
            elif got.regime is Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR:
                up, dn = (t for t in got.roots if t.imag != 0.0)
                assert up == dn.conjugate(), sp
            if sign is ZSign.POSITIVE and abs(abs(sp.gamma) - c) < 1e-6:
                continue
            ref = _reference_saddles(sp)
            assert got.regime is ref.regime, sp
            for t, r in zip(got.roots, ref.roots):
                assert abs(t - r) <= 1e-12 * abs(r), sp
            if mp_check:
                mp = _mp_roots(sp.gamma, sign.value)
                assert max(_ulps_from_mp(t, mp) for t in got.roots) <= 8.0, sp
    assert degenerate >= 150


def test_caustic_labels_change_at_most_twice():
    # z > 0 from 300 ulps below the caustic to 6000 above it, and mirrored at
    # -gamma: two conjugate pairs, then degenerate, then a real pair, each
    # label in one run; a degenerate set holds the caustic's roots (the double
    # root -3^(-1/4) and 3^(-1/4) (1 +- i sqrt 2)) to 1e-6
    c = caustic_gamma()
    order = [Regime.TWO_CONJUGATE_PAIRS, Regime.DEGENERATE, Regime.REAL_PAIR_PLUS_CONJUGATE_PAIR]
    r = 3.0 ** -0.25
    caustic_roots = (-r, r * (1.0 + 1j * math.sqrt(2.0)), r * (1.0 - 1j * math.sqrt(2.0)))
    for mirror in (1.0, -1.0):
        labels = []
        for k in range(-300, 6001):
            sset = saddles(ScaledParams(1.0, mirror * (c + k * math.ulp(c)), ZSign.POSITIVE))
            if not labels or labels[-1] is not sset.regime:
                labels.append(sset.regime)
            if sset.regime is Regime.DEGENERATE:
                for t in sset.roots:
                    assert min(abs(t - mirror * s) for s in caustic_roots) <= 1e-6, (k, sset)
        assert labels == order, mirror


def test_signed_zeros_share_one_root_solve():
    # -0.0 == 0.0 and both hash alike, so they share a cache entry: the
    # solve gives both the same bits, and the second costs no solve
    for sign in ZSign:
        for gammas in ((-0.0, 0.0), (0.0, -0.0)):
            fresh = [_saddle_bits(saddle_mod._solve_saddles.__wrapped__(gamma, sign))
                     for gamma in gammas]
            assert fresh[0] == fresh[1], sign
            saddle_mod._solve_saddles.cache_clear()
            for gamma in gammas:
                assert _saddle_bits(saddles(ScaledParams(1.0, gamma, sign))) == fresh[0]
            assert saddle_mod._solve_saddles.cache_info().misses == 1


@pytest.mark.parametrize("lam,gamma,sign", [
    (10.0, 0.7, ZSign.NEGATIVE),                 # real pair plus conjugate pair
    (10.0, 0.5, ZSign.POSITIVE),                 # two conjugate pairs
    (10.0, 2.0, ZSign.POSITIVE),                 # beyond the caustic
])
def test_one_root_solve_per_gamma_and_sign(lam, gamma, sign):
    # the geometry sequence: saddles, the regime's asymptotics and all 8
    # branches, which all ask for the same quartic
    saddle_mod._solve_saddles.cache_clear()
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
    assert saddle_mod._solve_saddles.cache_info().misses == 1


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


def _assert_spliced(sp, k, j, sector, **controls):
    """The branch of saddle k in direction left runs through its conjugate
    partner j and goes on, bit for bit, as the partner's own left branch."""
    path = trace_steepest(sp, k, Direction.LEFT, **controls)
    tail = trace_steepest(sp, j, Direction.LEFT, **controls)
    i = path.points.index(saddles(sp).roots[j])
    assert path.points[i:] == tail.points
    assert (path.saddle_index, path.terminal_sector) == (k, tail.terminal_sector) == (k, sector)
    return path


def test_trace_goes_on_through_saddle_connection():
    # gamma = 0, z < 0: the two purely imaginary saddles share a level line,
    # so the downward branch from the upper one, i, runs straight into the
    # lower one, -i, and on into sector 3
    _assert_spliced(ScaledParams(1.0, 0.0, ZSign.NEGATIVE), 1, 3, 3)


def test_trace_goes_on_through_conjugate_saddle_connection():
    # z > 0: saddles 3 and 0 are conjugates and share Re f, so the left branch
    # from saddle 3 runs through saddle 0.  At this gamma (drawn by the
    # benchmark) a fixed step of 0.01 lands 4e-8 from saddle 0, where
    # |f'| ~ 1.7e-7, and the reference's corrector gives up
    _assert_spliced(ScaledParams(1.0, 0.24738569133613494, ZSign.POSITIVE), 3, 0, 1)


def test_conjugate_saddles_share_re_f_bit_for_bit():
    # the solve stores conjugate saddles as exact conjugates, and the phase
    # of a conjugate is the conjugate of the phase: every rounding in it is
    # symmetric in the sign of the imaginary part
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.floats(-1e6, 1e6), st.sampled_from(ZSign))
    def check(gamma, sign):
        roots = saddles(ScaledParams(1.0, gamma, sign)).roots
        for t in roots:
            if t.imag != 0.0:
                assert t.conjugate() in roots
                f, f_conj = phase(t, gamma, sign), phase(t.conjugate(), gamma, sign)
                assert f_conj == f.conjugate()

    check()


def test_trace_small_step_reaches_the_cutoff():
    # saddle 1 = i has Im f = -0.8 < 0, so its upward branch could meet its
    # partner -i; the step still grows from 1e-5, and the branch reaches the
    # cutoff radius
    sp = ScaledParams(1.0, 0.0, ZSign.NEGATIVE)
    path = trace_steepest(sp, 1, Direction.RIGHT, step=1e-5)
    assert 8.0 <= abs(path.points[-1]) <= 8.0 + 1e-5


def test_point_count_does_not_scale_as_one_over_step():
    # a step fixed at 1e-6 from i up to the partner's height, at |t| ~ 1.67,
    # took 650 670 points; growing from 1e-6 it takes some 50
    sp = ScaledParams(1.0, 0.0, ZSign.NEGATIVE)
    path = trace_steepest(sp, 1, Direction.RIGHT, step=1e-6)
    assert len(path.points) < 1000
    assert 8.0 <= abs(path.points[-1]) <= 8.0 + 1e-6


def test_trace_ends_at_a_cutoff_inside_the_saddles():
    # a cutoff radius of 1.4 lies close to the saddles (|t_j| = 1), where the
    # growing step must still stop within one step of it
    sp = ScaledParams(1.0, 0.0, ZSign.NEGATIVE)
    path = trace_steepest(sp, 0, Direction.RIGHT, cutoff_radius=1.4)
    assert 1.4 <= abs(path.points[-1]) <= 1.4 + 0.01


@pytest.mark.parametrize("step,cutoff", [(1e30, 1e37), (1e40, 1e45), (1e60, 4e61)])
def test_huge_step_stalls_at_the_saddle(step, cutoff):
    # the corrector cannot bring the first step back to the level curve; for
    # the last two |f'| ~ |t|^4 >= 1e160, whose square overflows a float, so
    # the iterate fails as one with |f'| < 1e-13 does
    sp = ScaledParams(1.0, 0.0, ZSign.NEGATIVE)
    with pytest.raises(PathStalled, match="could not leave saddle 0 in direction right") as info:
        trace_steepest(sp, 0, Direction.RIGHT, step=step, cutoff_radius=cutoff)
    assert info.value.point == saddles(sp).roots[0]


def test_stall_names_where_the_trace_stopped():
    # z > 0 beyond the caustic: near this gamma the real saddle 1 shares Re f
    # with the complex saddle 0, which is no conjugate of it, and its right
    # branch stalls next to saddle 0
    sp = ScaledParams(1.0, 3.0097119577698, ZSign.POSITIVE)
    with pytest.raises(PathStalled, match="corrector kept failing") as info:
        trace_steepest(sp, 1, Direction.RIGHT)
    exc = info.value
    assert exc.saddle_index == 1 and exc.direction is Direction.RIGHT
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
    ("step", 1e-8),                      # below the halving floor 1e-7
    ("cutoff_radius", 0.0), ("cutoff_radius", math.nan), ("cutoff_radius", math.inf),
    ("cutoff_radius", 0.5),              # inside |t_0| = 1
    ("cutoff_radius", 1e100),            # its fifth power overflows a float
])
def test_trace_rejects_bad_controls(name, value):
    with pytest.raises(ValueError, match=name):
        trace_steepest(ScaledParams(1.0, 0.0, ZSign.NEGATIVE), 0, Direction.RIGHT,
                       **{name: value})


def test_trace_rejects_degenerate():
    sp = ScaledParams(1.0, caustic_gamma(), ZSign.POSITIVE)
    with pytest.raises(PathStalled):
        trace_steepest(sp, 1, Direction.LEFT)


@pytest.mark.parametrize("gamma,sign", [(0.0, ZSign.NEGATIVE), (GAMMA_CAUSTIC, ZSign.POSITIVE)])
def test_cutoff_inside_the_saddle_is_refused_on_every_call(gamma, sign):
    # the cached core looks the saddle up and refuses the cutoff before all
    # else: a ValueError on every call, none cached, and ahead of the
    # degenerate set's PathStalled at the caustic
    sp = ScaledParams(1.0, gamma, sign)
    saddle_mod._trace_branch.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match=r"cutoff_radius 0\.5 does not exceed \|t_1\|"):
            trace_steepest(sp, 1, Direction.LEFT, cutoff_radius=0.5)
    info = saddle_mod._trace_branch.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


@pytest.mark.parametrize("mirror", [1.0, -1.0])
def test_second_derivative_is_bounded_next_to_the_caustic(mirror):
    # the tracer has no stall for a vanishing f''(t_k): a degenerate set
    # stalls first, and every other set within 6 000 ulps of either caustic
    # keeps |f''| >= 3.1e-7 (least 40 ulps nearer 0 than it), far above rounding
    least = math.inf
    for n in range(-6000, 6001):
        gamma = mirror * (GAMMA_CAUSTIC + n * _ULP)
        sset = saddle_mod._solve_saddles.__wrapped__(gamma, ZSign.POSITIVE)
        if sset.regime is not Regime.DEGENERATE:
            least = min(least, *(abs(phase_second_derivative(t, gamma)) for t in sset.roots))
    assert least >= 1e-8


def test_second_derivative_is_bounded_on_a_gamma_sweep(rng):
    for sign in ZSign:
        for gamma in rng.uniform(-5.0, 5.0, 2000):
            sset = saddle_mod._solve_saddles.__wrapped__(float(gamma), sign)
            if sset.regime is not Regime.DEGENERATE:
                assert min(abs(phase_second_derivative(t, gamma)) for t in sset.roots) >= 1e-8


def _nearest_valley_by_search(angle):
    """The valley centre nearest to angle around the circle, by the five-way
    search that the tracer's closed form replaced."""
    return min(range(5), key=lambda k: _angdist(angle, VALLEY_ANGLES[k]))


def test_sector_closed_form_matches_the_nearest_valley_search(rng):
    angles = [*rng.uniform(0.0, 2.0 * math.pi, 10000), *VALLEY_ANGLES, 0.0, 2.0 * math.pi]
    for angle in map(float, angles):
        assert _nearest_valley(angle) == _nearest_valley_by_search(angle), angle
    assert [_nearest_valley(a) for a in VALLEY_ANGLES] == list(range(5))


def test_polyline_serialization():
    path = trace_steepest(ScaledParams(1.0, 0.0, ZSign.NEGATIVE), 0, Direction.RIGHT)
    poly = path.to_polyline()
    assert len(poly) == len(path.points)
    assert all(len(pt) == 2 for pt in poly)
    assert poly[0][0] == pytest.approx(1.0, abs=1e-12)


def test_trace_step_grows_between_the_saddles():
    # a fixed step of 0.01 from |t| = 1 to 8 takes 710 points.  Saddle 0 = 1
    # is real, so no branch from it can meet a conjugate partner: its step
    # grows to a 15th of the distance to the nearest other saddle
    path = trace_steepest(ScaledParams(1.0, 0.0, ZSign.NEGATIVE), 0, Direction.RIGHT)
    assert len(path.points) < 50
    # the left branch of saddle 3 grows its step on the way to its partner,
    # saddle 0, too, and goes on through it: fewer points than the fixed step
    # of the reference
    sp = ScaledParams(1.0, 0.25, ZSign.POSITIVE)
    path = _assert_spliced(sp, 3, 0, 1)
    assert len(path.points) < len(_reference_trace(sp, 3, Direction.LEFT).points) / 2


def _branch_bits(sp, **controls):
    """repr of every branch of sp, keyed by (k, direction): its index, points
    and sector, or a stall's message, index, direction and point."""
    bits = {}
    for k in range(4):
        for direction in Direction:
            try:
                path = trace_steepest(sp, k, direction, **controls)
                bits[k, direction] = repr((path.saddle_index, path.points, path.terminal_sector))
            except PathStalled as exc:
                bits[k, direction] = repr((str(exc), exc.saddle_index, exc.direction.value,
                                           exc.point))
    return bits


def test_trace_bits_are_pinned():
    # SHA-256 of the branch bits, in order, at these (gamma, sign z): a branch
    # spliced through saddle 1 -> 3 (gamma = 0, z < 0) and 3 -> 0 (0.25, z > 0),
    # the stall of saddle 1 right next to saddle 0 (3.0097..., z > 0), and each
    # regime off the axis.  Recorded before the branch cache; any change to a
    # bit of the tracer shows here, or a libm whose exp, cos or atan2 round
    # otherwise
    pairs = ((0.0, ZSign.NEGATIVE), (0.25, ZSign.POSITIVE), (3.0097119577698, ZSign.POSITIVE),
             (-0.7, ZSign.POSITIVE), (1.2, ZSign.NEGATIVE), (2.0, ZSign.POSITIVE))
    saddle_mod._trace_branch.cache_clear()
    digest = hashlib.sha256()
    for gamma, sign in pairs:
        for bits in _branch_bits(ScaledParams(1.0, gamma, sign)).values():
            digest.update(bits.encode())
    assert digest.hexdigest() == (
        "52ae25ce688cde73e6fbb531d17a7c30b2412e0aca65aa9af137a8356340eada")


@pytest.mark.parametrize("gamma,sign", [
    (0.7, ZSign.NEGATIVE),                       # real pair plus conjugate pair
    (0.25, ZSign.POSITIVE),                      # two conjugate pairs, 3 left spliced into 0
    (2.0, ZSign.POSITIVE),                       # beyond the caustic
])
def test_one_trace_per_branch_and_gamma_and_sign(gamma, sign):
    # lambda plays no part in the path: a second lambda gets the same path
    # objects, and a spliced branch takes its partner's from the cache
    saddle_mod._trace_branch.cache_clear()
    keys = [(k, direction) for k in range(4) for direction in Direction]
    paths = [[trace_steepest(ScaledParams(lam, gamma, sign), k, direction)
              for k, direction in keys] for lam in (1.0, 200.0)]
    assert all(a is b for a, b in zip(*paths))
    assert saddle_mod._trace_branch.cache_info().misses == 8


def test_signed_zeros_share_one_trace():
    # -0.0 == 0.0 and both hash alike, so they share a cache entry: traced
    # apart, the two give all 8 branches the same bits
    for sign in ZSign:
        fresh = []
        for gamma in (-0.0, 0.0):
            saddle_mod._trace_branch.cache_clear()
            fresh.append(_branch_bits(ScaledParams(1.0, gamma, sign)))
        assert fresh[0] == fresh[1], sign
        saddle_mod._trace_branch.cache_clear()
        for gamma in (0.0, -0.0):
            assert _branch_bits(ScaledParams(1.0, gamma, sign)) == fresh[0]
        assert saddle_mod._trace_branch.cache_info().misses == 8


def test_stall_is_not_cached():
    sp = ScaledParams(1.0, 3.0097119577698, ZSign.POSITIVE)
    saddle_mod._trace_branch.cache_clear()
    stalls = []
    for _ in range(2):
        with pytest.raises(PathStalled) as info:
            trace_steepest(sp, 1, Direction.RIGHT)
        exc = info.value
        stalls.append((str(exc), exc.saddle_index, exc.direction, exc.point))
    assert stalls[0] == stalls[1]
    info = saddle_mod._trace_branch.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


@pytest.mark.parametrize("k,controls", [
    (True, {}), (1.5, {}), (0, {"step": 1e-8}), (0, {"cutoff_radius": math.nan}),
])
def test_bad_input_is_refused_before_the_cache(k, controls):
    saddle_mod._trace_branch.cache_clear()
    with pytest.raises(ValueError):
        trace_steepest(ScaledParams(1.0, 0.0, ZSign.NEGATIVE), k, Direction.RIGHT, **controls)
    info = saddle_mod._trace_branch.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_trace_defaults_are_unchanged():
    # the CLI takes its --step and --cutoff defaults from these
    assert trace_steepest.__kwdefaults__ == {"step": 0.01, "cutoff_radius": 8.0}


def test_splice_calls_trace_steepest_once(monkeypatch):
    # the splice takes the partner's branch from the branch cache, not through
    # the module attribute, so a wrapper on it sees only the outermost call
    calls = []
    traced = saddle_mod.trace_steepest

    def counted(*args, **kwargs):
        calls.append(args)
        return traced(*args, **kwargs)

    monkeypatch.setattr(saddle_mod, "trace_steepest", counted)
    saddle_mod._trace_branch.cache_clear()
    sp = ScaledParams(1.0, 0.25, ZSign.POSITIVE)
    path = saddle_mod.trace_steepest(sp, 3, Direction.LEFT)
    assert saddles(sp).roots[0] in path.points           # spliced through saddle 0
    assert len(calls) == 1


# ------------------------------------------------ reference predictor-corrector


def _reference_trace(sp, k, direction, *, step=0.01, cutoff_radius=8.0,
                     level_tol=1e-10, max_steps=40000):
    """The tracer as it was before its corrector evaluated the phase once per
    iterate, kept verbatim (renamed, without the later input validation) as
    the reference that ``_assert_matches_reference`` holds the paths to."""
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


def _reference_outcome(sp, k, direction, **controls):
    """The reference path, or its stall as (message, point).  The reference
    raises ``PathStalled`` without a point, so the point is read off its
    frame: the last accepted point, or None if the stall came before the
    point list existed."""
    try:
        return _reference_trace(sp, k, direction, **controls)
    except PathStalled as exc:
        tb = exc.__traceback__
        while tb.tb_frame.f_code is not _reference_trace.__code__:
            tb = tb.tb_next
        points = tb.tb_frame.f_locals.get("points")
        return str(exc), points[-1] if points else None


def _distances_to_polyline(points, polyline):
    """The distance from each point to the nearest segment of the polyline."""
    p = np.asarray(points)[:, None]
    a = np.asarray(polyline[:-1])[None, :]
    d = np.asarray(polyline[1:])[None, :] - a
    s = np.clip(((p - a) * d.conj()).real / abs(d) ** 2, 0.0, 1.0)
    return abs(p - a - s * d).min(axis=1)


def _assert_matches_reference(sp, k, direction, **controls):
    """The tracer against the fixed-step reference.  A branch that runs
    through the conjugate partner t_j of its saddle holds t_j, and from it on
    is bit for bit the partner's own branch; whether the reference steps past
    t_j, and into which valley, rests on roundoff, so it is not compared.
    Any other branch has the reference's outcome, and for a stall the same
    message and point; the step may grow from the first point on, so only
    the saddle and that point are pinned, and beyond them the path follows
    the same curve into the same valley.  Every path holds the level set of
    f(t_k), with strictly falling heights, and ends within one step of the
    cutoff."""
    reference = _reference_outcome(sp, k, direction, **controls)
    roots = saddles(sp).roots
    t_partner = roots[k].conjugate()
    try:
        path = trace_steepest(sp, k, direction, **controls)
    except PathStalled as exc:
        assert (str(exc), exc.point) == reference
        return
    spliced = roots[k].imag != 0.0 and t_partner in path.points
    if spliced:
        tail = trace_steepest(sp, roots.index(t_partner), direction, **controls)
        assert path.points[path.points.index(t_partner):] == tail.points
        assert (path.saddle_index, path.terminal_sector) == (k, tail.terminal_sector)
    else:
        assert isinstance(reference, SteepestPath), reference
        assert (path.saddle_index, path.terminal_sector) == (
            reference.saddle_index, reference.terminal_sector)
        assert path.points[:2] == reference.points[:2]
    f0 = phase(roots[k], sp.gamma, sp.sign_z)
    heights = [0.0]
    for t in path.points[1:]:
        f = phase(t, sp.gamma, sp.sign_z)
        assert abs((f - f0).real) <= 1e-10 * max(1.0, abs(f))
        heights.append(-(f - f0).imag)
    assert all(b < a for a, b in zip(heights, heights[1:]))
    step = controls.get("step", 0.01)
    cutoff = controls.get("cutoff_radius", 8.0)
    assert cutoff <= abs(path.points[-1]) <= cutoff + step
    if spliced:
        return
    # the reference points past the first two and not below the path's last
    # height lie on the stretch of curve that both cover: the path's last
    # step may stop short of the reference's last point by up to one step
    covered = [t for t in reference.points[2:]
               if -(phase(t, sp.gamma, sp.sign_z) - f0).imag >= heights[-1]]
    if covered:
        assert _distances_to_polyline(covered, path.points[1:]).max() <= 2.5e-3


def test_trace_is_bit_identical_to_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # defaults in 8 of 11 draws: a step of 0.001 makes a path 10x longer; a
    # cutoff radius of 2 lies close to the saddles (|t_j| < 1.5 here)
    controls = ({},) * 8 + ({"step": 0.001}, {"cutoff_radius": 12.0}, {"cutoff_radius": 2.0})

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.floats(1.0, 200.0), st.floats(-2.5, 2.5), st.sampled_from(ZSign),
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
    0.24738569133613494,                 # the reference's conjugate-connection stall
])
def test_trace_is_bit_identical_to_reference_near_caustic(gamma):
    sp = ScaledParams(1.0, gamma, ZSign.POSITIVE)
    for k in range(4):
        for direction in Direction:
            _assert_matches_reference(sp, k, direction)


@pytest.mark.parametrize("gamma", [-0.0, 0.0, -0.7, -2.5])
@pytest.mark.parametrize("sign", list(ZSign))
def test_trace_is_bit_identical_to_reference_fixed(gamma, sign):
    # signed zeros and y < 0 at fixed points, beside the hypothesis draws
    sp = ScaledParams(1.0, gamma, sign)
    for k in range(4):
        for direction in Direction:
            _assert_matches_reference(sp, k, direction)
