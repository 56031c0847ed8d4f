import math

import numpy as np
import pytest

from swallowtail import (
    Branch,
    DomainError,
    Form,
    Params,
    QuadratureConfig,
    RegimeError,
    ScaledParams,
    ZSign,
    below_caustic_obstruction,
    caustic_gamma,
    dominance_gap,
    eval_q,
    leading_from_contributions,
    leading_q00,
    pearcey_hill_y,
    pearcey_hill_zeros,
    predicted_zero,
    predicted_zeros,
    saddle_contributions,
)

GAMMA_CAUSTIC = 4.0 * 3.0 ** -0.75

# Frozen from direct evaluation of the closed-form zero sequences.
PREDICTED_POS = [2.706225118282529, 5.812227421454514, 8.530281300889088]
PREDICTED_NEG = [-2.3729955252756993, -4.673888498211006, -6.7098693447565045]


# ------------------------------------------------------------ leading order


def test_leading_q00_rejects_origin():
    with pytest.raises(DomainError):
        leading_q00(0.0)


def test_leading_vanishes_near_predicted_zeros():
    assert abs(leading_q00(2.7065)) < 1e-4
    assert abs(leading_q00(-2.3730)) < 1e-4


def test_leading_is_small_perturbation_of_oracle_far_out(cfg):
    # measured: |leading - oracle| / max |Q| over the surrounding oscillation
    # period is 6.6e-3 at z = -20; the 5e-2 bound leaves maneuvering room
    z = -20.0
    oracle = eval_q(Params(0.0, 0.0, z), cfg).value.real
    lam = abs(z) ** 1.25
    lams = np.linspace(lam - 0.5 * math.pi / 0.8, lam + 0.5 * math.pi / 0.8, 21)
    peak = max(abs(eval_q(Params(0.0, 0.0, -(l ** 0.8)), cfg).value.real) for l in lams)
    assert abs(leading_q00(z) - oracle) / peak < 0.05


def _extremum_relative_error(target_abs_z: float, positive: bool, cfg) -> float:
    # compare at a cosine extremum so the relative error is well defined
    lam_t = target_abs_z ** 1.25
    if positive:
        j = round((4.0 * lam_t / (5.0 * math.sqrt(2.0)) - math.pi / 8.0) / math.pi)
        lam = (5.0 * math.sqrt(2.0) / 4.0) * (math.pi / 8.0 + j * math.pi)
        z = lam ** 0.8
    else:
        j = max(1, round((0.8 * lam_t - math.pi / 4.0) / math.pi))
        lam = 1.25 * (math.pi / 4.0 + j * math.pi)
        z = -(lam ** 0.8)
    oracle = eval_q(Params(0.0, 0.0, z), cfg).value.real
    return abs(leading_q00(z) - oracle) / abs(oracle)


def test_leading_accuracy_improves_with_z(cfg):
    for positive in (True, False):
        err5 = _extremum_relative_error(5.0, positive, cfg)
        err10 = _extremum_relative_error(10.0, positive, cfg)
        assert err10 < err5


def _subdominant_q00(z: float) -> float:
    """The z < 0 term of the complex saddle -i, which ``leading_q00`` drops:
    f(-i) = 4i/5 and f''(-i) = 4i, so it is |z|^(1/4) sqrt(pi/(2 lam)) e^(-4 lam/5)."""
    lam = abs(z) ** 1.25
    return abs(z) ** 0.25 * math.sqrt(0.5 * math.pi / lam) * math.exp(-0.8 * lam)


def test_subdominant_term_of_saddle_minus_i():
    z = -3.0
    sp = ScaledParams(abs(z) ** 1.25, 0.0, ZSign.NEGATIVE)
    extra = leading_from_contributions(sp).real - leading_q00(z)
    assert extra == pytest.approx(_subdominant_q00(z), rel=1e-12)


# ------------------------------------------------------------ predictions


def test_predicted_zero_values():
    pos = predicted_zeros(Branch.POSITIVE_Z, 2)
    neg = predicted_zeros(Branch.NEGATIVE_Z, 2)
    for pred, expected in zip(pos, PREDICTED_POS):
        assert pred.z_predicted == pytest.approx(expected, abs=1e-12)
        assert pred.z_predicted > 0
    for pred, expected in zip(neg, PREDICTED_NEG):
        assert pred.z_predicted == pytest.approx(expected, abs=1e-12)
        assert pred.z_predicted < 0


def test_predictions_in_s_normalization():
    q = predicted_zeros(Branch.POSITIVE_Z, 1, Form.Q)
    s = predicted_zeros(Branch.POSITIVE_Z, 1, Form.S)
    for a, b in zip(q, s):
        assert b.z_predicted == pytest.approx(5.0 ** 0.2 * a.z_predicted, rel=1e-15)
        assert b.form is Form.S


def test_prediction_magnitudes_increase():
    for branch in Branch:
        preds = predicted_zeros(branch, 50)
        mags = [abs(p.z_predicted) for p in preds]
        assert all(b > a for a, b in zip(mags, mags[1:]))


def test_spacing_ratio_decreases_to_one():
    for branch in Branch:
        mags = [abs(p.z_predicted) for p in predicted_zeros(branch, 51)]
        ratios = [b / a for a, b in zip(mags, mags[1:])]
        assert all(r > 1.0 for r in ratios)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_negative_m_max_rejected():
    with pytest.raises(ValueError):
        predicted_zeros(Branch.POSITIVE_Z, -1)
    with pytest.raises(ValueError, match="m must be at least 0"):
        predicted_zero(Branch.NEGATIVE_Z, -1)
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        pearcey_hill_zeros(-1)


@pytest.mark.parametrize("m", [1.5, 2.0, True, math.nan])
def test_prediction_index_must_be_an_integer(m):
    # a float m gave a prediction with m = 1.5 or a TypeError, True was
    # taken as 1, and NaN read as too large
    with pytest.raises(ValueError, match="m must be an integer"):
        predicted_zero(Branch.POSITIVE_Z, m)
    with pytest.raises(ValueError, match="m_max must be an integer"):
        predicted_zeros(Branch.POSITIVE_Z, m)


def test_oracle_sign_change_brackets_each_predicted_zero(cfg):
    # the function changes sign between the two predicted extrema flanking
    # every predicted zero with |z| <= 12 (cosine argument offset by +-pi/2)
    def extremum_z(branch, j):
        if branch is Branch.POSITIVE_Z:
            return ((5.0 * math.sqrt(2.0) / 4.0) * (math.pi / 8.0 + j * math.pi)) ** 0.8
        return -((1.25 * (math.pi / 4.0 + j * math.pi)) ** 0.8)

    for branch, m_top in ((Branch.POSITIVE_Z, 3), (Branch.NEGATIVE_Z, 4)):
        for m in range(m_top + 1):
            z_m = predicted_zeros(branch, m)[m].z_predicted
            assert abs(z_m) <= 12.0
            lo = eval_q(Params(0.0, 0.0, extremum_z(branch, m)), cfg).value.real
            hi = eval_q(Params(0.0, 0.0, extremum_z(branch, m + 1)), cfg).value.real
            assert lo * hi < 0.0


def test_axis_envelope_values():
    from swallowtail import axis_envelope
    lam = 2.0 ** 1.25
    assert axis_envelope(-2.0) == pytest.approx(2.0 ** 0.25 * math.sqrt(2.0 * math.pi / lam))
    assert axis_envelope(2.0) == pytest.approx(
        2.0 ** 0.25 * math.sqrt(2.0 * math.pi / lam) * math.exp(-4.0 * lam / (5.0 * math.sqrt(2.0))))
    with pytest.raises(DomainError):
        axis_envelope(0.0)


# ------------------------------------------------------------ Pearcey-Hill


def test_pearcey_hill_first_value():
    # direct evaluation of 5 * 2^(-6/5) * (5/8)^(4/5) * pi^(4/5)
    assert pearcey_hill_zeros(0)[0] == pytest.approx(3.73385906628579, abs=1e-10)


def test_pearcey_hill_recovers_transported_sequence():
    ph = pearcey_hill_zeros(20)
    preds = predicted_zeros(Branch.POSITIVE_Z, 20)
    for n in range(21):
        assert abs(pearcey_hill_y(preds[n].z_predicted) - ph[n]) < 1e-10


def test_pearcey_hill_monotone():
    ys = pearcey_hill_zeros(30)
    assert all(b > a for a, b in zip(ys, ys[1:]))


# ------------------------------------------------------------ contributions


def test_contributions_rebuild_cosine_positive():
    for z in (4.0, 9.0, 16.0):
        sp = ScaledParams(z ** 1.25, 0.0, ZSign.POSITIVE)
        total = leading_from_contributions(sp)
        assert abs(total.imag) < 1e-15 * max(1.0, abs(total))
        assert total.real == pytest.approx(leading_q00(z), rel=1e-10, abs=1e-30)


def test_contributions_rebuild_cosine_negative():
    for z in (-4.0, -9.0, -16.0):
        sp = ScaledParams(abs(z) ** 1.25, 0.0, ZSign.NEGATIVE)
        total = leading_from_contributions(sp)
        assert total.real == pytest.approx(leading_q00(z) + _subdominant_q00(z), rel=1e-10)


def test_contribution_fields():
    sp = ScaledParams(10.0, 0.5, ZSign.POSITIVE)
    contribs = saddle_contributions(sp)
    assert [c.saddle_index for c in contribs] == [0, 1]
    for c in contribs:
        assert abs(c.amplitude) > 0.0
        assert c.exponent_real <= 0.0      # both contour saddles decay
    # the right-pair saddle decays strictly faster for gamma > 0
    assert contribs[0].exponent_real < contribs[1].exponent_real


def test_contributions_regime_errors():
    with pytest.raises(RegimeError):
        saddle_contributions(ScaledParams(1.0, 2.5, ZSign.POSITIVE))
    with pytest.raises(RegimeError):
        saddle_contributions(ScaledParams(1.0, caustic_gamma(), ZSign.POSITIVE))


# ------------------------------------------------------------ dominance


def test_dominance_gap_balanced_at_gamma_zero():
    assert dominance_gap(ScaledParams(1.0, 0.0, ZSign.POSITIVE)) == pytest.approx(0.0, abs=1e-12)


def test_dominance_gap_at_gamma_one():
    # frozen from the saddle solve: p, q1, q2 = 0.727136, 0.934099, 0.430014
    gap = dominance_gap(ScaledParams(1.0, 1.0, ZSign.POSITIVE))
    assert gap == pytest.approx(0.9984057243580569, abs=1e-9)
    assert gap > 0.0


def test_dominance_gap_increases_with_gamma():
    gammas = np.linspace(1e-3, GAMMA_CAUSTIC - 1e-3, 50)
    gaps = [dominance_gap(ScaledParams(1.0, g, ZSign.POSITIVE)) for g in gammas]
    assert all(g > 0.0 for g in gaps)
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_dominance_gap_regime_error():
    with pytest.raises(RegimeError):
        dominance_gap(ScaledParams(1.0, 0.0, ZSign.NEGATIVE))
    with pytest.raises(RegimeError):
        dominance_gap(ScaledParams(1.0, 2.0, ZSign.POSITIVE))


# ------------------------------------------------------------ obstruction


def test_obstruction_boundary_case_gamma_zero():
    rep = below_caustic_obstruction(ScaledParams(1.0, 0.0, ZSign.NEGATIVE))
    assert rep.t1 == pytest.approx(-1.0, abs=1e-12)
    assert rep.t2 == pytest.approx(1.0, abs=1e-12)
    assert rep.phase_sum == pytest.approx(0.0, abs=1e-12)
    assert rep.curvature_sum == pytest.approx(0.0, abs=1e-12)
    assert not rep.cancellation_blocked      # cosine survives: axis zeros exist


def test_obstruction_at_gamma_half():
    # frozen from the quartic solve at gamma = 0.5, z < 0
    rep = below_caustic_obstruction(ScaledParams(1.0, 0.5, ZSign.NEGATIVE))
    assert rep.t1 == pytest.approx(-1.1173490365925787, abs=1e-9)
    assert rep.t2 == pytest.approx(0.8674707803110372, abs=1e-9)
    assert rep.phase_sum == pytest.approx(0.5000487686654036, abs=1e-9)
    assert rep.curvature_sum == pytest.approx(-1.9687956316657318, abs=1e-9)
    assert rep.cancellation_blocked


def test_obstruction_sign_structure(rng):
    # local max at the smaller real saddle, local min at the larger one
    for _ in range(50):
        g = rng.uniform(0.05, 3.0)
        rep = below_caustic_obstruction(ScaledParams(1.0, g, ZSign.NEGATIVE))
        assert rep.fpp_t1 < 0.0 < rep.fpp_t2
        assert rep.cancellation_blocked


def test_obstruction_regime_error():
    with pytest.raises(RegimeError):
        below_caustic_obstruction(ScaledParams(1.0, 0.5, ZSign.POSITIVE))
