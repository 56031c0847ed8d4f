import math

import numpy as np
import pytest

from swallowtail import (
    Form,
    Params,
    QuadratureConfig,
    conjugate_reflection,
    eval_q,
    q_to_s,
    s_to_q,
)


def test_params_rejects_nonfinite():
    with pytest.raises(ValueError):
        Params(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        Params(0.0, float("inf"), 0.0)


def test_s_to_q_origin_and_value_factor():
    mapped, factor = s_to_q(Params(0.0, 0.0, 0.0, Form.S))
    assert mapped == Params(0.0, 0.0, 0.0, Form.Q)
    assert factor == 5.0 ** -0.2
    assert abs(factor - 0.7247796636776955) < 1e-15


def test_s_to_q_hits_unit_point():
    # preimage of (1,1,1) under the forward map
    p = Params(5.0 ** 0.6 / 3.0, 5.0 ** 0.4 / 2.0, 5.0 ** 0.2, Form.S)
    mapped, _ = s_to_q(p)
    assert max(abs(mapped.x - 1), abs(mapped.y - 1), abs(mapped.z - 1)) < 1e-14


def test_q_to_s_unit_point():
    mapped, factor = q_to_s(Params(1.0, 1.0, 1.0))
    # direct evaluation of (5^(3/5)/3, 5^(2/5)/2, 5^(1/5))
    assert abs(mapped.x - 0.8755092681345891) < 1e-12
    assert abs(mapped.y - 0.9518269693579392) < 1e-12
    assert abs(mapped.z - 1.3797296614612148) < 1e-12
    assert factor == 5.0 ** 0.2
    assert mapped.form is Form.S


def test_form_tags_are_enforced():
    with pytest.raises(ValueError):
        s_to_q(Params(1.0, 1.0, 1.0, Form.Q))
    with pytest.raises(ValueError):
        q_to_s(Params(1.0, 1.0, 1.0, Form.S))
    with pytest.raises(ValueError, match="form must be a Form"):
        Params(0.0, 0.0, 0.0, "Q")


def test_round_trip_is_identity(rng):
    for _ in range(1000):
        x, y, z = rng.uniform(-100.0, 100.0, 3)
        p = Params(x, y, z, Form.S)
        back, _ = q_to_s(s_to_q(p).params)
        for a, b in ((back.x, x), (back.y, y), (back.z, z)):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


def test_round_trip_other_direction(rng):
    for _ in range(200):
        x, y, z = rng.uniform(-100.0, 100.0, 3)
        p = Params(x, y, z, Form.Q)
        back, _ = s_to_q(q_to_s(p).params)
        for a, b in ((back.x, x), (back.y, y), (back.z, z)):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


def test_value_factors_are_mutually_inverse():
    _, f1 = s_to_q(Params(1.0, 2.0, 3.0, Form.S))
    _, f2 = q_to_s(Params(1.0, 2.0, 3.0, Form.Q))
    assert abs(f1 * f2 - 1.0) < 1e-15


def test_conjugate_reflection_flips_y():
    assert conjugate_reflection(Params(1.0, 2.0, 3.0)) == Params(1.0, -2.0, 3.0)


def test_conjugate_reflection_fixed_point_on_axis():
    p = Params(0.0, 0.0, 5.0)
    assert conjugate_reflection(p) == p


def test_conjugate_reflection_is_involution():
    p = Params(0.3, -1.7, 2.2, Form.S)
    assert conjugate_reflection(conjugate_reflection(p)) == p


def test_reflection_contract_at_evaluator_level(cfg):
    a = eval_q(Params(0.0, 1.5, 2.0), cfg)
    b = eval_q(conjugate_reflection(Params(0.0, 1.5, 2.0)), cfg)
    assert abs(b.value - a.value.conjugate()) < 1e-9


def test_y_zero_values_are_real(cfg):
    for (x, z) in [(0.0, 2.0), (1.3, -1.0), (-2.0, 0.5)]:
        r = eval_q(Params(x, 0.0, z), cfg)
        assert abs(r.value.imag) <= 2.0 * r.abs_error_estimate
