from fractions import Fraction

import numpy as np
import pytest

from pinchlab import ftensor
from pinchlab.curvature import FLOAT, RATIONAL
from pinchlab.ftensor import (
    FCoefficients,
    GradientModel,
    CLAIMED_POINT,
    b_quadratic,
    bianchi_constant,
    eps_factor_gradient,
    expansion_campaign,
    f_norm_expansion,
    f_tensor,
    grad_q2,
    optimal_b,
    optimize_q2,
    q1,
    q2,
    q2_claimed_value,
    random_coefficients,
    s_coefficient,
    sample_gradient_model,
)


def test_bianchi_constant():
    assert bianchi_constant(4) == Fraction(1, 4)
    assert bianchi_constant(6) == Fraction(1, 3)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_sample_gradient_model_constraints(mode):
    m = sample_gradient_model(4, 13, mode)
    tol = 0 if mode == RATIONAL else 1e-12
    assert (abs(m.S - m.S.transpose(1, 0, 2)) <= tol).all()
    assert (abs(np.einsum("iik->k", m.S)) <= tol).all()
    c = bianchi_constant(4) if mode == RATIONAL else 0.25
    assert (abs(np.einsum("iji->j", m.S) - c * m.w) <= tol).all()


def test_gradient_model_rejects_bad_contraction():
    m = sample_gradient_model(4, 1, RATIONAL)
    with pytest.raises(ValueError):
        GradientModel(4, RATIONAL, m.S.copy(), m.w + Fraction(1))


def test_rational_models_are_integer_valued():
    m = sample_gradient_model(4, 99, RATIONAL)
    assert all(v.denominator == 1 for v in m.S.reshape(-1))
    assert all(v.denominator == 1 for v in m.w)


def test_f_tensor_zero_coefficients_is_S():
    m = sample_gradient_model(4, 2, RATIONAL)
    F = f_tensor(m, FCoefficients())
    assert (F == m.S).all()


def test_norm_expansion_exact_fraction_path():
    for seed in range(5):
        m = sample_gradient_model(4, seed, RATIONAL)
        for c in random_coefficients(4, seed + 100):
            direct, formula = f_norm_expansion(m, c)
            assert direct == formula


def test_norm_expansion_float_path():
    m = sample_gradient_model(4, 8, FLOAT)
    c = FCoefficients(0.3, -1.2, 0.05, -0.4, 0.7)
    direct, formula = f_norm_expansion(m, c)
    assert direct == pytest.approx(formula, rel=1e-12)


def test_norm_expansion_rejects_other_dims():
    m = sample_gradient_model(5, 0, RATIONAL)
    with pytest.raises(ValueError):
        f_norm_expansion(m, FCoefficients())


def test_expansion_campaign_exact():
    out = expansion_campaign(20, 10, 0)
    assert out["exact"] and out["maxResidualNumerator"] == 0


def test_q_values_at_reference_point():
    assert q1(CLAIMED_POINT) == Fraction(1, 3)
    for eps in (Fraction(0), Fraction(1, 48), Fraction(1, 24), Fraction(1, 16)):
        assert q2(CLAIMED_POINT, eps) == q2_claimed_value(eps)
    assert q2(CLAIMED_POINT, Fraction(1, 24)) == 0


def test_q2_linear_in_eps_with_predicted_slope():
    c = FCoefficients(Fraction(2), Fraction(-3), Fraction(1, 6),
                      Fraction(0), Fraction(-1, 2))
    a1, a2 = c.a1, c.a2
    den = 1 + a1 * a1 + a2 * a2
    slope = Fraction(8) * (den + a1 + a2 + a1 * a2) / den
    e1, e2 = Fraction(1, 100), Fraction(9, 100)
    assert (q2(c, e2) - q2(c, e1)) == slope * (e2 - e1)


def test_optimal_b_closed_form():
    assert optimal_b(Fraction(1), Fraction(1)) == (
        Fraction(-1, 12), Fraction(-1, 12), Fraction(-1, 12))
    # stationarity of the b-block at a generic rational point
    a1, a2 = Fraction(3, 2), Fraction(-5, 7)
    b = optimal_b(a1, a2)
    b1, b2, b3 = b
    assert 16 * b1 + 4 * b2 + 4 * b3 == -(a1 + a2)
    assert 4 * b1 + 16 * b2 + 4 * b3 == -(a2 + 1)
    assert 4 * b1 + 4 * b2 + 16 * b3 == -(a1 + 1)


def test_optimal_b_maximizes_b_block():
    a1, a2 = 0.4, -1.1
    b = optimal_b(a1, a2)
    base = q1(FCoefficients(a1, a2, *b))
    rng = np.random.default_rng(0)
    for _ in range(20):
        pert = rng.standard_normal(3) * 0.1
        val = q1(FCoefficients(a1, a2, b[0] + pert[0], b[1] + pert[1],
                               b[2] + pert[2]))
        assert val <= base + 1e-12


def test_s_coefficient():
    for k in range(20):
        s = Fraction(k, 19)
        assert s_coefficient(Fraction(1), Fraction(1), s) == 2 * (7 - 8 * s)
    assert s_coefficient(Fraction(1), Fraction(1), Fraction(7, 8)) == 0


def test_sign_condition():
    assert CLAIMED_POINT.sign_condition()
    assert not FCoefficients(-3, -1.4).sign_condition()


def test_gradient_vanishes_at_reference_point():
    for eps in (0.0, 1.0 / 24.0, 1.0 / 16.0):
        assert np.abs(grad_q2(CLAIMED_POINT, eps)).max() < 1e-8
    assert grad_q2(CLAIMED_POINT, Fraction(1, 24)) == (0,) * 5
    assert np.abs(eps_factor_gradient(1.0, 1.0)).max() < 1e-10


def test_optimize_q2_supercritical_eps_returns_reference_point():
    # for eps >= 1/36 the interior stationary point (1,1) is the global max;
    # at eps = 1/36 Q2 is constant at -2/9
    assert optimize_q2(Fraction(1, 24)) == (CLAIMED_POINT, 0)
    for eps in (Fraction(1, 36), Fraction(1, 24), Fraction(1, 16)):
        found = optimize_q2(eps)
        arg, value = found
        assert abs(arg.a1 - 1) < 1e-6 and abs(arg.a2 - 1) < 1e-6
        assert value == pytest.approx(float(q2_claimed_value(eps)), abs=1e-9)
        assert found.branch == ("constant" if eps == Fraction(1, 36) else "point")
    assert optimize_q2(Fraction(1, 36))[1] == Fraction(-2, 9)


def test_optimize_q2_subcritical_eps_finds_critical_line():
    # below eps = 1/36 the global max 4*eps - 1/3 sits on the stationary
    # line a1 + a2 = -1, strictly above the interior point's 16*eps - 2/3
    for eps in (Fraction(0), Fraction(1, 48)):
        arg, value = optimize_q2(eps)
        assert abs(float(arg.a1 + arg.a2) + 1.0) < 1e-5
        assert value == pytest.approx(4 * float(eps) - 1.0 / 3.0, abs=1e-9)
        assert value > float(q2_claimed_value(eps)) + 1e-3


def test_optimize_q2_never_below_reference_value(monkeypatch):
    for eps in (Fraction(-1, 50), Fraction(0), Fraction(1, 30), Fraction(1, 10)):
        _, value = optimize_q2(eps)
        assert value >= float(q2_claimed_value(eps)) - 1e-9
    # a Q2 whose 3x3 form is not alpha I + beta J is refused, not maximized
    monkeypatch.setattr(ftensor, "q2", lambda c, eps: q2(c, eps) + c.a1)
    with pytest.raises(ValueError, match="alpha I"):
        optimize_q2(Fraction(1, 24))
