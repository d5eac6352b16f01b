import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pinchlab import ftensor
from pinchlab.curvature import FLOAT, RATIONAL, as_mode_array, eye
from pinchlab.ftensor import (
    FCoefficients,
    CLAIMED_POINT,
    b_quadratic,
    check_gradient_constraints,
    expansion_campaign,
    f_basis,
    f_norm_expansion,
    f_tensor,
    integer_gradient_models,
    optimal_b,
    optimize_q2,
    q1,
    q2,
    q2_claimed_value,
    random_coefficients,
    s_coefficient,
    sample_gradient_model,
)
from pinchlab.reports import report_digest
from pinchlab.scalars import ArithmeticModeError, exact_div
from reference import bianchi_constant, grad_q2


def test_bianchi_constant():
    assert bianchi_constant(4) == Fraction(1, 4)
    assert bianchi_constant(6) == Fraction(1, 3)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_sample_gradient_model_constraints(mode):
    S, w = sample_gradient_model(4, 13, mode)
    tol = 0 if mode == RATIONAL else 1e-12
    assert (abs(S - S.transpose(1, 0, 2)) <= tol).all()
    assert (abs(np.einsum("iik->k", S)) <= tol).all()
    c = bianchi_constant(4) if mode == RATIONAL else 0.25
    assert (abs(np.einsum("iji->j", S) - c * w) <= tol).all()


def broken_models(S, w):
    """(what, S, w): the n = 4 model (S, w) with each constraint broken
    alone, its residual moved by one: S_012 by one off the trace and the
    Bianchi contraction, S_002 by one in the trace, and w_0 by four, which
    moves sum_i S_i0i - w_0 / 4 by one."""
    one = np.zeros_like(S)
    one[0, 1, 2] = 1
    yield "symmetric", S + one, w
    one = np.zeros_like(S)
    one[0, 0, 2] = 1
    yield "traceless", S + one, w
    yield "Bianchi", S, w + 4 * np.eye(len(w), dtype=w.dtype)[0]


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_f_entries_refuse_a_broken_model(mode):
    S, w = sample_gradient_model(4, 1, mode)
    for entry in (f_tensor, f_norm_expansion):
        entry(S, w, FCoefficients())
        for what, bad_S, bad_w in broken_models(S, w):
            with pytest.raises(ValueError, match=what):
                entry(bad_S, bad_w, FCoefficients())


def test_f_entries_refuse_a_dtype_of_no_arithmetic_mode():
    S, w = sample_gradient_model(4, 2, FLOAT)
    for entry in (f_tensor, f_norm_expansion):
        with pytest.raises(ArithmeticModeError):
            entry(S.astype(np.float32), w.astype(np.float32), FCoefficients())
        with pytest.raises(ArithmeticModeError):     # w in another arithmetic than S
            entry(S, as_mode_array(w, RATIONAL), FCoefficients())
    with pytest.raises(ArithmeticModeError):
        sample_gradient_model(4, 2, "exact")
    # an int64 model is checked exactly, as integer_gradient_models' are
    S, w = integer_gradient_models(4, [2])
    assert (f_tensor(S[0], w[0], FCoefficients()) == S[0]).all()


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_float_tolerance_is_relative_to_max_s(scale):
    # 1e-12 max(1, max|S|): a break of half of it passes, one of twice fails
    S, w = sample_gradient_model(4, 3, FLOAT)
    factor = scale / np.abs(S).max()
    S, w = S * factor, w * factor
    tol = 1e-12 * max(1.0, np.abs(S).max())
    for what, bad_S, bad_w in broken_models(S, w):
        near_S, near_w = S + (bad_S - S) * tol / 2, w + (bad_w - w) * tol / 2
        check_gradient_constraints(near_S, near_w)
        far_S, far_w = S + (bad_S - S) * tol * 2, w + (bad_w - w) * tol * 2
        with pytest.raises(ValueError, match=what):
            check_gradient_constraints(far_S, far_w)


def test_rational_models_are_integer_valued():
    S, w = sample_gradient_model(4, 99, RATIONAL)
    assert S.dtype == w.dtype == object
    assert all(type(v) is Fraction and v.denominator == 1 for v in [*S.reshape(-1), *w])


def test_f_tensor_zero_coefficients_is_S():
    S, w = sample_gradient_model(4, 2, RATIONAL)
    assert (f_tensor(S, w, FCoefficients()) == S).all()


def test_f_tensor_is_the_six_term_formula():
    eye = np.eye(4, dtype=np.int64)
    for seed in range(5):
        S, w = sample_gradient_model(4, seed, RATIONAL)
        for c in random_coefficients(4, seed + 200, den=7):
            F = (S + c.a1 * S.transpose(0, 2, 1) + c.a2 * S.transpose(2, 0, 1)
                 + c.b1 * np.einsum("ij,k->ijk", eye, w)
                 + c.b2 * np.einsum("ik,j->ijk", eye, w)
                 + c.b3 * np.einsum("jk,i->ijk", eye, w))
            assert (f_tensor(S, w, c) == F).all()


def test_f_basis_of_a_stack_is_the_stack_of_bases():
    S, w = integer_gradient_models(4, [[5, idx] for idx in range(6)])
    stacked = f_basis(S.reshape(2, 3, 4, 4, 4), w.reshape(2, 3, 4))
    assert stacked.shape == (2, 3, 6, 4, 4, 4) and stacked.dtype == np.int64
    for k in range(6):
        assert (stacked.reshape(6, 6, 4, 4, 4)[k]
                == f_basis(*sample_gradient_model(4, [5, k], RATIONAL))).all()


def test_norm_expansion_exact_fraction_path():
    for seed in range(5):
        S, w = sample_gradient_model(4, seed, RATIONAL)
        for c in random_coefficients(4, seed + 100):
            direct, formula = f_norm_expansion(S, w, c)
            assert direct == formula


def test_norm_expansion_float_path():
    S, w = sample_gradient_model(4, 8, FLOAT)
    c = FCoefficients(0.3, -1.2, 0.05, -0.4, 0.7)
    direct, formula = f_norm_expansion(S, w, c)
    assert direct == pytest.approx(formula, rel=1e-12)


def test_norm_expansion_rejects_other_dims():
    S, w = sample_gradient_model(5, 0, RATIONAL)
    with pytest.raises(ValueError, match="dimension-four"):
        f_norm_expansion(S, w, FCoefficients())


def test_expansion_campaign_exact():
    out = expansion_campaign(20, 10, 0)
    assert out["exact"] and out["maxResidualNumerator"] == 0


def fraction_projection(n, seed):
    """The rational sampler as it was first written, in Fractions: project
    the integer draws, then scale by the lcm of the denominators."""
    rng = np.random.default_rng(seed)
    S = np.empty((n, n, n), dtype=object)
    for idx, v in zip(np.ndindex(n, n, n), rng.integers(-9, 10, size=n ** 3).tolist()):
        S[idx] = Fraction(v)
    w = np.empty(n, dtype=object)
    for j, v in enumerate(rng.integers(-9, 10, size=n).tolist()):
        w[j] = Fraction(v)
    half, inv_n = Fraction(1, 2), Fraction(1, n)
    S = (S + S.transpose(1, 0, 2)) * half
    tr = np.einsum("iik->k", S)
    g = eye(n, RATIONAL)
    S = S - inv_n * np.einsum("ij,k->ijk", g, tr)
    u = bianchi_constant(n) * w - np.einsum("iji->j", S)
    v = u / Fraction(n * n + n - 2, n)
    S = S + (np.einsum("ik,j->ijk", g, v) + np.einsum("jk,i->ijk", g, v)
             - (2 * inv_n) * np.einsum("ij,k->ijk", g, v))
    denoms = [x.denominator for x in S.reshape(-1)] + [x.denominator for x in w]
    scale = Fraction(int(np.lcm.reduce(denoms)))
    return S * scale, w * scale


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rational_sampler_matches_the_fraction_projection(n):
    for seed in [*range(50), *([7, idx] for idx in range(10))]:
        S, w = fraction_projection(n, seed)
        S_r, w_r = sample_gradient_model(n, seed, RATIONAL)
        assert S_r.shape == S.shape and (S_r == S).all() and (w_r == w).all()
        assert all(type(v) is Fraction for v in [*S_r.reshape(-1), *w_r])


def test_integer_models_are_the_rational_models():
    seeds = [[3, idx] for idx in range(20)]
    S, w = integer_gradient_models(4, seeds)
    assert S.dtype == w.dtype == np.int64 and S.shape == (20, 4, 4, 4)
    assert integer_gradient_models(4, [])[0].shape == (0, 4, 4, 4)
    for k, seed in enumerate(seeds):
        for mode, dtype in ((RATIONAL, object), (FLOAT, np.float64)):
            S_m, w_m = sample_gradient_model(4, seed, mode)
            assert S_m.dtype == w_m.dtype == dtype
            assert (S_m == S[k]).all() and (w_m == w[k]).all()
    check_gradient_constraints(S, w)
    with pytest.raises(ValueError, match="Bianchi"):
        check_gradient_constraints(S, w + 1)
    with pytest.raises(ValueError, match="symmetric"):
        check_gradient_constraints(S + np.arange(64).reshape(4, 4, 4), w)


# report_digest of expansion_campaign(100, 20, seed) before the integer sampler
PINNED_EXPANSION_DIGESTS = {
    0: "592a2cd91a5baa8e6af1b33dd7bac9be1ae08e093c8ec3980d62fc3ab379f615",
    1: "20e43659e95e7ccc4d20b0743701280d4538d680549f150977168f9856024772",
}
# report_digest of expansion_campaign(models, coeffs, seed) before the Gram
# matrix kernel: an empty campaign, a partial last block, the CLI default
PINNED_CAMPAIGN_DIGESTS = {
    (0, 1, 0): "b45ba72e204c45c69f1b1cbf550b8208a32076188db728acb7b74db10a73e7d4",
    (65, 3, 2): "c3150cb1953fe0a5c514f9088da4fc5d9ce34ee99147449cfb3bcfef930d4734",
    (1000, 100, 1): "5437a633ff90ce74f10a1350265abac2de088a3049233e1bf7e30b5fb9e94118",
}


@pytest.mark.parametrize("seed", sorted(PINNED_EXPANSION_DIGESTS))
def test_expansion_campaign_report_is_unchanged(seed):
    assert report_digest(expansion_campaign(100, 20, seed)) == PINNED_EXPANSION_DIGESTS[seed]


@pytest.mark.parametrize("args", sorted(PINNED_CAMPAIGN_DIGESTS),
                         ids=lambda args: "-".join(map(str, args)))
def test_expansion_campaign_sizes_are_unchanged(args):
    assert report_digest(expansion_campaign(*args)) == PINNED_CAMPAIGN_DIGESTS[args]


def test_expansion_timings_stay_out_of_the_digest():
    first, second = expansion_campaign(100, 20, 0), expansion_campaign(100, 20, 0)
    for out in (first, second):
        assert list(out["timings"]) == ["draw", "kernel"]
        assert all(t >= 0 for t in out["timings"].values())
    slower = dict(second, timings={k: t + 1.0 for k, t in second["timings"].items()})
    assert first["timings"] != slower["timings"]
    assert (report_digest(first) == report_digest(second) == report_digest(slower)
            == PINNED_EXPANSION_DIGESTS[0])


def campaign_coefficients(coeff_count, seed, den=12):
    """expansion_campaign's coefficient vectors and their (den, den a1, ...,
    den b3) numerator rows."""
    coeffs = random_coefficients(coeff_count, [seed, 999_331], den)
    return coeffs, np.array([[den, *(int(v * den) for v in c.astuple())] for c in coeffs],
                            dtype=np.int64)


def test_direct_side_is_twice_den_squared_sum_of_f_squared():
    coeffs, coeff_matrix = campaign_coefficients(12, 5)
    seeds = [[5, idx] for idx in range(7)]
    S, w = integer_gradient_models(4, seeds)
    direct2 = ftensor._direct_side(S, w, coeff_matrix)
    assert direct2.dtype == np.int64 and direct2.shape == (7, 12)
    for m, seed in enumerate(seeds):
        model = sample_gradient_model(4, seed, RATIONAL)
        for k, c in enumerate(coeffs):
            F = f_tensor(*model, c)
            assert direct2[m, k] == 2 * 144 * np.einsum("ijk,ijk", F, F)


def test_campaign_flags_exactly_what_the_f_path_flags(monkeypatch):
    """A perturbed weight of the expansion: the campaign names the (model,
    coeff) pairs whose brute-force 2 den^2 sum F_ijk^2, from f_tensor in
    Fractions, misses the perturbed formula, and no others."""
    real = ftensor.expansion_weights

    def perturbed(*args, **kwargs):
        quadratic, mixing, bquad = real(*args, **kwargs)
        mixing = mixing.copy()
        mixing[3] += 1                    # den^2 times the fourth vector's weight
        return quadratic, mixing, bquad

    monkeypatch.setattr(ftensor, "expansion_weights", perturbed)
    model_count, coeff_count, seed = 9, 6, 4
    coeffs, _ = campaign_coefficients(coeff_count, seed)
    flagged = []
    for idx in range(model_count):
        S, w = sample_gradient_model(4, [seed, idx], RATIONAL)
        s_sq = np.einsum("ijk,ijk", S, S)
        mixed = np.einsum("ijk,ikj", S, S)
        w_sq = np.einsum("j,j", w, w)
        for k, c in enumerate(coeffs):
            F = f_tensor(S, w, c)
            quadratic, mixing, bquad = (144 * v for v in real(*c.astuple()))
            mixing += k == 3
            formula2 = 2 * (quadratic * s_sq + mixing * mixed) + bquad * w_sq
            if 2 * 144 * np.einsum("ijk,ijk", F, F) != formula2:
                flagged.append({"model": idx, "coeff": c.as_dict()})
    out = expansion_campaign(model_count, coeff_count, seed)
    assert flagged and out["violations"] == flagged and not out["exact"]


def expansion_worst_case(n=4, den=12, draw=9, numerator=24):
    """(max|S|, max|w|, max intermediate) of expansion_campaign's int64
    kernel, each sum and product bounded by the sum and product of its
    terms' bounds: first through integer_gradient_models from draws in
    [-draw, draw], then through the kernel with coefficient numerators in
    [-numerator, numerator].  The kernel's direct side forms the Gram
    matrix G = B B^T of the six rows of B = f_basis(S, w): three of S, with
    n^3 entries up to max|S|, and three of d w, with n^2 nonzero entries up
    to max|w|, so G_ij is at most the lesser count times the two rows'
    bounds (64 max|S|^2 in the S block).  Then 2 c^T G c sums the products
    c_i c_j G_ij; the formula side sums the weighted |S|^2, mixed and |w|^2
    terms, and the residual is their difference."""
    h = n * n + n - 2
    X = 2 * n * h * h
    symmetric = n * h * h * 2 * draw + 2 * h * h * n * draw      # X (sym S - trace part)
    t = -(-((n - 2) * h * h * draw + n * symmetric) // h)
    max_s, max_w = symmetric + (2 * n + 2) * t, X * draw
    a = b = numerator
    cells = n ** 3
    row_max, row_cells = [max_s] * 3 + [max_w] * 3, [cells] * 3 + [n * n] * 3
    coeff = [den, a, a, b, b, b]
    gram = [[min(row_cells[i], row_cells[j]) * row_max[i] * row_max[j] for j in range(6)]
            for i in range(6)]
    direct = 2 * sum(coeff[i] * coeff[j] * gram[i][j] for i in range(6) for j in range(6))
    bquad = 4 * a * b + 2 * den * b + 12 * b * b + 12 * b * b
    formula = ((2 * (den * den + 2 * a * a) + 4 * (2 * den * a + a * a)) * cells * max_s ** 2
               + bquad * n * max_w ** 2)
    return max_s, max_w, direct + formula


def test_expansion_kernel_cannot_leave_int64():
    max_s, max_w, worst = expansion_worst_case()
    X = 2592    # 2n (n^2 + n - 2)^2 at n = 4
    assert max_s < 70 * X and max_w == 9 * X and worst < 2.3e16 < 2 ** 63 - 1
    # the premises hold for the campaign's draws
    coeffs = random_coefficients(2000, [0, 999_331])
    assert max(abs(v * 12) for c in coeffs for v in c.astuple()) == 24
    S, w = integer_gradient_models(4, [[0, idx] for idx in range(2000)])
    assert np.abs(S).max() <= max_s and np.abs(w).max() <= max_w


def test_expansion_worst_case_covers_the_kernel(monkeypatch, recorded):
    max_s, max_w, worst = expansion_worst_case()
    real = ftensor.integer_gradient_models

    def models(n, seeds):
        S, w = real(n, seeds)
        # the last model has every entry at its bound (not a gradient model)
        S[-1], w[-1] = max_s, max_w
        return recorded.array(S), recorded.array(w)

    real_direct, kinds = ftensor._direct_side, set()

    def direct_side(S, w, coeff_matrix):
        out = real_direct(S, w, coeff_matrix)
        kinds.update(type(v) for v in out.reshape(-1))
        return out

    monkeypatch.setattr(ftensor, "integer_gradient_models", models)
    monkeypatch.setattr(ftensor, "_direct_side", direct_side)
    out = expansion_campaign(10, 40, 3)
    assert kinds == {recorded}     # both matmuls ran on the recorded entries
    assert {v["model"] for v in out["violations"]} == {9}
    assert worst / 10 < recorded.peak <= worst


def traced_peak(run):
    """tracemalloc's peak over run(), after one untraced call warms it up."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expansion_memory_does_not_grow_with_the_model_count():
    # the models are drawn and checked in blocks of at most 80: four times
    # the CLI default's 1000 models peak within 1.2 times its traced peak
    default = traced_peak(lambda: expansion_campaign(1000, 100, 1))
    assert traced_peak(lambda: expansion_campaign(4000, 100, 1)) <= 1.2 * default


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


def hand_grad_q2(c, eps):
    """grad_q2 as it was first written: the partials of P = den * q2 derived
    by hand, then the quotient rule."""
    a1, a2, b1, b2, b3 = c.astuple()
    den = 1 + a1 * a1 + a2 * a2
    value = q2(c, eps)
    damp = 1 - 16 * eps
    dP = (exact_div(1 + a2, 4) - (b1 + b3) - exact_div(damp * (2 * a1 + 1 + a2), 2),
          exact_div(1 + a1, 4) - (b1 + b2) - exact_div(damp * (2 * a2 + 1 + a1), 2),
          -(a1 + a2 + 16 * b1 + 4 * (b2 + b3)),
          -(a2 + 1 + 16 * b2 + 4 * (b1 + b3)),
          -(a1 + 1 + 16 * b3 + 4 * (b1 + b2)))
    dden = (2 * a1, 2 * a2, 0, 0, 0)
    return tuple((p - value * d) / den for p, d in zip(dP, dden))


def test_grad_q2_equals_the_hand_derived_partials():
    rng = np.random.default_rng(14)
    nums = rng.integers(-30, 31, size=(100, 5)).tolist()
    dens = rng.integers(1, 13, size=(100, 5)).tolist()
    points = [FCoefficients(*map(Fraction, row, col)) for row, col in zip(nums, dens)]
    for eps in (Fraction(0), Fraction(1, 48), Fraction(1, 36), Fraction(1, 24), Fraction(1, 16)):
        for c in points:
            grad = grad_q2(c, eps)
            assert all(type(g) is Fraction for g in grad)
            assert grad == hand_grad_q2(c, eps)


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
