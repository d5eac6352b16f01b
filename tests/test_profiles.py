import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchlab import profiles, scalars
from pinchlab.curvature import (FLOAT, RATIONAL, diagonal_tensor, invariants, pair_dimension,
                                 traceless_ricci)
from pinchlab.minsec import DegenerateEpsError
from pinchlab.profiles import (
    DISTRIBUTIONS,
    CampaignConfig,
    TENSOR_MARGIN,
    UncertifiedSourceError,
    check_estimates,
    eigen_gap_lemma,
    equno_identity,
    exact_profile_bounds,
    mc_campaign,
    profile_batch_exact,
    profile_batch_float,
    _EXACT_SB_MAX,
    _assemble,
    _combo_rng,
    _eigenframe_stack,
    estimate_coefficients,
    estimate_gaps,
)
from pinchlab.reports import report_digest
from reference import components, lower_estimate1


def draw_rows(n, count, seed, mode, distribution="half-normal"):
    """Shifted curvatures (count, m) as the float or the exact lane checks
    them (checked_rows) when it draws from default_rng(seed), the latter as
    an object array of Python ints."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(profiles, "_combo_rng", lambda *args: np.random.default_rng(seed))
        checked = checked_rows(monkeypatch)
        _run_lane("exact" if mode == RATIONAL else "float", n, 0, count, 0, distribution)
    sb = np.concatenate(checked)
    return sb.astype(object) if mode == RATIONAL else sb


def checked_rows(monkeypatch):
    """Spy on the rows the lanes check: the returned list collects, row by
    row (rows, m), each block that profiles._check_blocks hands its check."""
    rows, check_blocks = [], profiles._check_blocks

    def spy(*args):
        *head, check = args
        return check_blocks(*head, lambda block: rows.append(block.T) or check(block))
    monkeypatch.setattr(profiles, "_check_blocks", spy)
    return rows


def full_draw(rng, lane, shape, distribution="half-normal"):
    """A lane's shifted curvatures of the shape drawn from rng as one numpy
    call draws them; "sparse" is the positive part of that draw."""
    sparse = distribution == "sparse"
    if lane == "exact":
        sb = rng.integers(-_EXACT_SB_MAX - 1 if sparse else 0, _EXACT_SB_MAX + 1, size=shape)
    elif distribution == "uniform":
        sb = rng.uniform(0.0, 1.0, size=shape)
    else:
        sb = rng.standard_normal(shape)
        sb = sb if sparse else np.abs(sb)
    return np.maximum(sb, 0) if sparse else sb


def test_params_reject_bad_s():
    for s in (Fraction(3, 2), -1, 1.5):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            CampaignConfig(s_list=(0, s))


@pytest.mark.parametrize("n", [1, 2])
def test_lanes_reject_small_dimensions(n):
    # before, n = 2 raised IndexError and n = 1 ZeroDivisionError
    for run in (lambda: profile_batch_float(n, 0, [1], 10, 0),
                lambda: profile_batch_exact(n, 0, 10, 0),
                lambda: CampaignConfig(dims=(4, n))):
        with pytest.raises(ValueError, match=f"n = {n}: dimension must be >= 3"):
            run()


def test_lanes_reject_a_negative_count():
    for run in (lambda: profile_batch_float(4, 0, [1], -1, 0),
                lambda: profile_batch_exact(4, 0, -1, 0),
                lambda: CampaignConfig(count=-1)):
        with pytest.raises(ValueError, match="count = -1 must be >= 0"):
            run()


@pytest.mark.parametrize("s", [2.0, -1, Fraction(3, 2), np.nan])
def test_lanes_and_check_estimates_reject_bad_s(s):
    # before, profile_batch_float(4, 0, [2.0], 100, 0) reported 7 violations
    # of a blend that is no estimate
    from pinchlab.curvature import random_curvature
    from pinchlab.minsec import shift_to_pinching
    Rm, _, _ = shift_to_pinching(random_curvature(4, 0, FLOAT), 0.0, margin=0.1)
    for run in (lambda: profile_batch_float(4, 0, [0, s], 100, 0),
                lambda: check_estimates(draw_rows(4, 1, 0, FLOAT)[0], 0, [s]),
                lambda: check_estimates(Rm, 0.0, [s])):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            run()


def test_sampler_satisfies_pinching_by_construction():
    # the lanes' draws assemble into profiles with sigma - eps R = sb >= 0
    # and traceless lambda: exactly in Fractions, to rounding in float
    eps, sb = Fraction(1, 24), draw_rows(4, 20, 3, RATIONAL).T
    R, sig, lam = _assemble(4, sb, eps)
    assert (sig - eps * R == sb).all()
    assert (profiles._leading_sum(lam) == 0).all()
    R, sig, lam = _assemble(4, draw_rows(4, 20, 3, FLOAT).T, float(eps))
    assert (sig.min(axis=0) - R / 24 >= -1e-12 * R).all()
    assert (np.abs(lam.sum(axis=0)) <= 1e-10).all()


def test_sampler_rejects_degenerate_eps():
    with pytest.raises(DegenerateEpsError):
        check_estimates(draw_rows(4, 1, 0, RATIONAL)[0], Fraction(1, 12), [1])
    with pytest.raises(DegenerateEpsError):
        profile_batch_exact(4, Fraction(1, 12), 10, 0)


def test_profile_mode_is_read_from_sigma():
    # an object sb is checked in Fractions, a float64 one in float
    for mode, kind in ((RATIONAL, Fraction), (FLOAT, float)):
        rows = check_estimates(draw_rows(4, 1, 5, mode)[0], Fraction(0), [Fraction(1)])
        assert isinstance(rows.gap1[0], kind) and isinstance(rows.convex[0][0], kind)
    for dtype in (np.float32, np.int64):
        with pytest.raises(scalars.ArithmeticModeError):
            check_estimates(draw_rows(4, 1, 5, FLOAT)[0].astype(dtype), 0, [1])


@pytest.mark.parametrize("shape", [(4, 4), (6, 1), (4,), (2,), (1,), (0,)])
def test_profile_shape_is_one_curvature_per_pair(shape):
    # 2-D sb, m = 4 or 2 (no n(n-1)/2) and n < 3 (m = 1, 0) are refused
    with pytest.raises(ValueError):
        check_estimates(np.ones(shape), 0, [1])
    assert not check_estimates(np.ones(3), 0, [1]).bad[0]


def test_profile_lam_and_R_are_the_eigenframes():
    # the diagonal tensor of a profile has its frame as an eigenframe of
    # oRic: traceless_ricci is diag(lam) and R = 2 tr(rhat), exactly
    for n in range(3, 9):
        for eps, seed in ((Fraction(0), 0), (Fraction(0), 1), (Fraction(-1, 10), 2)):
            R, sig, lam = _assemble(n, draw_rows(n, 1, seed, RATIONAL, "sparse").T, eps)
            Rm = diagonal_tensor(sig[:, 0], n, RATIONAL)
            oric = traceless_ricci(Rm)
            assert (oric == np.diag(lam[:, 0])).all(), (n, seed)
            assert all(type(v) is Fraction for v in oric.flat)
            assert 2 * np.trace(Rm.rhat) == R[0], (n, seed)
            assert sum(lam[:, 0]) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_profile_rejects_non_finite_entries(bad):
    sb = draw_rows(4, 1, 5, FLOAT)[0]
    sb[2] = sb[4] = bad
    with pytest.raises(ValueError, match="^sb\\[2\\] is non-finite"):
        check_estimates(sb, 0, [1])
    sb[2] = 1.0
    with pytest.raises(ValueError, match="^sb\\[4\\] is non-finite"):
        check_estimates(sb, 0, [1])


def test_equno_identity_exact_rational():
    for seed in range(10):
        l, r = equno_identity(draw_rows(5, 1, seed, RATIONAL)[0], Fraction(1, 48))
        assert l == r and r <= 0 and type(r) is Fraction


def test_equno_identity_refuses_what_check_estimates_refuses():
    for shape in [(1,), (1, 3), (4,), (0,)]:
        with pytest.raises(ValueError, match="is not \\(m,\\)|is not n\\(n-1\\)/2"):
            equno_identity(np.ones(shape), 0.0)
    with pytest.raises(scalars.ArithmeticModeError):
        equno_identity(np.ones(6, dtype=np.int64), 0)
    sb = np.ones(6)
    sb[4] = np.nan
    with pytest.raises(ValueError, match="^sb\\[4\\] is non-finite"):
        equno_identity(sb, 0.0)
    with pytest.raises(DegenerateEpsError):
        equno_identity(np.ones(6), Fraction(1, 12))
    # the identity is algebraic, so a negative sb is allowed
    sb = draw_rows(4, 1, 3, RATIONAL)[0] - 5
    l, r = equno_identity(sb, Fraction(1, 48))
    assert l == r and min(sb) < 0


def test_slack_is_exact_gap1_rational():
    eps = Fraction(1, 48)
    for seed in range(10):
        rows = check_estimates(draw_rows(4, 1, seed, RATIONAL)[0], eps, [Fraction(1)])
        assert rows.residual[0] == 0
        assert rows.gap1[0] >= 0 and rows.gap2[0] >= 0
        assert not rows.bad[0]


def fraction_rows(n, count, seed):
    """Random rows (lam, sig, sb, R) of Fractions for estimate_gaps, laid
    out pair-major."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return np.array([Fraction(int(v), 7) for v in rng.integers(-20, 21, size=shape).flat],
                        dtype=object).reshape(shape)

    m = n * (n - 1) // 2
    return draw(count, n).T, draw(count, m).T, draw(count, m).T, draw(count)


def test_convex_combination_endpoints_exact():
    s = Fraction(2, 7)
    for n in (3, 4, 5, 6):
        rows = fraction_rows(n, 20, n)
        for eps in (Fraction(0), Fraction(1, 48), Fraction(-1, 10)):
            coefficients = estimate_coefficients(n, eps)
            gaps = estimate_gaps(*rows, coefficients, [Fraction(1), Fraction(0), s])
            assert all(type(v) is Fraction for v in gaps.gap1)
            assert (gaps.convex[0] == gaps.gap1).all()
            assert (gaps.convex[1] == gaps.gap2).all()
            # interior s is the estimate with the blended coefficients
            blend = tuple(s * a + (1 - s) * b for a, b in zip(*coefficients))
            assert blend[0] == 1
            assert (gaps.convex[2] == estimate_gaps(*rows, (blend, blend), []).gap1).all()


def test_cubic_term_drops_at_n4_s34():
    # at n = 4, s = 3/4 the tr(oRic^3) coefficient -(n-1-ns) vanishes: rows
    # with lambda negated keep R, |oRic|^2 and the lhs and negate tr(oRic^3)
    s = Fraction(3, 4)
    lam, sig, sb, R = fraction_rows(4, 20, 0)
    for eps in (Fraction(0), Fraction(1, 48), Fraction(-1, 10)):
        coefficients = estimate_coefficients(4, eps)
        (_, _, cubic1), (_, _, cubic2) = coefficients
        assert s * cubic1 + (1 - s) * cubic2 == 0
        a = estimate_gaps(lam, sig, sb, R, coefficients, [s])
        b = estimate_gaps(-lam, sig, sb, R, coefficients, [s])
        assert (a.lhs == b.lhs).all() and (a.rhs1 != b.rhs1).any()
        assert (a.convex[0] == b.convex[0]).all()


def test_eigen_gap_lemma_equality_case():
    lam = [Fraction(3), Fraction(1), Fraction(-2), Fraction(-2)]
    lhs, rhs, flag = eigen_gap_lemma(lam, 0, 1)
    assert lhs == rhs == Fraction(8)
    assert flag
    lhs2, rhs2, flag2 = eigen_gap_lemma(lam, 2, 3)
    assert lhs2 >= rhs2 and not flag2


def test_eigen_gap_lemma_rejects_nontraceless():
    with pytest.raises(ValueError):
        eigen_gap_lemma([1, 1, 1], 0, 1)


@pytest.mark.parametrize("lam", [[np.inf, -np.inf, 0.0, 0.0], [np.nan, 1.0, -1.0, 0.0],
                                 [Fraction(1), -np.inf, 0, 0]])
def test_eigen_gap_lemma_rejects_non_finite_eigenvalues(lam):
    # before, [inf, -inf, 0, 0] gave (inf, 0.0, True): the tolerances scaled
    # with |lambda| = inf, so an unequal rest passed as the equality case
    with pytest.raises(ValueError, match="must be finite"):
        eigen_gap_lemma(lam, 2, 3)


@pytest.mark.parametrize("lam, i, j", [
    ([1, -1, 2, -2], 0, 0),    # the lemma is stated for i != j only
    ([1, -1, 2, -2], 3, 3),
    ([1, -1, 2, -2], 0, 4),    # out of range
    ([1, -1, 2, -2], 4, 1),
    ([1, -1, 2, -2], -1, 0),   # a negative index is not a Python alias here
    ([1, -1], 0, 1),           # n - 2 = 0 leaves nothing off the pair
])
def test_eigen_gap_lemma_rejects_bad_indices(lam, i, j):
    with pytest.raises(ValueError):
        eigen_gap_lemma(lam, i, j)


def test_profile_to_tensor_matches_invariants():
    sb = draw_rows(4, 1, 7, RATIONAL)[0]
    R, sig, lam = _assemble(4, sb[:, None], Fraction(0))
    inv = invariants(diagonal_tensor(sig[:, 0], 4, RATIONAL))
    assert inv.R == R[0]
    assert inv.ricNormSq == sum(v * v for v in lam[:, 0])
    assert inv.lhs == check_estimates(sb, Fraction(0), [1]).lhs[0]


def test_rational_profile_at_float_params_is_checked_in_float():
    failed = []
    for seed in range(50):
        sb = draw_rows(5, 1, seed, RATIONAL)[0]
        for eps, s in ((1 / 48, Fraction(1, 2)), (Fraction(1, 48), 0.5)):
            rows = check_estimates(sb, eps, [s])
            assert isinstance(rows.gap1[0], float) and isinstance(rows.convex[0][0], float)
            if rows.bad[0]:
                failed.append(seed)
        exact = check_estimates(sb, Fraction(1, 48), [Fraction(1, 2)])
        assert not exact.bad[0] and exact.residual[0] == 0
        assert isinstance(exact.convex[0][0], Fraction)
    assert not failed


def test_uncertified_profile_raises():
    # a profile with only Sec >= 0, shifted by a larger eps R: a negative sb
    R, sig, _ = _assemble(4, draw_rows(4, 1, 1, RATIONAL).T, Fraction(0))
    big_eps = Fraction(1, 13)
    sb = (sig - big_eps * R)[:, 0]
    first = int(np.flatnonzero(sb < 0)[0])
    for source in (sb, sb.astype(float)):
        with pytest.raises(UncertifiedSourceError, match=f"violates .* sb\\[{first}\\]"):
            check_estimates(source, big_eps, [1])


def test_tensor_source_certification_path():
    from pinchlab.curvature import random_curvature
    from pinchlab.minsec import shift_to_pinching
    Rm, _, _ = shift_to_pinching(random_curvature(4, 0, FLOAT), 0.0, margin=0.1)
    rows = check_estimates(Rm, 0.0, [1.0])
    assert not rows.bad[0]
    assert abs(rows.residual[0]) < 1e-8 * max(1.0, abs(rows.lhs[0]))


@given(seed=st.integers(0, 5000),
       dist=st.sampled_from(["half-normal", "uniform", "sparse"]))
@settings(max_examples=30, deadline=None)
def test_float_profile_gaps_nonnegative(seed, dist):
    eps = 1.0 / 48.0
    assert not check_estimates(draw_rows(4, 1, seed, FLOAT, dist)[0], eps, [0.5]).bad[0]


def test_batch_float_clean_and_corrupted(monkeypatch):
    clean = profile_batch_float(4, Fraction(1, 24), [0.0, 1.0], 2000, 42)
    assert not clean["violations"]
    assert clean["minGap1"] >= -1e-10
    assert clean["maxSlackResidual"] < 1e-9
    lower_estimate1(monkeypatch, 1)
    corrupt = profile_batch_float(4, Fraction(1, 24), [1.0], 2000, 42)
    assert corrupt["violations"]


CRITERION_COMBOS = [(n, eps) for n in (3, 4, 5, 6)
                    for eps in (Fraction(-1, 10), Fraction(0), Fraction(1, 48),
                                Fraction(1, 24))
                    if eps * n * (n - 1) < 1]


def test_float_convex_endpoints_are_the_estimates_bit_for_bit():
    assert len(CRITERION_COMBOS) == 15
    for n, eps in CRITERION_COMBOS:
        out = profile_batch_float(n, eps, [0.0, 0.5, 1.0], 20_000, 1)
        assert out["minGapConvex"]["1.0"] == out["minGap1"], (n, eps)
        assert out["minGapConvex"]["0.0"] == out["minGap2"], (n, eps)
    rng = np.random.default_rng(3)
    for n in (3, 4, 5, 6):
        m = n * (n - 1) // 2
        lam, sig, sb = (rng.standard_normal((50, k)).T for k in (n, m, m))
        R = rng.standard_normal(50)
        for eps in rng.uniform(-0.1, 0.03, size=5):
            rows = estimate_gaps(lam, sig, sb, R, estimate_coefficients(n, float(eps)),
                                 [1.0, 0.0])
            assert np.array_equal(rows.convex[0], rows.gap1)
            assert np.array_equal(rows.convex[1], rows.gap2)
        rows = check_estimates(draw_rows(n, 1, n, FLOAT)[0], 0.0, [1.0, 0.0])
        assert rows.convex[0][0] == rows.gap1[0] and rows.convex[1][0] == rows.gap2[0]


def test_a_nan_gap_makes_its_row_bad():
    # estimate 2's n = 4 coefficient overflows at eps = -1e307, so gap2 is
    # infinite and the s = 1 blend gap1 + 0 * gap2 is nan
    rng = np.random.default_rng(5)
    lam, sig, sb = (rng.standard_normal((10, k)).T for k in (4, 6, 6))
    R = 1 + np.abs(rng.standard_normal(10))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = estimate_gaps(lam, sig, sb, R, estimate_coefficients(4, -1e307), [1.0])
    assert np.isnan(rows.convex[0]).all() and rows.bad.all()


# report_digest of profile_batch_float(n, eps, PINNED_S, 20_000, 1), pinned
# when the lane came to cube by products and sum in pair-major blocks; those
# moved every float value by rounding only (EARLIER_FLOAT_MINIMA)
PINNED_S = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(1))
PINNED_FLOAT_DIGESTS = {
    (3, Fraction(-1, 10)): "0af4fa813b85c8de6fa596525b2f073392f642f0cb0e49926f5c4a9a4ae169cb",
    (3, Fraction(0)): "cb417c8ace884be95cefa9db3e351b39ee05230fdaac39bc2a6c10cc9b8c3df7",
    (3, Fraction(1, 48)): "3ae0e9e808d35c70396f3a38766b0c1f04f12ef955f7dab8ba50aa3aff479eff",
    (3, Fraction(1, 24)): "010fe6d88a394c868f0bdc931f8ac651f6d2b998939fa227801fac4e7ef53a69",
    (4, Fraction(-1, 10)): "b033706876763522d84a66400761a333bddb41fa1f2350f54a516a795fb4f85d",
    (4, Fraction(0)): "84e0026ce22a3bbb724fdcfc72e726391e36591846456dd613a7b487c5230a38",
    (4, Fraction(1, 48)): "10d16c858c960f9cf2ca464bf14d73de24cd95a3ec6b396f9f5eed9608e958ca",
    (4, Fraction(1, 24)): "b05fd51f34e6128aa9e246db510bc3c5a6a0ab117267d709e164404c4b08199a",
    (5, Fraction(-1, 10)): "9e29c6905b6b2489889f1241868e0958836acd31eeda1f8236f7625f395164aa",
    (5, Fraction(0)): "7445d395b01f23dcc943ef8cd6a590ee71ed7d28ab401eb03cd4c145d43f0c62",
    (5, Fraction(1, 48)): "e72a3fa20995aeef013339d684ab89d25a5290dd5d2439e4f4f326082d4fdc86",
    (5, Fraction(1, 24)): "e433cafd98816221649f6deb192516fe01b256946223f313cd8ae743c4fc4418",
    (6, Fraction(-1, 10)): "15c208514095ca3837d5607562803a20ed748212e7bd640b1fe98677f56db22b",
    (6, Fraction(0)): "6b3e1ad63b7c07520755cc463193d6dd48a810cb89bbe922bb1dbfcd183d6040",
    (6, Fraction(1, 48)): "4e835f6171974172460ac3ada367dfe49bfe82c3d179a93dd2dabafb62a0f533",
}

# (minGap1, minGap2, minGapConvex per PINNED_S) of the same reports before
# that change, which computed lambda^3 with libm pow and summed each row
# pairwise: the values the lane must keep up to rounding
EARLIER_FLOAT_MINIMA = {
    (3, Fraction(-1, 10)): (
        1.2722213970864167e-05, -3.197442310920451e-14,
        (-3.197442310920451e-14, 6.361106985432088e-06, 9.541660478148126e-06,
         1.1131937224506148e-05, 1.2722213970864167e-05)),
    (3, Fraction(0)): (
        1.6610227188138533e-05, -2.4868995751603507e-14,
        (-2.4868995751603507e-14, 8.305113594069261e-06, 1.2457670391103896e-05,
         1.4533948789621215e-05, 1.6610227188138533e-05)),
    (3, Fraction(1, 48)): (
        2.2677875847935837e-05, -3.375077994860476e-14,
        (-3.375077994860476e-14, 1.1338937923967935e-05, 1.7008406885951886e-05,
         1.984314136694386e-05, 2.2677875847935837e-05)),
    (3, Fraction(1, 24)): (
        1.0822228093348868e-05, -4.440892098500626e-14,
        (-4.440892098500626e-14, 5.411114046674432e-06, 8.11667107001165e-06,
         9.46944958168026e-06, 1.0822228093348868e-05)),
    (4, Fraction(-1, 10)): (
        0.0015883979925019063, 0.002263183788218575,
        (0.002263183788218575, 0.0019257908903602405, 0.0017570944414310734,
         0.00167274621696649, 0.0015883979925019063)),
    (4, Fraction(0)): (
        0.0038547740005322366, 0.003730270119732909,
        (0.003730270119732909, 0.003792522060132573, 0.003823648030332405,
         0.0038392110154323207, 0.0038547740005322366)),
    (4, Fraction(1, 48)): (
        0.0009798047946293891, 0.000949984021250813,
        (0.000949984021250813, 0.0009648944079401011, 0.000972349601284745,
         0.0009760771979570671, 0.0009798047946293891)),
    (4, Fraction(1, 24)): (
        0.0013096688482362752, 0.0015298464757337973,
        (0.0015298464757337973, 0.0014197576619850362, 0.0013647132551106557,
         0.0013371910516734656, 0.0013096688482362752)),
    (5, Fraction(-1, 10)): (
        0.02004769761189824, 0.060800751863362486,
        (0.060800751863362486, 0.04042422473763036, 0.0302359611747643,
         0.02514182939333127, 0.02004769761189824)),
    (5, Fraction(0)): (
        0.027468792967396564, 0.08280580836818928,
        (0.08280580836818928, 0.05513730066779292, 0.04130304681759474,
         0.034385919892495655, 0.027468792967396564)),
    (5, Fraction(1, 48)): (
        0.08671912894470682, 0.2566567358076456,
        (0.2566567358076456, 0.17447697011436414, 0.13338708726772341,
         0.11284214584440305, 0.08671912894470682)),
    (5, Fraction(1, 24)): (
        0.03776603715407434, 0.1331290840688526,
        (0.1331290840688526, 0.08544756061146347, 0.061606798882768904,
         0.04968641801842162, 0.03776603715407434)),
    (6, Fraction(-1, 10)): (
        0.2326903394133029, 1.5977378216335032,
        (1.5977378216335032, 0.915214080523403, 0.5739522099683529,
         0.4033212746908279, 0.2326903394133029)),
    (6, Fraction(0)): (
        0.25628947181538125, 1.6761922177723083,
        (1.6761922177723083, 0.9662408447938448, 0.611265158304613,
         0.43377731505999717, 0.25628947181538125)),
    (6, Fraction(1, 48)): (
        0.2143467972300075, 1.246575813205179,
        (1.246575813205179, 0.7304613052175932, 0.47240405122380036,
         0.3433754242269039, 0.2143467972300075)),
}


@pytest.mark.parametrize("n, eps", CRITERION_COMBOS)
def test_float_lane_keeps_its_earlier_values(n, eps):
    # relative to max(1, |value|), GAP_RTOL's scale: at n = 3 estimate 2 is
    # an identity, and its minimum gap is rounding noise about 3e-14
    out = profile_batch_float(n, eps, PINNED_S, 20_000, 1)
    gap1, gap2, convex = EARLIER_FLOAT_MINIMA[n, eps]
    got = [out["minGap1"], out["minGap2"], *out["minGapConvex"].values()]
    assert list(out["minGapConvex"]) == [repr(float(s)) for s in PINNED_S]
    for value, earlier in zip(got, [gap1, gap2, *convex], strict=True):
        assert abs(value - earlier) <= 1e-12 * max(1.0, abs(earlier)), (value, earlier)
    assert out["violations"] == []


@pytest.mark.parametrize("n, eps", CRITERION_COMBOS)
def test_float_lane_report_is_unchanged(n, eps):
    out = profile_batch_float(n, eps, PINNED_S, 20_000, 1)
    assert report_digest(out) == PINNED_FLOAT_DIGESTS[n, eps]


# report_digest of profile_batch_exact(n, eps, 20_000, 1) before the exact
# lane ran through estimate_gaps; the n <= 4 combos and (5, -1/10) all draw an
# all-zero row, so their reports (minimum gaps 0, no violations) coincide
PINNED_EXACT_DIGESTS = {
    (3, Fraction(-1, 10)): "998e452ef1b5d5b2b865c52abe345344cf2bf7825621a1a9304abcdcad6e38d9",
    (3, Fraction(0)): "998e452ef1b5d5b2b865c52abe345344cf2bf7825621a1a9304abcdcad6e38d9",
    (3, Fraction(1, 48)): "998e452ef1b5d5b2b865c52abe345344cf2bf7825621a1a9304abcdcad6e38d9",
    (3, Fraction(1, 24)): "998e452ef1b5d5b2b865c52abe345344cf2bf7825621a1a9304abcdcad6e38d9",
    (4, Fraction(-1, 10)): "998e452ef1b5d5b2b865c52abe345344cf2bf7825621a1a9304abcdcad6e38d9",
    (4, Fraction(0)): "998e452ef1b5d5b2b865c52abe345344cf2bf7825621a1a9304abcdcad6e38d9",
    (4, Fraction(1, 48)): "998e452ef1b5d5b2b865c52abe345344cf2bf7825621a1a9304abcdcad6e38d9",
    (4, Fraction(1, 24)): "998e452ef1b5d5b2b865c52abe345344cf2bf7825621a1a9304abcdcad6e38d9",
    (5, Fraction(-1, 10)): "998e452ef1b5d5b2b865c52abe345344cf2bf7825621a1a9304abcdcad6e38d9",
    (5, Fraction(0)): "34c434734a7ec91cda4ce6b17b6edf37efaac842f13e761713bb1a3b052b0649",
    (5, Fraction(1, 48)): "010445b3353cdae2300d95bf36864e3bbb8a856b856ceb0c437fed11099d7631",
    (5, Fraction(1, 24)): "14c76e8ec98301c025da13574487eeda3ff186db18186e0558fbccbbd26f0602",
    (6, Fraction(-1, 10)): "98d0230e343800fda666b53525a8301413aff12c9d0059e48db641bd4820a99f",
    (6, Fraction(0)): "bdb48f42feed2a62ec5dcf8566c63b015145d28495750f790dd8c7ec718c2295",
    (6, Fraction(1, 48)): "1da7336c29b7ac1a2887fe94ac69670fd3c31038bec42a64d9b0f89aae51d1f6",
}


@pytest.mark.parametrize("n, eps", CRITERION_COMBOS)
def test_exact_lane_report_is_unchanged(n, eps):
    out = profile_batch_exact(n, eps, 20_000, 1)
    assert out["exactLane"] == "int64"
    assert report_digest(out) == PINNED_EXACT_DIGESTS[n, eps]


def test_python_int_lane_report_is_unchanged():
    out = [profile_batch_exact(6, Fraction(1, 1000), 5000, 0),
           profile_batch_exact(4, Fraction(1, 10 ** 20), 10, 0)]
    assert [o["exactLane"] for o in out] == ["python-int"] * 2
    assert report_digest(out) == (
        "75bf55c4f83deba739b0972130bcf91c41dc3c38cd061625b2778d4d36895eaf")


def _spy_on_gaps(monkeypatch):
    """Record the arguments and result of each estimate_gaps call."""
    calls = []

    def spy(*args):
        calls.append((args, estimate_gaps(*args)))
        return calls[-1][1]

    monkeypatch.setattr(profiles, "estimate_gaps", spy)
    return calls


def _run_lane(lane, n, eps, count, seed, distribution="half-normal"):
    if lane == "float":
        return profile_batch_float(n, eps, PINNED_S, count, seed, distribution)
    return profile_batch_exact(n, eps, count, seed, distribution)


def _lane_rows(lane, n):
    """The most rows a block of a lane ("float", "int64" or "python-int") at
    n holds: as many as profiles.BLOCK_BYTES holds of an (m, rows) operand."""
    entry_bytes = profiles.PYTHON_INT_BYTES if lane == "python-int" else 8
    return profiles.BLOCK_BYTES // (n * (n - 1) // 2 * entry_bytes)


def _block_sizes(count, rows):
    """The sizes of the fewest blocks of at most rows rows that hold count
    rows, within one row of each other, the larger ones first."""
    blocks = -(-count // rows)
    small, larger = divmod(count, blocks) if blocks else (0, 0)
    return [small + 1] * larger + [small] * (blocks - larger)


@pytest.mark.parametrize("n, eps, count", [(5, Fraction(1, 48), 7000),
                                           (6, Fraction(1, 1000), 4500)])
def test_every_exact_block_goes_through_estimate_gaps(monkeypatch, n, eps, count):
    # both lanes, each over several blocks of its own size, of equal sizes
    # (within one row), none of them short
    calls = _spy_on_gaps(monkeypatch)
    for lane in ("float", "exact"):
        calls.clear()
        out = _run_lane(lane, n, eps, count, 2)
        sizes = [len(rows.gap1) for _, rows in calls]
        block_rows = _lane_rows(out.get("exactLane", lane), n)
        assert len(sizes) > 2 and sizes == _block_sizes(count, block_rows)
        if out.get("exactLane") == "python-int":
            # cli-exact's n = 6, eps = 1/1000: no more rows than the 1024
            # that kept its peak memory low, as Python ints take more bytes
            assert max(sizes) <= 1024 < _lane_rows("int64", n)
        if lane == "float":
            assert out["minGap1"] == min(rows.gap1.min() for _, rows in calls)
            assert not out["violations"]
            continue
        for args, rows in calls:
            assert args[4] == profiles._integer_coefficients(n, eps) and args[5] == []
            assert rows.gap1.dtype == (np.int64 if out["exactLane"] == "int64" else object)
        assert out["minGap1Num"] == min(rows.gap1.min() for _, rows in calls)
        assert out["minGap2Num"] == min(rows.gap2.min() for _, rows in calls)
        assert out["slackIdentityExact"] and all((rows.residual == 0).all()
                                                 for _, rows in calls)
        assert not out["violations"] and not any(rows.bad.any() for _, rows in calls)


@pytest.mark.parametrize("lane", ["float", "exact"])
@pytest.mark.parametrize("n, eps", [(4, Fraction(1, 24)), (6, Fraction(1, 48))])
def test_rows_are_independent_of_blocks(monkeypatch, lane, n, eps):
    # each block reaches estimate_gaps C-contiguous and pair-major, and a
    # row's values are, bit for bit, those of the row evaluated alone: every
    # 16th row and the last of each block are checked, over three blocks of
    # sizes within one row of each other
    calls = _spy_on_gaps(monkeypatch)
    block_rows = _lane_rows("float" if lane == "float" else "int64", n)
    count = 2 * block_rows + 7
    _run_lane(lane, n, eps, count, 0)
    sizes = [len(rows.gap1) for _, rows in calls]
    assert sizes == _block_sizes(count, block_rows) and len(sizes) == 3
    m = n * (n - 1) // 2
    for (lam, sig, sb, R, coefficients, s_list, *lane), rows in calls:
        for block, height in ((lam, n), (sig, m), (sb, m)):
            assert block.flags.c_contiguous and block.shape == (height, len(R))
        for r in {*range(0, len(R), 16), len(R) - 1}:
            one = estimate_gaps(lam[:, r:r + 1], sig[:, r:r + 1], sb[:, r:r + 1], R[r:r + 1],
                                coefficients, s_list, *lane)
            for got, alone in zip([rows.gap1, rows.gap2, rows.residual, *rows.convex],
                                  [one.gap1, one.gap2, one.residual, *one.convex]):
                assert got[r:r + 1].tobytes() == alone.tobytes(), r
        if lane == "float":   # and the block's profiles are each assembled alone
            for r in {*range(0, len(R), 16), len(R) - 1}:
                one_R, one_sig, one_lam = _assemble(n, sb[:, r:r + 1], float(eps))
                assert (one_R[0], *one_sig[:, 0], *one_lam[:, 0]) == (
                    R[r], *sig[:, r], *lam[:, r]), r


@pytest.mark.parametrize("lane, eps", [("float", Fraction(1, 48)), ("int64", Fraction(1, 48)),
                                       ("python-int", Fraction(1, 1000))])
def test_blocks_are_the_fewest_that_fit_and_differ_by_at_most_one_row(monkeypatch, lane, eps):
    # no block for count 0, one for a count up to one block's rows, and past
    # that the fewest blocks that fit the byte budget, within one row of
    # each other, so no count ends in a short last block
    checked = checked_rows(monkeypatch)
    n, block_rows = 6, _lane_rows(lane, 6)
    entry_bytes = profiles.PYTHON_INT_BYTES if lane == "python-int" else 8
    for count in (0, 1, block_rows - 1, block_rows, block_rows + 1, 2 * block_rows + 1,
                  3 * block_rows):
        checked.clear()
        out = _run_lane("float" if lane == "float" else "exact", n, eps, count, 1)
        assert out["count"] == count and out.get("exactLane", "float") == lane
        sizes = [len(rows) for rows in checked]
        assert sum(sizes) == count and len(sizes) == -(-count // block_rows), count
        if count:
            assert max(sizes) - min(sizes) <= 1, (count, sizes)
            assert max(sizes) * 15 * entry_bytes <= profiles.BLOCK_BYTES
    if lane == "float":   # verify-estimates --n 6 --count 5000
        checked.clear()
        _run_lane("float", n, eps, 5000, 1)
        assert [len(rows) for rows in checked] == [1667, 1667, 1666]


def test_equal_blocks_hold_the_lane_peak():
    # verify-estimates --n 6 --count 5000 runs three blocks of about 1667
    # rows: after one untraced warm-up call, the float lane's traced peak
    # stays within 2.1e6 bytes (1879 KiB when measured), where blocks of
    # 2184 + 2184 + 632 rows took 2457 KiB
    profile_batch_float(6, 1 / 1000, [0, 1 / 2, 1], 5000, 1)
    tracemalloc.start()
    try:
        profile_batch_float(6, 1 / 1000, [0, 1 / 2, 1], 5000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_100_000, peak


@pytest.mark.parametrize("lane", ["float", "exact"])
def test_lanes_keep_no_full_length_temporaries(lane):
    # each block is reduced as soon as it is checked, the float draws take
    # abs in place, and the sparse mask is drawn block by block: a lane's
    # traced peak at n = 6 stays within 1.3 times the 11.4 MB that its
    # 100 000 draws would take as one (100 000, 15) array of 8-byte entries
    for distribution in ("half-normal", "sparse"):
        tracemalloc.start()
        try:
            _run_lane(lane, 6, Fraction(1, 48), 100_000, 1, distribution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 100_000 * 15 * 8, (distribution, peak)


@pytest.mark.parametrize("lane", ["float", "exact"])
def test_lane_memory_does_not_grow_with_the_count(lane):
    # the draws go through a ring of profiles.RING_SLOTS reused blocks and
    # the reduction keeps one running minimum: after one untraced warm-up
    # call, a lane's traced peak at n = 6 and 10^6 profiles stays within
    # 1.25 times its peak at 10^5
    _run_lane(lane, 6, Fraction(1, 48), 100_000, 1)
    peaks = []
    for count in (100_000, 1_000_000):
        tracemalloc.start()
        try:
            _run_lane(lane, 6, Fraction(1, 48), count, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def _corrupt_rows(monkeypatch, marked):
    """Lower estimate 1's quadratic coefficient by one, in its arithmetic
    (the exact lane's integer coefficients by their scale), on the rows whose
    shifted curvatures as estimate_gaps gets them (sb, or the exact lane's
    numerators of sb) are a row of marked, and on no other row."""
    gaps = profiles.estimate_gaps

    def corrupted(lam, sig, sb, R, coefficients, s_list, lane=None):
        rows = gaps(lam, sig, sb, R, coefficients, s_list, lane)
        hit = np.zeros(len(R), bool)
        for row in marked:
            hit |= (sb == row[:, None]).all(axis=0)
        (weight1, quadratic1, cubic1), second = coefficients
        low = gaps(lam, sig, sb, R, ((weight1, quadratic1 - weight1, cubic1), second), s_list,
                   lane)

        def pick(corrupt, true):
            return np.where(hit, corrupt, true)
        return profiles.GapRows(*map(pick, low[:5], rows[:5]),
                                list(map(pick, low.convex, rows.convex)),
                                pick(low.residual, rows.residual), pick(low.bad, rows.bad))
    monkeypatch.setattr(profiles, "estimate_gaps", corrupted)


@pytest.mark.parametrize("lane, eps", [("float", Fraction(1, 48)), ("int64", Fraction(1, 48)),
                                       ("python-int", Fraction(1, 1000))])
def test_violations_in_any_block_dump_their_row(monkeypatch, lane, eps):
    # violations in the first and second blocks, in the fifth (whose ring
    # slot the first one's rows held before) and in the last block
    # each dump the row of one full draw, copied out of its block, and replay
    # alone through check_estimates: bit for bit in float, exactly in
    # int64 and Python ints
    n, block_rows = 6, _lane_rows(lane, 6)
    count = 5 * block_rows + 77
    exact = lane != "float"
    want = full_draw(_combo_rng(1, n, eps if exact else float(eps)),
                     "exact" if exact else "float", (count, 15))
    targets = [3, block_rows + 17, 4 * block_rows + 5, count - 1]
    d = eps.denominator - n * (n - 1) * eps.numerator
    _corrupt_rows(monkeypatch, [want[idx] * scale for idx in targets for scale in (1, d)])
    out = _run_lane("exact" if exact else "float", n, eps, count, 1)
    assert out.get("exactLane", "float") == lane
    assert [v["index"] for v in out["violations"]] == targets
    for v in out["violations"]:
        assert v["sigmaBar"] == want[v["index"]].tolist()
        if not exact:
            rows = check_estimates(np.array(v["sigmaBar"]), eps, PINNED_S)
            assert rows.bad[0] and [float(rows.gap1[0]).hex(), float(rows.gap2[0]).hex()] == [
                v["gap1"].hex(), v["gap2"].hex()]
            continue
        rows = check_estimates(np.array(v["sigmaBar"], dtype=object), eps, [])
        assert rows.bad[0] and type(rows.gap1[0]) is Fraction
        assert Fraction(v["gap1Num"], v["gap1Den"]) == rows.gap1[0]
        assert Fraction(v["gap2Num"], v["gap2Den"]) == rows.gap2[0]
        assert Fraction(v["slackNum"], v["slackDen"]) == rows.gap1[0] - rows.residual[0]


@pytest.mark.parametrize("lane, eps", [("float", Fraction(1, 48)), ("int64", Fraction(1, 48)),
                                       ("python-int", Fraction(1, 1000))])
def test_one_row_blocks_are_copied_out_of_the_ring(monkeypatch, lane, eps):
    # with one row a block (n >= 82 in Python ints, n >= 182 in float or
    # int64), a slot's (m, 1) transpose is C-contiguous already; the checks
    # still take a copy of it, so the rows they check and the violations'
    # sigmaBar, in the first block and in the fifth (the first one's slot
    # again) and later, are one full draw's, however long each check runs
    # while the worker refills the ring
    n, count = 6, 11
    exact = lane != "float"
    want = full_draw(_combo_rng(1, n, eps if exact else float(eps)),
                     "exact" if exact else "float", (count, 15))
    targets = [0, 4, 9]
    d = eps.denominator - n * (n - 1) * eps.numerator
    _corrupt_rows(monkeypatch, [want[idx] * scale for idx in targets for scale in (1, d)])
    monkeypatch.setattr(profiles, "BLOCK_BYTES", 1)
    checked, check_blocks = checked_rows(monkeypatch), profiles._check_blocks

    def slow(*args):
        *head, check = args
        return check_blocks(*head, lambda block: time.sleep(0.002) or check(block))
    monkeypatch.setattr(profiles, "_check_blocks", slow)
    out = _run_lane("exact" if exact else "float", n, eps, count, 1)
    assert out.get("exactLane", "float") == lane
    assert [len(rows) for rows in checked] == [1] * count
    assert np.array_equal(np.concatenate(checked), want)
    assert [v["index"] for v in out["violations"]] == targets
    assert [v["sigmaBar"] for v in out["violations"]] == [want[idx].tolist() for idx in targets]


def test_empty_lanes():
    assert _untimed(profile_batch_float(4, Fraction(1, 48), PINNED_S, 0, 1)) == {
        "count": 0, "minGap1": None, "minGap2": None, "maxSlackResidual": None,
        "minGapConvex": {repr(float(s)): None for s in PINNED_S}, "violations": []}
    assert _untimed(profile_batch_exact(4, Fraction(1, 48), 0, 1)) == {
        "count": 0, "slackIdentityExact": True, "violations": [], "minGap1Num": None,
        "minGap2Num": None, "exactLane": "int64"}


def test_batch_exact_numerators_match_rational_profiles():
    """The int64 lane's minimum gaps, rebuilt from the same draws as exact
    profiles: minGap1Num = min(gap1) n^3 q d^3, minGap2Num = min(gap2)
    2 n^3 q d^3 with d = q - n(n-1)p."""
    count, seed = 40, 11
    for n, eps in ((3, Fraction(-1, 10)), (4, Fraction(1, 24)),
                   (5, Fraction(1, 48)), (6, Fraction(0))):
        p, q = eps.numerator, eps.denominator
        d = q - n * (n - 1) * p
        m = n * (n - 1) // 2
        draws = _combo_rng(seed, n, eps).integers(0, _EXACT_SB_MAX + 1, size=(count, m))
        rows = [check_estimates(row, eps, []) for row in draws.astype(object)]
        out = profile_batch_exact(n, eps, count, seed)
        assert out["minGap1Num"] == min(r.gap1[0] for r in rows) * n ** 3 * q * d ** 3
        assert out["minGap2Num"] == min(r.gap2[0] for r in rows) * 2 * n ** 3 * q * d ** 3


def test_batch_exact_identity_and_signs():
    out = profile_batch_exact(5, Fraction(1, 48), 2000, 7)
    assert out["slackIdentityExact"]
    assert not out["violations"]
    assert out["minGap1Num"] >= 0 and out["minGap2Num"] >= 0


def test_batch_exact_negative_eps():
    out = profile_batch_exact(4, Fraction(-1, 10), 500, 3)
    assert out["slackIdentityExact"] and not out["violations"]


SUBCRITICAL = [(n, eps) for n in (3, 4, 5, 6)
               for eps in (Fraction(-1, 10), Fraction(0), Fraction(1, 48), Fraction(1, 24))
               if eps * n * (n - 1) < 1]


def test_exact_bound_picks_int64_on_every_subcritical_combo():
    assert len(SUBCRITICAL) == 15
    bounds = {combo: exact_profile_bounds(*combo) for combo in SUBCRITICAL}
    assert all(scalars.exact_lane(b) == "int64" for pair in bounds.values() for b in pair)
    gaps = {combo: pair[1] for combo, pair in bounds.items()}
    worst = max(gaps, key=gaps.get)
    assert worst == (6, Fraction(1, 48)) and 6e16 < gaps[worst] < 7e16


def _int64_limit(n, stage):
    """The largest q for which stage (0: the sums, 1: the gaps) of
    profile_batch_exact at eps = 1/q runs in int64, by bisection: the bounds
    grow with q, from q = n(n-1) + 1, the smallest subcritical one."""
    def fits(q):
        return scalars.exact_lane(exact_profile_bounds(n, Fraction(1, q))[stage]) == "int64"

    low, high = n * (n - 1) + 1, 2 ** 20
    assert fits(low) and not fits(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if fits(mid) else (low, mid)
    return low


def test_each_stage_has_its_own_int64_limit():
    # eps = 1/q: the sums stay in int64 far beyond the gaps (README's table)
    limits = {n: (_int64_limit(n, 0), _int64_limit(n, 1)) for n in range(3, 9)}
    assert limits == {3: (13463, 816), 4: (6116, 411), 5: (3406, 238),
                      6: (2137, 155), 7: (1450, 111), 8: (1040, 85)}


@pytest.mark.parametrize("n, eps, count", [
    (6, Fraction(1, 1000), 5000),                 # products beyond int64
    (4, Fraction(1, 10 ** 20), 10),               # a denominator beyond int64
])
def test_batch_exact_runs_python_ints_beyond_int64(n, eps, count):
    assert scalars.exact_lane(exact_profile_bounds(n, eps)[1]) == "python-int"
    out = profile_batch_exact(n, eps, count, 0)
    assert out["exactLane"] == "python-int"
    assert out["slackIdentityExact"] and not out["violations"]
    assert out["minGap1Num"] >= 0 and out["minGap2Num"] >= 0


def _untimed(report):
    """A lane's report without its timings."""
    return {k: v for k, v in report.items() if k != "timings"}


def _wrong_estimate1(monkeypatch):
    """Add one to estimate 1's integer quadratic coefficient."""
    real = profiles._integer_coefficients

    def wrong(n, f):
        (scale, quadratic, cubic), second = real(n, f)
        return [(scale, quadratic + 1, cubic), second]

    monkeypatch.setattr(profiles, "_integer_coefficients", wrong)


@pytest.mark.parametrize("wrong", [False, True])
def test_batch_exact_lanes_agree(monkeypatch, wrong):
    if wrong:
        _wrong_estimate1(monkeypatch)
    for n, eps in ((3, Fraction(-1, 10)), (4, Fraction(1, 24)), (6, Fraction(1, 48))):
        monkeypatch.setattr(scalars, "INT64_MAX", 2 ** 63 - 1)
        int64 = profile_batch_exact(n, eps, 300, 4)
        monkeypatch.setattr(scalars, "INT64_MAX", 0)
        python_int = profile_batch_exact(n, eps, 300, 4)
        assert (int64.pop("exactLane"), python_int.pop("exactLane")) == ("int64", "python-int")
        assert _untimed(python_int) == _untimed(int64)
        assert bool(int64["violations"]) == wrong


@pytest.mark.parametrize("n, eps", [(4, Fraction(1, 24)), (6, Fraction(1, 48)),
                                    (6, Fraction(1, 1000))])
def test_exact_violations_state_their_denominators(monkeypatch, n, eps):
    # each violation of the int64 and the Python-int lane replays alone:
    # each numerator over its stated denominator is the gap that
    # check_estimates gives on the violation's sigmaBar, in Fractions
    lower_estimate1(monkeypatch, 1)
    out = profile_batch_exact(n, eps, 300, 3)
    assert out["exactLane"] == ("python-int" if eps == Fraction(1, 1000) else "int64")
    assert out["violations"]
    for v in out["violations"]:
        rows = check_estimates(np.array(v["sigmaBar"], dtype=object), eps, [])
        assert rows.bad[0] and type(rows.gap1[0]) is Fraction
        assert Fraction(v["gap1Num"], v["gap1Den"]) == rows.gap1[0]
        assert Fraction(v["gap2Num"], v["gap2Den"]) == rows.gap2[0]
        assert Fraction(v["slackNum"], v["slackDen"]) == rows.gap1[0] - rows.residual[0]


def test_float_violations_replay_alone(monkeypatch):
    # every float-lane violation of a corrupted estimate 1 replays alone:
    # check_estimates on its sigmaBar runs the lane's row function and
    # gives the lane's gap1 and gap2 bit for bit
    lower_estimate1(monkeypatch, 1)
    replayed = 0
    for n in (4, 5, 6):
        for eps in (Fraction(-1, 10), Fraction(0), Fraction(1, 48)):
            for distribution in DISTRIBUTIONS:
                out = profile_batch_float(n, eps, PINNED_S, 3000, 3, distribution)
                for v in out["violations"]:
                    rows = check_estimates(np.array(v["sigmaBar"]), eps, PINNED_S)
                    assert rows.bad[0]
                    assert [float(rows.gap1[0]).hex(), float(rows.gap2[0]).hex()] == [
                        v["gap1"].hex(), v["gap2"].hex()], (n, eps, distribution, v["index"])
                    replayed += 1
    assert replayed == 270


class _ExtremeDraws:
    """Stands in for a combo's generator in profile_batch_exact: first every
    shifted curvature at the largest draw, then each alone at it, then
    uniform draws."""

    def integers(self, low, high, size):
        count, m = size
        return np.concatenate([np.full((1, m), high - 1), (high - 1) * np.eye(m, dtype=int),
                               np.random.default_rng(0).integers(low, high, size=(count, m))])[:count]


@pytest.mark.parametrize("n, eps", [(3, Fraction(-1, 10)), (6, Fraction(1, 48)),
                                    (6, Fraction(1, 1000)), (4, Fraction(1, 10 ** 20))])
def test_exact_bound_covers_the_kernel(monkeypatch, recorded_kinds, n, eps):
    # each stage's numbers are a recorded kind of their own: the block's, as
    # the sums' lane takes it, and the sums', as the gaps' lane takes them
    sums, gaps = recorded_kinds(), recorded_kinds()
    monkeypatch.setattr(profiles, "_combo_rng", lambda *args: _ExtremeDraws())
    monkeypatch.setattr(profiles, "lane_array", lambda values, lane: (
        sums if values.dtype == np.int64 else gaps).array(values))
    out = profile_batch_exact(n, eps, 100, 0)
    assert out["slackIdentityExact"] and not out["violations"]
    sums_bound, gaps_bound = exact_profile_bounds(n, eps)
    assert 0 < sums.peak <= sums_bound and 0 < gaps.peak <= gaps_bound


def _stage_lanes(calls):
    """The (sums, gaps) dtypes of every estimate_gaps call spied on."""
    return {(str(args[0].dtype), str(rows.gap1.dtype)) for args, rows in calls}


def test_each_stage_runs_in_its_own_lane(monkeypatch):
    calls = _spy_on_gaps(monkeypatch)
    for (n, eps), lanes in [((6, Fraction(1, 1000)), ("int64", "object")),
                            ((4, Fraction(1, 10 ** 20)), ("object", "object"))] + [
            (combo, ("int64", "int64")) for combo in SUBCRITICAL]:
        calls.clear()
        out = profile_batch_exact(n, eps, 1000, 1)
        assert _stage_lanes(calls) == {lanes}, (n, eps)
        assert out["exactLane"] == ("int64" if lanes[1] == "int64" else "python-int")


@pytest.mark.parametrize("wrong", [False, True])
def test_mixed_lane_equals_the_python_int_lane(monkeypatch, wrong):
    # int64 sums and Python-int gaps give the report of Python ints
    # throughout, violations included, for every n and distribution
    if wrong:
        _wrong_estimate1(monkeypatch)
    calls = _spy_on_gaps(monkeypatch)
    eps = Fraction(1, 1000)
    for n in (3, 4, 5, 6):
        for distribution in DISTRIBUTIONS:
            calls.clear()
            monkeypatch.setattr(scalars, "INT64_MAX", 2 ** 63 - 1)
            mixed = profile_batch_exact(n, eps, 1000, 5, distribution)
            assert _stage_lanes(calls) == {("int64", "object")}
            calls.clear()
            monkeypatch.setattr(scalars, "INT64_MAX", 0)
            python_int = profile_batch_exact(n, eps, 1000, 5, distribution)
            assert _stage_lanes(calls) == {("object", "object")}
            assert _untimed(mixed) == _untimed(python_int), (n, distribution)
            assert bool(mixed["violations"]) == wrong


def test_python_int_lane_gets_no_floats():
    values = scalars.lane_array(np.eye(3), "python-int")
    assert values.dtype == object and all(type(v) is int for v in values.reshape(-1))
    assert scalars.lane_array(np.eye(3), "int64").dtype == np.int64


@pytest.mark.parametrize("kwargs", [{"distribution": "sparce"}, {"mode": "exact"},
                                    {"distribution": "sparce", "mode": "exact"}])
def test_campaign_config_rejects_unknown_names(kwargs):
    with pytest.raises(ValueError, match="sparce|exact"):
        CampaignConfig(**kwargs)


def test_samplers_reject_unknown_distributions_and_modes():
    with pytest.raises(ValueError, match="gaussian"):
        profile_batch_float(4, 0, [1], 10, 0, "gaussian")
    with pytest.raises(ValueError, match="gaussian"):
        profile_batch_exact(4, 0, 10, 0, "gaussian")


@pytest.mark.parametrize("shape", [(20_000, 15), (7777, 10), (1000, 10), (0, 6)])
def test_rows_drawn_by_block_continue_the_stream(monkeypatch, shape):
    # the rows a lane checks, of every distribution, drawn block by block
    # into its ring (by the worker when there are several blocks), are one
    # full draw of them, and the generator goes on as after that draw;
    # eps = 1/1000 gives the exact lane's Python-int blocks at n = 6
    count, m = shape
    n = pair_dimension(m)
    checked = checked_rows(monkeypatch)
    for lane, eps in (("float", Fraction(1, 48)), ("exact", Fraction(1, 48)),
                      ("exact", Fraction(1, 1000))):
        for distribution in DISTRIBUTIONS:
            rng, full = np.random.default_rng(5), np.random.default_rng(5)
            monkeypatch.setattr(profiles, "_combo_rng", lambda *args: rng)
            checked.clear()
            _run_lane(lane, n, eps, count, 0, distribution)
            want, case = full_draw(full, lane, shape, distribution), (lane, eps, distribution)
            got = np.concatenate(checked) if checked else np.empty((0, m), want.dtype)
            assert got.dtype == want.dtype and np.array_equal(got, want), case
            assert rng.integers(0, 2 ** 62) == full.integers(0, 2 ** 62), case


@pytest.mark.parametrize("lane", ["float", "exact"])
def test_sparse_draws_have_the_law_of_a_masked_value(lane):
    # "sparse" is a value times an independent fair 0/1 mask in law: the
    # rows a lane checks at n = 6 over 10^5 profiles (1.5 * 10^6 entries)
    # are 0 with probability 1/2 and half-normal otherwise in float (mean
    # sqrt(2/pi)), and 0 with probability 11/20 and each of 1..9 with
    # probability 1/20 in the exact lane; each tolerance is over 8 standard
    # errors, and a zero fraction of 10/19 (integers(-9, 10) clipped at 0)
    # is 0.024 off
    with pytest.MonkeyPatch.context() as monkeypatch:
        checked = checked_rows(monkeypatch)
        _run_lane(lane, 6, Fraction(1, 48), 100_000, 3, "sparse")
    sb = np.concatenate(checked)
    assert sb.shape == (100_000, 15) and (sb >= 0).all()
    zero = (sb == 0).mean()
    if lane == "float":
        assert abs(zero - 0.5) < 0.004, zero
        assert abs(sb[sb > 0].mean() - np.sqrt(2 / np.pi)) < 0.006
        return
    frequencies = np.bincount(sb.ravel(), minlength=_EXACT_SB_MAX + 1) / sb.size
    assert len(frequencies) == _EXACT_SB_MAX + 1, frequencies
    assert abs(frequencies[0] - 11 / 20) < 0.004, frequencies
    assert np.abs(frequencies[1:] - 1 / 20).max() < 0.0025, frequencies


@pytest.mark.parametrize("lane", ["float", "exact"])
def test_worker_waits_once_every_ring_slots_minus_one_blocks(monkeypatch, lane):
    # with one row a block and each check slowed by 2 ms, the worker runs
    # ahead and waits for free slots; it is woken once the checks have
    # freed RING_SLOTS - 1 of them, so over 60 blocks it sleeps at most 20
    # times, where waking it at every copy would make it sleep once a
    # block, 56 times (every sleep of a thread on a Condition, a Semaphore
    # or an Event goes through Condition.wait)
    sleeps, wait = [], threading.Condition.wait

    def counting(self, timeout=None):
        sleeps.append(threading.current_thread() is not threading.main_thread())
        return wait(self, timeout)
    monkeypatch.setattr(threading.Condition, "wait", counting)
    monkeypatch.setattr(profiles, "BLOCK_BYTES", 1)
    check_blocks = profiles._check_blocks

    def slow(*args):
        *head, check = args
        return check_blocks(*head, lambda block: time.sleep(0.002) or check(block))
    monkeypatch.setattr(profiles, "_check_blocks", slow)
    blocks = 60
    assert _run_lane(lane, 6, Fraction(1, 48), blocks, 1)["count"] == blocks
    assert 0 < sleeps.count(True) <= blocks / (profiles.RING_SLOTS - 1), sleeps.count(True)


def _draw_fault(monkeypatch, step):
    """Make the lanes' draws raise in place of their step-th block draw
    (counted from 1); the returned list collects the threads the draws ran
    on."""
    draw_values, threads = profiles._draw_values, []

    def failing(*args):
        threads.append(threading.current_thread())
        if len(threads) == step:
            raise RuntimeError(f"draw fault on block {step}")
        return draw_values(*args)
    monkeypatch.setattr(profiles, "_draw_values", failing)
    return threads


def _kernel_fault(monkeypatch, call):
    """Make estimate_gaps raise on its call-th call (counted from 1)."""
    gaps, calls = profiles.estimate_gaps, []

    def failing(*args):
        calls.append(args)
        if len(calls) == call:
            raise RuntimeError(f"kernel fault on block {call}")
        return gaps(*args)
    monkeypatch.setattr(profiles, "estimate_gaps", failing)


@pytest.mark.parametrize("lane", ["float", "exact"])
@pytest.mark.parametrize("fault", ["draw", "kernel"])
def test_lane_faults_are_raised_and_leave_no_thread(monkeypatch, lane, fault):
    # a fault of the worker's draws (on the 3rd block) or of the kernel (on
    # the 2nd) is the lane's, the rows checked before it, in blocks of the
    # lane's equal sizes, are the leading rows of one full draw, and the
    # worker is joined before the lane raises
    threads = _draw_fault(monkeypatch, 3) if fault == "draw" else _kernel_fault(monkeypatch, 2)
    checked = checked_rows(monkeypatch)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{fault} fault on block"):
        _run_lane(lane, 5, Fraction(1, 48), 20_000, 1)
    assert threading.active_count() == before
    if fault == "draw":
        assert threads and threading.main_thread() not in threads
    sizes = _block_sizes(20_000, _lane_rows("float" if lane == "float" else "int64", 5))
    assert [len(rows) for rows in checked] == sizes[:len(checked) if fault == "draw" else 2]
    assert len(checked) <= 2
    eps = Fraction(1, 48) if lane == "exact" else 1 / 48   # as the lane seeds its generator
    want = full_draw(_combo_rng(1, 5, eps), lane, (20_000, 10))
    starts = np.cumsum([0, *sizes])
    for k, rows in enumerate(checked):
        assert np.array_equal(rows, want[starts[k]:starts[k + 1]]), k


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_block_lane_starts_no_thread(monkeypatch, n):
    # cli-exact's `all` runs the float lane at count 1000, one block at
    # n = 3..6: it is drawn inline, with no thread to start and join
    started, thread = [], threading.Thread
    monkeypatch.setattr(threading, "Thread", lambda *a, **k: started.append(k) or thread(*a, **k))
    for count in (1000, 2 * _lane_rows("float", n)):   # one block, then two
        out = profile_batch_float(n, Fraction(0), PINNED_S, count, 2)
        assert out["count"] == count and len(started) == (count > _lane_rows("float", n))


def test_mc_campaign_profile_skips_supercritical():
    config = CampaignConfig(kind="profile", dims=(4, 6),
                            eps_list=(Fraction(1, 24),), s_list=(0, 1),
                            count=500, seed=1, mode=RATIONAL)
    report = mc_campaign(config)
    # 1/24 >= 1/30 so the n = 6 combo is outside the sampler domain
    assert [c["n"] for c in report["checks"]] == [4]
    assert not report["violations"]
    assert "exact" in report["checks"][0]


def test_mc_campaign_tensor_kind():
    config = CampaignConfig(kind="tensor", dims=(4,), eps_list=(Fraction(0),),
                            s_list=(0, 1), count=3, seed=5, mode=FLOAT)
    report = mc_campaign(config)
    entry = report["checks"][0]
    assert entry["minSecRecheckPassed"] == 3
    assert not report["violations"]
    assert entry["minGap1"] >= -1e-9
    assert entry["minSecMethod"] == "dual"
    assert 0 <= entry["minSecBracketWidthMax"] <= 1e-12


def test_sparse_exact_lane_reaches_the_equality_case():
    default = profile_batch_exact(4, Fraction(1, 24), 300, 0)
    assert _untimed(default) == _untimed(profile_batch_exact(4, Fraction(1, 24), 300, 0,
                                                            "half-normal"))
    assert default["minGap1Num"] > 0
    config = CampaignConfig(kind="profile", dims=(4, 5), eps_list=(Fraction(1, 48),),
                            s_list=(0, 1), count=300, seed=0, mode=RATIONAL,
                            distribution="sparse")
    report = mc_campaign(config)
    assert not report["violations"]
    for entry in report["checks"]:
        assert entry["exact"]["slackIdentityExact"], entry["n"]
        assert entry["exact"]["minGap1Num"] == 0, entry["n"]


def test_mc_campaign_tensor_kind_n5_uses_the_dual():
    config = CampaignConfig(kind="tensor", dims=(5,), eps_list=(Fraction(0),),
                            s_list=(0, 1), count=1, seed=5, mode=FLOAT)
    entry = mc_campaign(config)["checks"][0]
    assert entry["minSecRecheckPassed"] == 1
    assert entry["minSecMethod"] == "dual"
    assert 0 <= entry["minSecBracketWidthMax"] <= 1e-12


def test_tensor_combo_matches_check_estimates():
    from pinchlab.curvature import random_curvature
    from pinchlab.minsec import shift_to_pinching
    eps, s_list = Fraction(1, 24), (0, Fraction(1, 2), 1)
    config = CampaignConfig(kind="tensor", dims=(4,), eps_list=(eps,),
                            s_list=s_list, count=3, seed=9, mode=FLOAT)
    entry = mc_campaign(config)["checks"][0]
    reports = []
    for idx in range(3):
        Rm = random_curvature(4, [9, 4, idx], FLOAT)
        shifted, _, _ = shift_to_pinching(Rm, float(eps), TENSOR_MARGIN)
        reports.append(check_estimates(shifted, eps, s_list))
    assert entry["minGap1"] == min(r.gap1[0] for r in reports)
    assert entry["minGap2"] == min(r.gap2[0] for r in reports)
    for k, s in enumerate(s_list):
        assert entry["minGapConvex"][repr(float(s))] == min(r.convex[k][0] for r in reports)
    assert entry["maxSlackResidual"] == max(abs(r.residual[0]) for r in reports)


def test_tensor_lane_slack_residual_is_rounding(monkeypatch):
    # the eigenframe of every n the dual covers satisfies the slack identity
    # to rounding; the campaign evaluates each combo in one estimate_gaps call
    calls = []

    def spy(*args):
        calls.append(estimate_gaps(*args))
        return calls[-1]

    monkeypatch.setattr(profiles, "estimate_gaps", spy)
    config = CampaignConfig(kind="tensor", dims=tuple(range(3, 9)), eps_list=(Fraction(0),),
                            s_list=(0, 1), count=2, seed=3, mode=FLOAT)
    report = mc_campaign(config)
    assert len(calls) == 6 and not report["violations"]
    for entry, rows in zip(report["checks"], calls):
        scale = np.maximum(1.0, np.abs([rows.lhs, rows.rhs1, rows.rhs2]).max(axis=0))
        assert (np.abs(rows.residual) <= 1e-12 * scale).all(), entry["n"]
        assert entry["maxSlackResidual"] == np.abs(rows.residual).max()


def test_tensor_certification_uses_the_dual_lower_bound(monkeypatch):
    from pinchlab import minsec
    from pinchlab.curvature import AlgCurvTensor, random_curvature
    exact_bracket, exact_shift = minsec.dual_bracket_stack, minsec.shift_by_stack
    shifts = []

    def loose(*args):   # a lower end far below the true minimum
        lower, upper = exact_bracket(*args)
        return lower - 1.0, upper

    def counted(rhat, *args):   # one entry per shifted tensor
        shifts.extend([rhat.shape[-1]] * len(rhat))
        return exact_shift(rhat, *args)

    monkeypatch.setattr(minsec, "dual_bracket_stack", loose)
    monkeypatch.setattr(minsec, "shift_by_stack", counted)
    for n in (4, 5):
        # shifted by its plane's curvature only, which the loose lower end
        # cannot certify
        Rm = random_curvature(n, 0, FLOAT)
        Rm = AlgCurvTensor(minsec.shift_by_stack(
            Rm.rhat[None], 0.0, np.array([minsec.min_sectional(Rm)[0]]), 0.1)[0])
        with pytest.raises(UncertifiedSourceError, match="not certified"):
            check_estimates(Rm, 0.0, [1.0])
        # the recheck reads the loose lower end: it cannot certify the shift
        # by the plane's curvature, so each tensor is shifted on from the
        # lower end, which then certifies it
        shifts.clear()
        config = CampaignConfig(kind="tensor", dims=(n,), eps_list=(Fraction(0),),
                                s_list=(1,), count=2, seed=5, mode=FLOAT)
        entry = mc_campaign(config)["checks"][0]
        assert len(shifts) == 4
        assert entry["minSecRecheckPassed"] == 2
        assert entry["minSecBracketWidthMax"] >= 1.0


def test_tensor_recheck_rejects_a_violating_plane(monkeypatch):
    from pinchlab import minsec
    from pinchlab.curvature import AlgCurvTensor, random_curvature
    with pytest.raises(UncertifiedSourceError, match="violates"):
        check_estimates(random_curvature(4, 0, FLOAT), 0.0, [1.0])
    monkeypatch.setattr(minsec, "shift_by_stack", lambda rhat, eps, min_sec, margin=0: rhat)
    config = CampaignConfig(kind="tensor", dims=(4, 5), eps_list=(Fraction(0),),
                            s_list=(1,), count=2, seed=5, mode=FLOAT)
    report = mc_campaign(config)
    assert [entry["minSecRecheckPassed"] for entry in report["checks"]] == [0, 0]
    # an unpinched tensor can fail an estimate; its dump replays alone, and
    # by the slack identities a failing eigenframe has a plane below eps*R
    assert report["violations"]
    for d in report["violations"]:
        Rm = AlgCurvTensor.from_json(d["tensor"])
        drawn = random_curvature(d["n"], [5, d["n"], d["index"]], FLOAT)
        assert np.array_equal(Rm.rhat, drawn.rhat)
        assert np.array_equal(d["sigmaBar"], _eigenframe_stack(Rm.rhat[None])[1][0])   # eps = 0
        assert min(d["gap1"], d["gap2"]) < 0 and min(d["sigmaBar"]) < 0


def test_tensor_campaign_certifies_an_open_bracket():
    # [66, 5, idx], idx < 5, holds a tensor whose 4-form bracket (width 0.114)
    # is wider than the slack a shift by its plane's curvature leaves:
    # margin (1 - n(n-1) eps) = 0.1 at eps = 0 and 0.0167 at eps = 1/24
    config = CampaignConfig(kind="tensor", dims=(5,), eps_list=(Fraction(0), Fraction(1, 24)),
                            s_list=(0, Fraction(1, 2), 1), count=5, seed=66, mode=FLOAT)
    for entry in mc_campaign(config)["checks"]:
        assert entry["minSecBracketWidthMax"] > 0.1, entry["eps"]
        assert entry["minSecRecheckPassed"] == 5, entry["eps"]
        assert not entry["violations"]


@pytest.mark.parametrize("eps", [0.0, 1 / 24])
def test_shift_to_pinching_certifies_open_brackets(eps):
    # [66, 5, 0] at both eps and [116, 5, 3] at 1/24 have 4-form brackets
    # wider than the slack a shift by their plane's curvature leaves
    from pinchlab.curvature import random_curvature, scalar
    from pinchlab.minsec import pinched, shift_to_pinching
    for seed in (66, 116):
        for idx in range(5):
            Rm = random_curvature(5, [seed, 5, idx], FLOAT)
            shifted, lower, _ = shift_to_pinching(Rm, eps, margin=0.1)
            assert pinched(lower, eps, scalar(shifted)), (seed, idx)
            assert not check_estimates(shifted, eps, [0, 0.5, 1]).bad[0], (seed, idx)


def test_runtime_min_sec_never_searches(monkeypatch):
    import reference
    from pinchlab import minsec
    from pinchlab.curvature import random_curvature
    from pinchlab.minsec import shift_to_pinching

    def forbidden(*args, **kwargs):
        raise AssertionError("the runtime path ran the grid + L-BFGS search")

    for name in ("search_min_sectional", "grid_sectionals"):
        monkeypatch.setattr(reference, name, forbidden)
    monkeypatch.setattr(minsec, "minimize", forbidden)
    solves = []

    def counted(rhat):   # one entry per solved tensor: its n
        solves.extend([pair_dimension(rhat.shape[-1])] * len(rhat))
        return exact(rhat)

    exact = minsec.solve_dual_stack
    monkeypatch.setattr(minsec, "solve_dual_stack", counted)
    monkeypatch.setattr(profiles, "solve_dual_stack", counted)
    config = CampaignConfig(kind="tensor", dims=(3, 4, 5), eps_list=(Fraction(0),),
                            s_list=(0, 1), count=3, seed=11, mode=FLOAT)
    report = mc_campaign(config)
    assert solves == [3] * 3 + [4] * 3 + [5] * 3
    assert not report["violations"]
    for entry in report["checks"]:
        assert entry["minSecRecheckPassed"] == 3, entry["n"]
        assert entry["minSecMethod"] == "dual"
        assert 0 <= entry["minSecBracketWidthMax"] <= 1e-12, entry["n"]
    for n in (3, 4, 5):
        Rm, _, _ = shift_to_pinching(random_curvature(n, 1, FLOAT), 1 / 48, margin=0.1)
        assert not check_estimates(Rm, 1 / 48, [0.5]).bad[0]


def test_eigenframe_curvatures_match_the_rotated_tensor():
    from pinchlab.curvature import random_curvature, traceless_ricci
    for n in range(3, 7):
        for seed in range(5):
            Rm = random_curvature(n, [47, n, seed], FLOAT)
            lam, sigma = (part[0] for part in _eigenframe_stack(Rm.rhat[None]))
            t = np.asarray(traceless_ricci(Rm), dtype=float)
            ref_lam, vecs = np.linalg.eigh(t)
            comp = components(Rm)
            rot = np.einsum("ia,jb,kc,ld,ijkl->abcd", vecs, vecs, vecs, vecs, comp)
            ref = np.array([rot[i, j, i, j] for i, j in zip(*np.triu_indices(n, 1))])
            tol = 1e-12 * max(1.0, np.linalg.norm(comp))
            assert np.array_equal(lam, ref_lam)
            assert np.abs(sigma - ref).max() <= tol, (n, seed)


@pytest.mark.parametrize("n", [4, 5])
def test_tensor_combo_rows_replay_alone(monkeypatch, n):
    # every row is the tensor's own shift_to_pinching and eigenframe, bit
    # for bit, whatever stack it was solved in; with estimate 1 corrupted,
    # every violation replays alone through check_estimates from its dump
    from pinchlab.curvature import AlgCurvTensor, random_curvature, scalar
    from pinchlab.minsec import shift_to_pinching
    rows = []

    def spy(lam, sig, sb, R, *args):
        rows.append((lam, sig, R))
        return estimate_gaps(lam, sig, sb, R, *args)

    monkeypatch.setattr(profiles, "estimate_gaps", spy)
    count = 12 if n == 4 else 3
    config = CampaignConfig(kind="tensor", dims=(n,), eps_list=(Fraction(1, 48),),
                            s_list=(0, 1), count=count, seed=17, mode=FLOAT)
    mc_campaign(config)
    (lam, sig, R), = rows
    for idx in range(count):
        shifted, _, _ = shift_to_pinching(random_curvature(n, [17, n, idx], FLOAT),
                                          1 / 48, TENSOR_MARGIN)
        one_lam, one_sig = _eigenframe_stack(shifted.rhat[None])
        assert np.array_equal(lam[:, idx], one_lam[0]), idx
        assert np.array_equal(sig[:, idx], one_sig[0]), idx
        assert R[idx] == scalar(shifted), idx
    lower_estimate1(monkeypatch, 1)
    report = mc_campaign(config)
    assert len(report["violations"]) == count
    for d in report["violations"]:
        replay = check_estimates(AlgCurvTensor.from_json(d["tensor"]), Fraction(1, 48), (0, 1))
        assert replay.bad[0]
        assert [float(replay.gap1[0]).hex(), float(replay.gap2[0]).hex()] == [
            d["gap1"].hex(), d["gap2"].hex()], d["index"]


def test_tensor_combo_batches_its_eigh_calls(monkeypatch):
    # the n = 4 lane's eigen solves run over the combo's stack: one per step
    # of the star iteration, which stops once certified, and a few after it
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    config = CampaignConfig(kind="tensor", dims=(4,), eps_list=(Fraction(0),),
                            s_list=(0, 1), count=20, seed=2, mode=FLOAT)
    report = mc_campaign(config)
    assert report["checks"][0]["minSecRecheckPassed"] == 20
    assert len(calls) <= 20
    assert calls[0] == (20, 6, 6)


@pytest.mark.parametrize("lane", ["float", "exact"])
def test_lane_timings_stay_out_of_the_digest(lane):
    first, second = (_run_lane(lane, 5, Fraction(1, 48), 3000, 4) for _ in range(2))
    for out in (first, second):
        assert list(out["timings"]) == ["draw", "drawWait", "kernel"]
        assert all(t >= 0 for t in out["timings"].values())
    slower = dict(second, timings={k: t + 1.0 for k, t in second["timings"].items()})
    assert first["timings"] != slower["timings"]
    assert report_digest(first) == report_digest(second) == report_digest(slower)
    assert _untimed(first) == _untimed(slower)


def test_tensor_combo_records_stage_timings():
    config = CampaignConfig(kind="tensor", dims=(4, 5), eps_list=(Fraction(0),),
                            s_list=(0, 1), count=2, seed=2, mode=FLOAT)
    report = mc_campaign(config)
    for entry in report["checks"]:
        timings = entry["timings"]
        assert list(timings) == ["draw", "solve", "shift", "eigenframe", "gaps"]
        assert all(t >= 0 for t in timings.values())
    stripped = dict(report, checks=[{k: v for k, v in entry.items() if k != "timings"}
                                    for entry in report["checks"]])
    assert report_digest(report) == report_digest(stripped)


def test_empty_tensor_combo():
    config = CampaignConfig(kind="tensor", dims=(4, 5), eps_list=(Fraction(0),),
                            s_list=(0, 1), count=0, seed=2, mode=FLOAT)
    for entry in mc_campaign(config)["checks"]:
        assert entry["count"] == 0 and entry["minGap1"] is None
        assert entry["minSecRecheckPassed"] == 0 and entry["minSecBracketWidthMax"] is None
