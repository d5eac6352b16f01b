from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchlab import profiles, scalars
from pinchlab.curvature import FLOAT, RATIONAL, invariants
from pinchlab.minsec import DegenerateEpsError, SearchOptions
from pinchlab.profiles import (
    CampaignConfig,
    PinchingParams,
    SigmaProfile,
    UncertifiedSourceError,
    check_estimates,
    eigen_gap_lemma,
    equno_identity,
    exact_profile_bound,
    lhs_contraction,
    mc_campaign,
    profile_batch_exact,
    profile_batch_float,
    profile_from_sigma_bar,
    profile_to_tensor,
    rhs_convex,
    rhs_estimate1,
    rhs_estimate2,
    sample_sigma_profile,
    slack_term,
    _EXACT_SB_MAX,
    _combo_rng,
    _estimate_report,
)
from pinchlab.curvature import CurvatureInvariants

FAST = SearchOptions(grid_points=20_000, refine_starts=8)


def test_params_reject_bad_s():
    with pytest.raises(ValueError):
        PinchingParams(Fraction(1, 24), Fraction(3, 2))


def test_sampler_satisfies_pinching_by_construction():
    for mode in (RATIONAL, FLOAT):
        p = sample_sigma_profile(4, Fraction(1, 24), 3, mode)
        assert p.min_sigma() - Fraction(1, 24) * p.R >= 0 if mode == RATIONAL \
            else p.min_sigma() - p.R / 24.0 >= -1e-12
        assert abs(sum(p.lam)) <= (0 if mode == RATIONAL else 1e-10)


def test_sampler_rejects_degenerate_eps():
    with pytest.raises(DegenerateEpsError):
        sample_sigma_profile(4, Fraction(1, 12), 0, RATIONAL)


def test_profile_consistency_enforced():
    p = sample_sigma_profile(4, 0, 5, RATIONAL)
    sigma = np.array(p.sigma, dtype=object).copy()
    sigma[0, 1] = sigma[0, 1] + 1   # breaks mu_k and the R sum
    with pytest.raises(ValueError):
        SigmaProfile(4, RATIONAL, sigma, p.lam.copy(), p.R)


def test_equno_identity_exact_rational():
    for seed in range(10):
        p = sample_sigma_profile(5, Fraction(1, 48), seed, RATIONAL)
        l, r = equno_identity(p, Fraction(1, 48))
        assert l == r


def test_slack_is_exact_gap1_rational():
    eps = Fraction(1, 48)
    for seed in range(10):
        p = sample_sigma_profile(4, eps, seed, RATIONAL)
        rep = check_estimates(p, PinchingParams(eps, Fraction(1)))
        assert rep.slackResidual == 0
        assert rep.gap1 == slack_term(p, eps)
        assert rep.gap1 >= 0 and rep.gap2 >= 0
        assert rep.passed


def test_convex_combination_endpoints_exact():
    inv = CurvatureInvariants(R=Fraction(10), ricNormSq=Fraction(7, 3),
                              ricCubic=Fraction(-2, 5), lhs=Fraction(0))
    for n in (3, 4, 5, 6):
        for eps in (Fraction(0), Fraction(1, 48), Fraction(-1, 10)):
            e1 = rhs_estimate1(n, PinchingParams(eps, 1), inv)
            e2 = rhs_estimate2(n, PinchingParams(eps, 0), inv)
            assert rhs_convex(n, PinchingParams(eps, Fraction(1)), inv) == e1
            assert rhs_convex(n, PinchingParams(eps, Fraction(0)), inv) == e2
            # interior s is the straight-line interpolation
            s = Fraction(2, 7)
            mid = rhs_convex(n, PinchingParams(eps, s), inv)
            assert mid == (1 - s) * e2 + s * e1


def test_cubic_term_drops_at_n4_s34():
    # at n = 4, s = 3/4 the tr(oRic^3) coefficient -(n-1-ns) vanishes
    a = CurvatureInvariants(R=Fraction(6), ricNormSq=Fraction(2),
                            ricCubic=Fraction(5), lhs=Fraction(0))
    b = CurvatureInvariants(R=Fraction(6), ricNormSq=Fraction(2),
                            ricCubic=Fraction(-11), lhs=Fraction(0))
    params = PinchingParams(Fraction(0), Fraction(3, 4))
    assert rhs_convex(4, params, a) == rhs_convex(4, params, b)


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


def test_profile_to_tensor_matches_invariants():
    p = sample_sigma_profile(4, Fraction(0), 7, RATIONAL)
    Rm = profile_to_tensor(p)
    inv = invariants(Rm)
    assert inv.R == p.R
    assert inv.ricNormSq == sum(v * v for v in p.lam)
    assert inv.lhs == lhs_contraction(p)


def test_uncertified_profile_raises():
    p = sample_sigma_profile(4, Fraction(0), 1, RATIONAL)  # only Sec >= 0
    big_eps = Fraction(1, 13)
    assert p.min_sigma() < big_eps * p.R
    with pytest.raises(UncertifiedSourceError):
        check_estimates(p, PinchingParams(big_eps, 1))


def test_tensor_source_certification_path():
    from pinchlab.curvature import random_curvature
    from pinchlab.minsec import shift_to_pinching
    Rm = shift_to_pinching(random_curvature(4, 0, FLOAT), 0.0, margin=0.1, opts=FAST)
    rep = check_estimates(Rm, PinchingParams(0.0, 1.0), FAST)
    assert rep.passed
    assert abs(rep.equnoResidual) < 1e-8 * max(1.0, abs(float(rep.lhs)))


@given(seed=st.integers(0, 5000),
       dist=st.sampled_from(["half-normal", "uniform", "sparse"]))
@settings(max_examples=30, deadline=None)
def test_float_profile_gaps_nonnegative(seed, dist):
    eps = 1.0 / 48.0
    p = sample_sigma_profile(4, eps, seed, FLOAT, dist)
    rep = check_estimates(p, PinchingParams(eps, 0.5))
    assert rep.passed


def test_batch_float_clean_and_corrupted():
    clean = profile_batch_float(4, Fraction(1, 24), [0.0, 1.0], 2000, 42)
    assert not clean["violations"]
    assert clean["minGap1"] >= -1e-10
    assert clean["maxSlackResidual"] < 1e-9
    corrupt = profile_batch_float(4, Fraction(1, 24), [1.0], 2000, 42,
                                  coeff_delta=-1.0)
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
        for _ in range(50):
            inv = CurvatureInvariants(*rng.standard_normal(4))
            eps = float(rng.uniform(-0.1, 0.03))
            one = _estimate_report(n, PinchingParams(eps, 1.0), inv, 0.0)
            zero = _estimate_report(n, PinchingParams(eps, 0.0), inv, 0.0)
            assert one.gapConvex == one.gap1 and one.rhsConvex == one.rhs1
            assert zero.gapConvex == zero.gap2 and zero.rhsConvex == zero.rhs2


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
        reports = [check_estimates(
            profile_from_sigma_bar(n, [Fraction(int(v)) for v in row], eps, RATIONAL),
            PinchingParams(eps, 1)) for row in draws]
        out = profile_batch_exact(n, eps, count, seed)
        assert out["minGap1Num"] == min(r.gap1 for r in reports) * n ** 3 * q * d ** 3
        assert out["minGap2Num"] == min(r.gap2 for r in reports) * 2 * n ** 3 * q * d ** 3


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
    bounds = {combo: exact_profile_bound(*combo) for combo in SUBCRITICAL}
    assert all(scalars.exact_lane(b) == "int64" for b in bounds.values())
    worst = max(bounds, key=bounds.get)
    assert worst == (6, Fraction(1, 48)) and 6e16 < bounds[worst] < 7e16


@pytest.mark.parametrize("n, eps, count", [
    (6, Fraction(1, 1000), 5000),                 # products beyond int64
    (4, Fraction(1, 10 ** 20), 10),               # a denominator beyond int64
])
def test_batch_exact_runs_python_ints_beyond_int64(n, eps, count):
    assert scalars.exact_lane(exact_profile_bound(n, eps)) == "python-int"
    out = profile_batch_exact(n, eps, count, 0)
    assert out["exactLane"] == "python-int"
    assert out["slackIdentityExact"] and not out["violations"]
    assert out["minGap1Num"] >= 0 and out["minGap2Num"] >= 0


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
        assert python_int == int64
        assert bool(int64["violations"]) == wrong


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
def test_exact_bound_covers_the_kernel(monkeypatch, recorded, n, eps):
    monkeypatch.setattr(profiles, "_combo_rng", lambda *args: _ExtremeDraws())
    monkeypatch.setattr(profiles, "lane_array", lambda values, lane: recorded.array(values))
    out = profile_batch_exact(n, eps, 100, 0)
    assert out["slackIdentityExact"] and not out["violations"]
    bound = exact_profile_bound(n, eps)
    assert recorded.peak <= bound


def test_python_int_lane_gets_no_floats():
    values = scalars.lane_array(np.eye(3), "python-int")
    assert values.dtype == object and all(type(v) is int for v in values.reshape(-1))
    assert scalars.lane_array(np.eye(3), "int64").dtype == np.int64


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
                            s_list=(0, 1), count=3, seed=5, mode=FLOAT,
                            search=FAST)
    report = mc_campaign(config)
    entry = report["checks"][0]
    assert entry["minSecRecheckPassed"] == 3
    assert not report["violations"]
    assert entry["minGap1"] >= -1e-9
    assert entry["minSecMethod"] == "dual"
    assert 0 <= entry["minSecBracketWidthMax"] <= 1e-12


def test_mc_campaign_tensor_kind_n5_uses_the_dual():
    config = CampaignConfig(kind="tensor", dims=(5,), eps_list=(Fraction(0),),
                            s_list=(0, 1), count=1, seed=5, mode=FLOAT,
                            search=FAST)
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
        shifted = shift_to_pinching(Rm, float(eps), config.margin)
        reports += [check_estimates(shifted, PinchingParams(float(eps), float(s)),
                                    certified=True) for s in s_list]
    assert entry["minGap1"] == min(float(r.gap1) for r in reports)
    assert entry["minGap2"] == min(float(r.gap2) for r in reports)
    assert entry["minGapConvex"] == min(float(r.gapConvex) for r in reports)


def test_tensor_certification_uses_the_dual_lower_bound(monkeypatch):
    from pinchlab import minsec, profiles
    from pinchlab.curvature import random_curvature
    from pinchlab.minsec import shift_to_pinching
    exact_bracket, exact_shift = minsec.dual_bracket, profiles.shift_by
    shifts = []

    def loose(Rm, multiplier, plane):   # a lower end far below the true minimum
        lower, upper = exact_bracket(Rm, multiplier, plane)
        return lower - 1.0, upper

    def counted(*args):
        shifts.append(args)
        return exact_shift(*args)

    for module in (minsec, profiles):
        monkeypatch.setattr(module, "dual_bracket", loose)
    monkeypatch.setattr(profiles, "shift_by", counted)
    for n in (4, 5):
        Rm = shift_to_pinching(random_curvature(n, 0, FLOAT), 0.0, margin=0.1)
        with pytest.raises(UncertifiedSourceError, match="not certified"):
            check_estimates(Rm, PinchingParams(0.0, 1.0))
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
    from pinchlab import profiles
    from pinchlab.curvature import random_curvature
    with pytest.raises(UncertifiedSourceError, match="violates"):
        check_estimates(random_curvature(4, 0, FLOAT), PinchingParams(0.0, 1.0))
    monkeypatch.setattr(profiles, "shift_by", lambda Rm, eps, min_sec, margin=0: Rm)
    config = CampaignConfig(kind="tensor", dims=(4, 5), eps_list=(Fraction(0),),
                            s_list=(1,), count=2, seed=5, mode=FLOAT)
    report = mc_campaign(config)
    assert [entry["minSecRecheckPassed"] for entry in report["checks"]] == [0, 0]
    # an unpinched tensor can fail an estimate; its dump renders the slack
    # residual, which tensors do not have, as null
    assert report["violations"]
    assert all(d["report"]["slackResidual"] is None for d in report["violations"])


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


def test_runtime_min_sec_never_searches(monkeypatch):
    from pinchlab import minsec, profiles
    from pinchlab.curvature import random_curvature
    from pinchlab.minsec import shift_to_pinching

    def forbidden(*args, **kwargs):
        raise AssertionError("the runtime path ran the grid + L-BFGS search")

    for name in ("search_min_sectional", "grid_sectionals"):
        monkeypatch.setattr(minsec, name, forbidden)
    solves = []

    def counted(Rm):
        solves.append(Rm.n)
        return exact(Rm)

    exact = minsec.solve_dual
    for module in (minsec, profiles):
        monkeypatch.setattr(module, "solve_dual", counted)
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
        Rm = shift_to_pinching(random_curvature(n, 1, FLOAT), 1 / 48, margin=0.1)
        assert check_estimates(Rm, PinchingParams(1 / 48, 0.5)).passed


def test_eigenframe_curvatures_match_the_rotated_tensor():
    from pinchlab.curvature import random_curvature, traceless_ricci
    from pinchlab.profiles import _eigenframe
    for n in range(3, 7):
        for seed in range(5):
            Rm = random_curvature(n, [47, n, seed], FLOAT)
            lam, sigma = _eigenframe(Rm)
            t = np.asarray(traceless_ricci(Rm).comp, dtype=float)
            ref_lam, vecs = np.linalg.eigh(t)
            rot = np.einsum("ia,jb,kc,ld,ijkl->abcd", vecs, vecs, vecs, vecs, Rm.comp)
            ref = np.array([[rot[i, j, i, j] if i != j else 0.0 for j in range(n)]
                            for i in range(n)])
            tol = 1e-12 * max(1.0, np.linalg.norm(Rm.comp))
            assert np.array_equal(lam, ref_lam)
            assert np.abs(sigma - ref).max() <= tol, (n, seed)
