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
    mc_campaign,
    profile_batch_exact,
    profile_batch_float,
    profile_from_sigma_bar,
    profile_to_tensor,
    sample_sigma_profile,
    _EXACT_BLOCK,
    _EXACT_SB_MAX,
    _combo_rng,
    estimate_coefficients,
    estimate_gaps,
)
from pinchlab.reports import report_digest

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
        assert rep.gap1 >= 0 and rep.gap2 >= 0
        assert rep.passed


def fraction_rows(n, count, seed):
    """Random rows (lam, sig, sb, R) of Fractions for estimate_gaps."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return np.array([Fraction(int(v), 7) for v in rng.integers(-20, 21, size=shape).flat],
                        dtype=object).reshape(shape)

    m = n * (n - 1) // 2
    return draw(count, n), draw(count, m), draw(count, m), draw(count)


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


def test_profile_to_tensor_matches_invariants():
    p = sample_sigma_profile(4, Fraction(0), 7, RATIONAL)
    Rm = profile_to_tensor(p)
    inv = invariants(Rm)
    assert inv.R == p.R
    assert inv.ricNormSq == sum(v * v for v in p.lam)
    assert inv.lhs == check_estimates(p, PinchingParams(Fraction(0), 1)).lhs


def test_rational_profile_at_float_params_is_checked_in_float():
    failed = []
    for seed in range(50):
        p = sample_sigma_profile(5, Fraction(1, 48), seed, RATIONAL)
        rep = check_estimates(p, PinchingParams(1 / 48, 0.5))
        assert isinstance(rep.gap1, float) and isinstance(rep.gapConvex, float)
        if not rep.passed:
            failed.append(seed)
        exact = check_estimates(p, PinchingParams(Fraction(1, 48), Fraction(1, 2)))
        assert exact.passed and exact.slackResidual == 0
        assert isinstance(exact.gapConvex, Fraction)
    assert not failed


def test_uncertified_profile_raises():
    p = sample_sigma_profile(4, Fraction(0), 1, RATIONAL)  # only Sec >= 0
    big_eps = Fraction(1, 13)
    assert p.min_sigma() < big_eps * p.R
    with pytest.raises(UncertifiedSourceError):
        check_estimates(p, PinchingParams(big_eps, 1))


def test_tensor_source_certification_path():
    from pinchlab.curvature import random_curvature
    from pinchlab.minsec import shift_to_pinching
    Rm, _, _ = shift_to_pinching(random_curvature(4, 0, FLOAT), 0.0, margin=0.1)
    rep = check_estimates(Rm, PinchingParams(0.0, 1.0))
    assert rep.passed
    assert abs(rep.slackResidual) < 1e-8 * max(1.0, abs(float(rep.lhs)))


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
        m = n * (n - 1) // 2
        lam, sig, sb = (rng.standard_normal((50, k)) for k in (n, m, m))
        R = rng.standard_normal(50)
        for eps in rng.uniform(-0.1, 0.03, size=5):
            rows = estimate_gaps(lam, sig, sb, R, estimate_coefficients(n, float(eps)),
                                 [1.0, 0.0])
            assert np.array_equal(rows.convex[0], rows.gap1)
            assert np.array_equal(rows.convex[1], rows.gap2)
        p = sample_sigma_profile(n, 0.0, n, FLOAT)
        one = check_estimates(p, PinchingParams(0.0, 1.0))
        zero = check_estimates(p, PinchingParams(0.0, 0.0))
        assert one.gapConvex == one.gap1 and one.rhsConvex == one.rhs1
        assert zero.gapConvex == zero.gap2 and zero.rhsConvex == zero.rhs2


# report_digest of profile_batch_float(n, eps, PINNED_S, 20_000, 1) before the
# float lane ran through estimate_gaps
PINNED_S = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(1))
PINNED_FLOAT_DIGESTS = {
    (3, Fraction(-1, 10)): "b40e0cd1ecc065498b62263c91f6e1172f613f8dcc61f83ec1331c5c1889be24",
    (3, Fraction(0)): "2a8f2e5990285467e698bfe817108543660b6daae6b4abd16d1a2d0c4b9ecc3c",
    (3, Fraction(1, 48)): "3ae0e9e808d35c70396f3a38766b0c1f04f12ef955f7dab8ba50aa3aff479eff",
    (3, Fraction(1, 24)): "89cbfdd0627b8140c8d8130f35e5afc00f8218c5931c854402fd5e0e70266f4e",
    (4, Fraction(-1, 10)): "b033706876763522d84a66400761a333bddb41fa1f2350f54a516a795fb4f85d",
    (4, Fraction(0)): "84e0026ce22a3bbb724fdcfc72e726391e36591846456dd613a7b487c5230a38",
    (4, Fraction(1, 48)): "10d16c858c960f9cf2ca464bf14d73de24cd95a3ec6b396f9f5eed9608e958ca",
    (4, Fraction(1, 24)): "b05fd51f34e6128aa9e246db510bc3c5a6a0ab117267d709e164404c4b08199a",
    (5, Fraction(-1, 10)): "59a3bac6cb0279f8ed50cca920403b5e94acc08eaa644a4c9f1542fdd6e6b406",
    (5, Fraction(0)): "7445d395b01f23dcc943ef8cd6a590ee71ed7d28ab401eb03cd4c145d43f0c62",
    (5, Fraction(1, 48)): "e72a3fa20995aeef013339d684ab89d25a5290dd5d2439e4f4f326082d4fdc86",
    (5, Fraction(1, 24)): "e433cafd98816221649f6deb192516fe01b256946223f313cd8ae743c4fc4418",
    (6, Fraction(-1, 10)): "15c208514095ca3837d5607562803a20ed748212e7bd640b1fe98677f56db22b",
    (6, Fraction(0)): "6b3e1ad63b7c07520755cc463193d6dd48a810cb89bbe922bb1dbfcd183d6040",
    (6, Fraction(1, 48)): "b2496ce679a33093ad7b70ae2fa4ccad075ba85f330efa0f469d56c7cda6c0f7",
}


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


@pytest.mark.parametrize("n, eps, count", [(5, Fraction(1, 48), 2500),
                                           (6, Fraction(1, 1000), 1100)])
def test_every_exact_block_goes_through_estimate_gaps(monkeypatch, n, eps, count):
    calls = []

    def spy(*args):
        calls.append((args, estimate_gaps(*args)))
        return calls[-1][1]

    monkeypatch.setattr(profiles, "estimate_gaps", spy)
    out = profile_batch_exact(n, eps, count, 2)
    sizes = [len(rows.gap1) for _, rows in calls]
    assert sum(sizes) == count and max(sizes) <= _EXACT_BLOCK
    for args, rows in calls:
        assert args[4] == profiles._integer_coefficients(n, eps) and args[5] == []
        assert rows.gap1.dtype == (np.int64 if out["exactLane"] == "int64" else object)
    assert out["minGap1Num"] == min(rows.gap1.min() for _, rows in calls)
    assert out["minGap2Num"] == min(rows.gap2.min() for _, rows in calls)
    assert out["slackIdentityExact"] and all((rows.residual == 0).all() for _, rows in calls)
    assert not out["violations"] and not any(rows.bad.any() for _, rows in calls)


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


@pytest.mark.parametrize("kwargs", [{"distribution": "sparce"}, {"mode": "exact"},
                                    {"distribution": "sparce", "mode": "exact"}])
def test_campaign_config_rejects_unknown_names(kwargs):
    with pytest.raises(ValueError, match="sparce|exact"):
        CampaignConfig(**kwargs)


def test_samplers_reject_unknown_distributions_and_modes():
    for mode in (FLOAT, RATIONAL):
        with pytest.raises(ValueError, match="gaussian"):
            sample_sigma_profile(4, 0, 1, mode, "gaussian")
    with pytest.raises(ValueError, match="exact"):
        sample_sigma_profile(4, 0, 1, "exact")
    with pytest.raises(ValueError, match="gaussian"):
        profile_batch_float(4, 0, [1], 10, 0, "gaussian")


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


def test_sparse_exact_lane_reaches_the_equality_case():
    default = profile_batch_exact(4, Fraction(1, 24), 300, 0)
    assert default == profile_batch_exact(4, Fraction(1, 24), 300, 0, "half-normal")
    assert default["minGap1Num"] > 0
    config = CampaignConfig(kind="profile", dims=(4, 5), eps_list=(Fraction(1, 48),),
                            s_list=(0, 1), count=300, seed=0, mode=RATIONAL,
                            distribution="sparse")
    report = mc_campaign(config)
    assert not report["violations"]
    for entry in report["checks"]:
        assert entry["exact"]["slackIdentityExact"], entry["n"]
        assert entry["exact"]["minGap1Num"] == 0, entry["n"]


def test_rational_sampler_draws_as_the_exact_lane():
    m = 10
    for dist in ("half-normal", "sparse"):
        p = sample_sigma_profile(5, Fraction(0), 3, RATIONAL, dist)
        draws = profiles._integer_draws(np.random.default_rng(3), m, dist)
        i, j = np.triu_indices(5, 1)
        assert [int(v) for v in p.sigma[i, j]] == draws.tolist(), dist


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
        shifted, _, _ = shift_to_pinching(Rm, float(eps), config.margin)
        reports += [check_estimates(shifted, PinchingParams(float(eps), float(s)))
                    for s in s_list]
    assert entry["minGap1"] == min(float(r.gap1) for r in reports)
    assert entry["minGap2"] == min(float(r.gap2) for r in reports)
    for k, s in enumerate(s_list):
        assert entry["minGapConvex"][repr(float(s))] == min(
            float(r.gapConvex) for r in reports[k::len(s_list)])
    assert entry["maxSlackResidual"] == max(abs(float(r.slackResidual)) for r in reports)


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
    from pinchlab.curvature import random_curvature
    exact_bracket, exact_shift = minsec.dual_bracket, minsec.shift_by
    shifts = []

    def loose(Rm, multiplier, plane):   # a lower end far below the true minimum
        lower, upper = exact_bracket(Rm, multiplier, plane)
        return lower - 1.0, upper

    def counted(*args):
        shifts.append(args)
        return exact_shift(*args)

    monkeypatch.setattr(minsec, "dual_bracket", loose)
    monkeypatch.setattr(minsec, "shift_by", counted)
    for n in (4, 5):
        # shifted by its plane's curvature only, which the loose lower end
        # cannot certify
        Rm = random_curvature(n, 0, FLOAT)
        Rm = exact_shift(Rm, 0.0, minsec.min_sectional(Rm)[0], 0.1)
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
    from pinchlab import minsec
    from pinchlab.curvature import AlgCurvTensor, random_curvature
    from pinchlab.profiles import _eigenframe
    with pytest.raises(UncertifiedSourceError, match="violates"):
        check_estimates(random_curvature(4, 0, FLOAT), PinchingParams(0.0, 1.0))
    monkeypatch.setattr(minsec, "shift_by", lambda Rm, eps, min_sec, margin=0: Rm)
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
        assert np.array_equal(Rm.comp, drawn.comp)
        assert np.array_equal(d["sigmaBar"], _eigenframe(Rm)[1])   # eps = 0
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
            for s in (0, 0.5, 1):
                assert check_estimates(shifted, PinchingParams(eps, s)).passed, (seed, idx, s)


def test_runtime_min_sec_never_searches(monkeypatch):
    from pinchlab import minsec
    from pinchlab.curvature import random_curvature
    from pinchlab.minsec import shift_to_pinching

    def forbidden(*args, **kwargs):
        raise AssertionError("the runtime path ran the grid + L-BFGS search")

    for name in ("search_min_sectional", "grid_sectionals", "minimize"):
        monkeypatch.setattr(minsec, name, forbidden)
    solves = []

    def counted(Rm):
        solves.append(Rm.n)
        return exact(Rm)

    exact = minsec.solve_dual
    monkeypatch.setattr(minsec, "solve_dual", counted)
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
            ref = np.array([rot[i, j, i, j] for i, j in zip(*np.triu_indices(n, 1))])
            tol = 1e-12 * max(1.0, np.linalg.norm(Rm.comp))
            assert np.array_equal(lam, ref_lam)
            assert np.abs(sigma - ref).max() <= tol, (n, seed)
