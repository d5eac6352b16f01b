"""Acceptance suite: the eleven release criteria, one test each.

Each test prints a single `[acceptance] criterion NN PASS|FAIL` line on the
real stdout (bypassing capture) and then asserts, so a plain pytest run shows
the full checklist.
"""

import json
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pinchlab.cli import EXIT_OK, EXIT_VIOLATION, main
from pinchlab.ftensor import (
    FCoefficients,
    CLAIMED_POINT,
    expansion_campaign,
    grad_q2,
    optimal_b,
    optimize_q2,
    q1,
    q2,
    q2_claimed_value,
)
from pinchlab.models import (
    default_models,
    fubini_study_cp2,
    pinching_threshold,
    product_spheres,
    round_cylinder_s3xr,
    soliton_identity_check,
    sphere,
)
from pinchlab.profiles import (
    CampaignConfig,
    eigen_gap_lemma,
    estimate_coefficients,
    estimate_gaps,
    mc_campaign,
    profile_batch_exact,
    profile_batch_float,
)
from pinchlab.reports import report_digest
from pinchlab.scalars import FLOAT, RATIONAL
from reference import lower_estimate1, oracle_min_sectional

SEED = 2024
DIMS = (3, 4, 5, 6)
EPS_LIST = (Fraction(-1, 10), Fraction(0), Fraction(1, 48), Fraction(1, 24))
S_LIST = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(1))
PROFILES_PER_COMBO = 100_000


def _combos():
    return [(n, e) for n in DIMS for e in EPS_LIST if e * n * (n - 1) < 1]


def _report(capfd, num, label, ok, detail=""):
    tail = f" — {detail}" if detail else ""
    with capfd.disabled():
        print(f"[acceptance] criterion {num:2d} "
              f"{'PASS' if ok else 'FAIL'} {label}{tail}")
    assert ok, f"criterion {num} ({label}) failed{tail}"


@pytest.fixture(scope="module")
def profile_sweep():
    """Shared 10^5-per-combo sweep for criteria 1 and 2."""
    started = time.monotonic()
    runs = {}
    for n, eps in _combos():
        runs[(n, eps)] = {
            "float": profile_batch_float(n, eps, S_LIST, PROFILES_PER_COMBO, SEED),
            "exact": profile_batch_exact(n, eps, PROFILES_PER_COMBO, SEED),
        }
    return runs, time.monotonic() - started


def test_criterion_01_proposition_suite(profile_sweep, capfd):
    runs, elapsed = profile_sweep
    problems = []
    for (n, eps), out in runs.items():
        if out["float"]["violations"] or out["exact"]["violations"]:
            problems.append(f"violations at (n={n}, eps={eps})")
        if not out["exact"]["slackIdentityExact"]:
            problems.append(f"slack identity broken at (n={n}, eps={eps})")
        if out["exact"]["minGap1Num"] < 0 or out["exact"]["minGap2Num"] < 0:
            problems.append(f"negative exact gap at (n={n}, eps={eps})")
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(capfd, 1, "proposition suite (10^5 profiles x 15 combos)",
            not problems,
            "; ".join(problems) or
            f"{len(runs)} combos, exact slack identity, {elapsed:.1f}s")


def test_criterion_02_corollary_suite(profile_sweep, capfd):
    runs, _ = profile_sweep
    problems = []
    for (n, eps), out in runs.items():
        for s in S_LIST:
            key = repr(float(s))
            gap = out["float"]["minGapConvex"][key]
            if gap < -1e-9:
                problems.append(f"convex gap {gap} at (n={n}, eps={eps}, s={s})")
    # endpoint reductions are exact identities of the coefficient formulas,
    # checked on exact rows (lambda, sigma, sigma - eps R, R) of Fractions
    rng = np.random.default_rng(SEED)
    s_mid = Fraction(2, 7)
    for n in DIMS:
        m = n * (n - 1) // 2
        rows = [np.array([Fraction(int(v), 7) for v in rng.integers(-20, 21, size=k * 10)],
                         dtype=object).reshape(10, k).T for k in (n, m, m)]
        rows.append(rows[0][0] + 3)
        for eps in EPS_LIST:
            coefficients = estimate_coefficients(n, eps)
            gaps = estimate_gaps(*rows, coefficients, [Fraction(1), Fraction(0), s_mid])
            if (gaps.convex[0] != gaps.gap1).any():
                problems.append(f"s=1 endpoint broken at (n={n}, eps={eps})")
            if (gaps.convex[1] != gaps.gap2).any():
                problems.append(f"s=0 endpoint broken at (n={n}, eps={eps})")
            if (gaps.convex[2] != s_mid * gaps.gap1 + (1 - s_mid) * gaps.gap2).any():
                problems.append(f"s=2/7 is not the interpolation at (n={n}, eps={eps})")
    # n = 4, s = 3/4: the cubic coefficient -(n-1-ns) vanishes
    s = Fraction(3, 4)
    for eps in EPS_LIST:
        (_, _, cubic1), (_, _, cubic2) = estimate_coefficients(4, eps)
        if s * cubic1 + (1 - s) * cubic2 != 0:
            problems.append(f"cubic coefficient does not vanish at n=4, s=3/4, eps={eps}")
    _report(capfd, 2, "corollary suite (convex combination, 5 weights)",
            not problems, "; ".join(problems) or "endpoints exact, cubic drop OK")


def test_criterion_03_full_tensor_suite(capfd):
    started = time.monotonic()
    problems = []
    per_eps = {}
    for eps in (Fraction(0), Fraction(1, 24)):
        config = CampaignConfig(
            kind="tensor", dims=(4,), eps_list=(eps,),
            s_list=(Fraction(0), Fraction(1, 2), Fraction(1)),
            count=1000, seed=SEED, mode=FLOAT)
        rep = mc_campaign(config)
        entry = rep["checks"][0]
        per_eps[eps] = entry
        if rep["violations"]:
            problems.append(f"{len(rep['violations'])} violations at eps={eps}")
        if entry["minSecRecheckPassed"] != 1000:
            problems.append(
                f"min_sectional recheck {entry['minSecRecheckPassed']}/1000 "
                f"at eps={eps}")
    elapsed = time.monotonic() - started
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.0f}s >= 300s")
    gaps = "; ".join(f"eps={e}: minGap1={v['minGap1']:.3g}"
                     for e, v in per_eps.items())
    _report(capfd, 3, "full-tensor suite (10^3 shifted tensors per eps)",
            not problems, "; ".join(problems) or f"{gaps}, {elapsed:.0f}s")


def test_criterion_04_expansion_exact(capfd):
    out = expansion_campaign(1000, 100, SEED)
    ok = out["exact"] and out["maxResidualNumerator"] == 0
    _report(capfd, 4, "|F|^2 expansion (10^3 models x 100 coefficient vectors)",
            ok, f"max residual numerator {out['maxResidualNumerator']}, "
                f"{len(out['violations'])} mismatches")


def test_criterion_05_q_values(capfd):
    problems = []
    if q1(CLAIMED_POINT) != Fraction(1, 3):
        problems.append(f"q1 = {q1(CLAIMED_POINT)} != 1/3")
    for eps in (Fraction(0), Fraction(1, 48), Fraction(1, 24), Fraction(1, 16),
                Fraction(-3, 7)):
        if q2(CLAIMED_POINT, eps) != Fraction(48 * eps - 2, 3):
            problems.append(f"q2 wrong at eps={eps}")
    if q2(CLAIMED_POINT, Fraction(1, 24)) != 0:
        problems.append("q2 != 0 at eps=1/24")
    # restricted one-parameter curve b1=b2=b3=b at a1=a2=1
    eps = Fraction(1, 24)
    for k in range(50):
        b = Fraction(k - 25, 12)
        val = q2(FCoefficients(1, 1, b, b, b), eps)
        curve = -12 * b * b - 2 * b + 16 * eps - Fraction(3, 4)
        if val != curve:
            problems.append(f"restricted curve mismatch at b={b}")
    vertex = Fraction(-1, 12)
    if any(q2(FCoefficients(1, 1, b, b, b), eps) >
           q2(FCoefficients(1, 1, vertex, vertex, vertex), eps)
           for b in (Fraction(k - 25, 12) for k in range(50))):
        problems.append("vertex -1/12 is not the restricted maximum")
    _report(capfd, 5, "Q-values (exact rational identities)",
            not problems, "; ".join(problems) or "q1=1/3, q2=(48e-2)/3, curve exact")


# Q2 over (a1, a2) after the exact inner solve in b.  Its two candidate
# suprema: the value at the interior point (1, 1) and the constant value on
# the line a1 + a2 = -1.  They cross at eps = 1/36, where Q2 is constant.
Q2_CROSSOVER = Fraction(1, 36)


def _q2_branches(eps):
    """(value at the point (1, 1), value on the line a1 + a2 = -1)."""
    return 16 * eps - Fraction(2, 3), 4 * eps - Fraction(1, 3)


def _reduced_q2(a1, a2, eps):
    return q2(FCoefficients(a1, a2, *optimal_b(a1, a2)), eps)


def _det(M):
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


def _principal_minors(M):
    for size in range(1, len(M) + 1):
        for idx in combinations(range(len(M)), size):
            yield _det([[M[i][j] for j in idx] for i in idx])


def _q2_form(eps):
    """Exact N(eps) with (1 + a1^2 + a2^2) Q2(a1, a2) = z^T N z, z = (1, a1, a2).

    The left side is a polynomial of degree <= 2 in (a1, a2), because
    optimal_b is affine in (a1, a2).  N is read off by polarization at
    (0, 0), (+-1, 0), (0, +-1), (1, 1); the identity is then checked on a
    5 x 5 grid (which alone determines a polynomial of degree <= 4 in each
    variable) and at 50 seeded random rational points.  Returns (N, mismatches).
    """
    def f(a1, a2):
        return (1 + a1 * a1 + a2 * a2) * _reduced_q2(a1, a2, eps)

    n00 = f(0, 0)
    n01, n11 = (f(1, 0) - f(-1, 0)) / 4, (f(1, 0) + f(-1, 0)) / 2 - n00
    n02, n22 = (f(0, 1) - f(0, -1)) / 4, (f(0, 1) + f(0, -1)) / 2 - n00
    n12 = (f(1, 1) - n00 - 2 * n01 - 2 * n02 - n11 - n22) / 2
    N = [[n00, n01, n02], [n01, n11, n12], [n02, n12, n22]]
    rng = np.random.default_rng(SEED)
    points = [(Fraction(i), Fraction(j)) for i in range(-2, 3) for j in range(-2, 3)]
    nums, dens = rng.integers(-50, 51, (50, 2)), rng.integers(1, 30, (50, 2))
    points += [tuple(Fraction(int(p), int(q)) for p, q in zip(num, den))
               for num, den in zip(nums, dens)]
    mismatches = 0
    for a1, a2 in points:
        z = (1, a1, a2)
        if f(a1, a2) != sum(z[i] * N[i][j] * z[j] for i in range(3) for j in range(3)):
            mismatches += 1
    return N, mismatches


def _certify_q2_max(eps):
    """Exact sup of the reduced Q2 and its argmax set, proved from N(eps).

    With lam = max of the two branch values, lam I - N is positive
    semidefinite (every principal minor >= 0), so Q2 <= lam everywhere.  The
    kernel of lam I - N is the set of z = (1, a1, a2) where Q2 = lam: spanned
    by (1, 1, 1) when it has rank 2 (the argmax is the point (1, 1)), and the
    plane z0 + z1 + z2 = 0 when it has rank 1 (the argmax is the line
    a1 + a2 = -1).  Returns (lam, "point" | "line", problems).
    """
    problems = []
    N, mismatches = _q2_form(eps)
    if mismatches:
        problems.append(f"eps={eps}: z^T N z form fails at {mismatches} points")
    point_value, line_value = _q2_branches(eps)
    lam = max(point_value, line_value)
    M = [[(lam if i == j else 0) - N[i][j] for j in range(3)] for i in range(3)]
    minors = list(_principal_minors(M))     # 1x1 (three), 2x2 (three), det
    if any(m < 0 for m in minors):
        problems.append(f"eps={eps}: lam I - N not positive semidefinite")

    def kills(v):
        return all(sum(M[i][j] * v[j] for j in range(3)) == 0 for i in range(3))

    if point_value > line_value:
        branch = "point"
        if not (kills((1, 1, 1)) and any(m != 0 for m in minors[3:6])):
            problems.append(f"eps={eps}: kernel of lam I - N is not span(1, 1, 1)")
        attained = [(Fraction(1), Fraction(1))]
    else:
        branch = "line"
        if not (kills((1, -1, 0)) and kills((1, 0, -1)) and
                any(m != 0 for m in minors[:3])):
            problems.append(f"eps={eps}: kernel of lam I - N is not z0 + z1 + z2 = 0")
        attained = [(a1, -1 - a1) for a1 in (Fraction(-3), Fraction(-1, 2),
                                             Fraction(0), Fraction(5, 7))]
    if any(_reduced_q2(a1, a2, eps) != lam for a1, a2 in attained):
        problems.append(f"eps={eps}: Q2 does not attain {lam} ({branch} branch)")
    return lam, branch, problems


def test_criterion_06_q2_optimization(capfd):
    problems = []
    claimed = np.array([1.0, 1.0, -1 / 12, -1 / 12, -1 / 12])
    scalar_n = [[Fraction(-2, 9) if i == j else 0 for j in range(3)] for i in range(3)]
    if _q2_form(Q2_CROSSOVER) != (scalar_n, 0):
        problems.append("N(1/36) != (-2/9) I: Q2 not constant at the crossover")
    branches = []
    for eps in (Fraction(0), Fraction(1, 48), Fraction(1, 24), Fraction(1, 16)):
        lam, branch, cert_problems = _certify_q2_max(eps)
        problems += cert_problems
        started = time.monotonic()
        arg, value = optimize_q2(eps)
        elapsed = time.monotonic() - started
        vec = np.array([float(v) for v in arg.astuple()])
        if branch == "point":
            arg_err = np.abs(vec - claimed).max()
            if arg_err > 1e-6:
                problems.append(f"eps={eps}: argmax off by {arg_err:.3g}")
        else:
            off_line = abs(float(arg.a1) + float(arg.a2) + 1)
            if off_line > 1e-6:
                problems.append(f"eps={eps}: argmax off the line a1+a2=-1 "
                                f"by {off_line:.3g}")
            if arg.astuple()[2:] != optimal_b(arg.a1, arg.a2):
                problems.append(f"eps={eps}: argmax b is not optimal_b(a1, a2)")
            if value <= float(q2_claimed_value(eps)):
                problems.append(f"eps={eps}: value {value:.6f} not above the "
                                f"reference value {q2_claimed_value(eps)}")
        val_err = abs(value - float(lam))
        if val_err > 1e-9:
            problems.append(f"eps={eps}: value off by {val_err:.3g} "
                            f"(found {value:.6f}, certified {lam})")
        if elapsed >= 30.0:
            problems.append(f"eps={eps}: runtime {elapsed:.1f}s >= 30s")
        if np.abs(grad_q2(CLAIMED_POINT, float(eps))).max() >= 1e-8:
            problems.append(f"eps={eps}: gradient at claimed point not stationary")
        # the argmax is only located to 1e-6, so its gradient is held to that
        if np.abs(grad_q2(arg, float(eps))).max() >= 1e-6:
            problems.append(f"eps={eps}: gradient at returned argmax not stationary")
        where = "at the point (1,1)" if branch == "point" else "on the line a1+a2=-1"
        branches.append(f"eps={eps}: max {lam} {where}")
    if optimal_b(Fraction(1), Fraction(1)) != (Fraction(-1, 12),) * 3:
        problems.append("optimal_b(1,1) inexact")
    _report(capfd, 6, "Q2 optimization (certified max/argmax at 4 eps values)",
            not problems, "; ".join(problems) or
            "; ".join(branches) + f"; branches cross at eps={Q2_CROSSOVER}")


def test_criterion_07_s_coefficient(capfd):
    from pinchlab.ftensor import s_coefficient
    problems = []
    for k in range(20):
        s = Fraction(k, 19)
        if s_coefficient(Fraction(1), Fraction(1), s) != 2 * (7 - 8 * s):
            problems.append(f"mismatch at s={s}")
    if s_coefficient(Fraction(1), Fraction(1), Fraction(7, 8)) != 0:
        problems.append("nonzero at s=7/8")
    _report(capfd, 7, "s-coefficient (20 rational weights)",
            not problems, "; ".join(problems) or "2(7-8s) exact, zero at 7/8")


def test_criterion_08_model_thresholds(capfd):
    problems = []
    if pinching_threshold(sphere(4, 1)).ratio != Fraction(1, 12):
        problems.append("sphere ratio != 1/12")
    cp2 = fubini_study_cp2()
    ratio_opt = float(pinching_threshold(cp2, use_search=True).ratio)
    if abs(ratio_opt - 1 / 24) > 1e-6:
        problems.append(f"cp2 optimizer ratio {ratio_opt} off 1/24")
    ratio_oracle = oracle_min_sectional(cp2, count=10 ** 6, seed=SEED) / 24.0
    if abs(ratio_oracle - 1 / 24) > 1e-3:
        problems.append(f"cp2 sampling-oracle ratio {ratio_oracle} off 1/24")
    for m in (product_spheres(1, 1), round_cylinder_s3xr()):
        r = float(pinching_threshold(m, use_search=True).ratio)
        if abs(r) > 1e-9:
            problems.append(f"{m.name} ratio {r} != 0")
    for m in default_models():
        rep = pinching_threshold(m)
        if rep.ratio is not None and rep.ratio >= Fraction(1, 24) \
                and not m.einstein:
            problems.append(f"{m.name} pinched but not Einstein")
    _report(capfd, 8, "model thresholds (exact + optimizer + sampling oracle)",
            not problems, "; ".join(problems) or
            f"cp2 ratio {ratio_opt:.9f} / oracle {ratio_oracle:.6f}")


def test_criterion_09_soliton_identities(capfd):
    problems = []
    for m in default_models():
        rep = soliton_identity_check(m)
        if not rep["allZero"]:
            problems.append(f"{m.name}: residuals {rep['residuals']}")
        trivial = rep["integralIdentityTrivial"]
        from pinchlab.curvature import scalar
        expect_trivial = m.einstein or scalar(m.Rm) == 0
        if trivial != expect_trivial:
            problems.append(f"{m.name}: trivial flag {trivial}")
    _report(capfd, 9, "soliton identities (exact zero residuals, 5 models)",
            not problems, "; ".join(problems) or "all residuals exactly 0")


def test_criterion_10_eigen_gap_lemma(capfd):
    problems = []
    rng = np.random.default_rng(SEED)
    for n in DIMS:
        lam = rng.standard_normal((10_000, n))
        lam -= lam.mean(axis=1, keepdims=True)
        # vectorized check of all samples over all pairs
        sq = (lam ** 2).sum(axis=1)
        for i, j in combinations(range(n), 2):
            lhs = sq - lam[:, i] ** 2 - lam[:, j] ** 2
            rhs = (lam[:, i] + lam[:, j]) ** 2 / (n - 2)
            worst = (lhs - rhs).min()
            if worst < -1e-10:
                problems.append(f"inequality fails (n={n}, pair=({i},{j}), "
                                f"margin {worst:.3g})")
        # scalar API agrees with the vectorized sweep on a subsample
        for row in lam[:50]:
            for i, j in combinations(range(n), 2):
                lhs_s, rhs_s, _ = eigen_gap_lemma(list(row), i, j)
                if lhs_s < rhs_s - 1e-10:
                    problems.append(f"scalar lemma fails (n={n})")
        # constructed equality cases: all entries off the pair are equal
        for i, j in combinations(range(n), 2):
            c = Fraction(rng.integers(-5, 6).item())
            a = Fraction(rng.integers(-5, 6).item())
            b = -(n - 2) * c - a
            vec = [c] * n
            vec[i], vec[j] = a, b
            lhs_s, rhs_s, flag = eigen_gap_lemma(vec, i, j)
            if lhs_s != rhs_s or not flag:
                problems.append(f"equality case missed (n={n}, pair=({i},{j}))")
        if n >= 4:
            # unequal tail: the flag must stay off even though the
            # inequality holds strictly
            vec = [Fraction(0)] * (n - 2) + [Fraction(1), Fraction(-1)]
            vec[0] = Fraction(5)
            vec[1] = Fraction(-5)
            _, _, flag = eigen_gap_lemma(vec, n - 2, n - 1)
            if flag:
                problems.append(f"false equality flag (n={n})")
    _report(capfd, 10, "eigenvalue gap lemma (10^4 vectors x all pairs x 4 dims)",
            not problems, "; ".join(problems[:3]) or "inequality + equality flags")


def test_criterion_11_determinism_and_exit_codes(capfd, tmp_path, monkeypatch):
    problems = []
    config = CampaignConfig(kind="profile", dims=(4,),
                            eps_list=(Fraction(1, 24),), s_list=(0, 1),
                            count=2000, seed=SEED, mode=RATIONAL)
    d1 = report_digest(mc_campaign(config))
    d2 = report_digest(mc_campaign(config))
    if d1 != d2:
        problems.append("library campaign digests differ")
    argv = ["verify-estimates", "--count", "500", "--seed", "11",
            "--n", "4", "--eps", "1/48"]
    code1 = main(argv)
    out1 = capfd.readouterr().out
    code2 = main(argv)
    out2 = capfd.readouterr().out
    if (code1, code2) != (EXIT_OK, EXIT_OK):
        problems.append(f"clean run exit codes {(code1, code2)}")
    if json.loads(out1)["digest"] != json.loads(out2)["digest"]:
        problems.append("CLI digests differ across repeated runs")
    lower_estimate1(monkeypatch, 1)
    bad = main(argv + ["--out", str(tmp_path)])
    capfd.readouterr()
    if bad != EXIT_VIOLATION:
        problems.append(f"corrupted-coefficient fixture exited {bad}, wanted 1")
    if not list(tmp_path.iterdir()):
        problems.append("violating run wrote no report")
    _report(capfd, 11, "determinism + exit-code contract",
            not problems, "; ".join(problems) or
            f"digest {d1[:12]}, corrupted fixture exits 1")
