"""Pinching estimates, the eigenbasis sigma-profile model, and campaigns.

A sigma-profile is the data the eigenbasis proof of the estimates actually
manipulates: traceless-Ricci eigenvalues lambda_i and sectional curvatures
sigma_ij of the coordinate 2-planes of that eigenbasis.  Both estimates, the
convex combination, the exact cross-term identity and the eigenvalue-gap
inequality live here, together with seeded Monte Carlo campaigns over
profiles and over full Bianchi-projected tensors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .curvature import (
    AlgCurvTensor,
    FLOAT,
    RATIONAL,
    as_mode_array,
    check_mode,
    invariants,
    random_curvature,
    scalar,
    traceless_ricci,
    zeros,
)
from .minsec import (
    DegenerateEpsError,
    SearchOptions,
    dual_min_sectional,
    min_sectional,  # noqa: F401  bench/test_bench.py checks that the tracer rebinds it here
    pinched,
    plane_sectionals,
    require_subcritical,
    shift_to_pinching,
)
from .scalars import GAP_RTOL, exact_div, exact_lane, is_rational, lane_array, scalar_to_json


class UncertifiedSourceError(ValueError):
    """Source does not (verifiably) satisfy Sec >= eps*R."""


@dataclass(frozen=True)
class PinchingParams:
    """Pinching constant eps (any real) and convex-combination weight s."""

    eps: object = 0
    s: object = 1

    def __post_init__(self):
        if not 0 <= self.s <= 1:
            raise ValueError(f"s = {self.s} outside [0, 1]")


@dataclass(frozen=True)
class SigmaProfile:
    """Eigenbasis model: lambda_i, sigma_ij, R, with the consistency relations
    sum lambda = 0,  lambda_k + R/n = sum_{i != k} sigma_ik,  R = sum sigma."""

    n: int
    mode: str
    sigma: np.ndarray    # symmetric, zero diagonal
    lam: np.ndarray
    R: object

    def __post_init__(self):
        check_mode(self.mode)
        tol = 0 if self.mode == RATIONAL else 1e-10 * max(1.0, abs(float(self.R)))
        if any(self.sigma[i, i] != 0 for i in range(self.n)):
            raise ValueError("sigma diagonal must vanish")
        if (abs(self.sigma - self.sigma.T) > tol).any():
            raise ValueError("sigma must be symmetric")
        if abs(sum(self.lam)) > tol:
            raise ValueError("eigenvalues must sum to zero")
        if abs(self.sigma.sum() - self.R) > tol:
            raise ValueError("R must equal the full sigma sum")
        for k in range(self.n):
            mu_k = self.sigma[:, k].sum()
            if abs(self.lam[k] + exact_div(self.R, self.n) - mu_k) > tol:
                raise ValueError(f"mu_{k} inconsistent with lambda_{k} + R/n")
        self.sigma.setflags(write=False)
        self.lam.setflags(write=False)

    def sigma_bar(self, eps):
        """sigma_ij - eps * R off the diagonal (the shifted plane curvatures)."""
        return np.where(np.eye(self.n, dtype=bool), self.sigma, self.sigma - eps * self.R)

    def min_sigma(self):
        return min(self.sigma[i, j] for i in range(self.n)
                   for j in range(self.n) if i != j)

    def as_dict(self):
        return {
            "n": self.n,
            "mode": self.mode,
            "sigma": [[scalar_to_json(v) for v in row] for row in self.sigma.tolist()],
            "lambda": [scalar_to_json(v) for v in self.lam.tolist()],
            "R": scalar_to_json(self.R),
        }


def profile_from_sigma_bar(n, sb_pairs, eps, mode):
    """Assemble a SigmaProfile from non-negative shifted curvatures sb >= 0.

    Solves the scale equation R = 2 * sum(sb) / (1 - n(n-1) eps), then
    sigma = sb + eps R on each pair and lambda_k = sum_{i != k} sigma_ik - R/n.
    The pinching condition sigma >= eps R holds by construction.
    """
    require_subcritical(n, eps)
    pairs = list(combinations(range(n), 2))
    total = sum(sb_pairs)
    R = exact_div(2 * total, 1) / (1 - n * (n - 1) * eps) if is_rational(total) \
        else 2.0 * total / (1 - n * (n - 1) * float(eps))
    sigma = zeros((n, n), mode)
    for (i, j), sb in zip(pairs, sb_pairs):
        v = sb + eps * R
        sigma[i, j] = v
        sigma[j, i] = v
    lam = zeros(n, mode)
    for k in range(n):
        lam[k] = sigma[:, k].sum() - exact_div(R, n)
    return SigmaProfile(n, mode, sigma, lam, R)


def sample_sigma_profile(n, eps, seed, mode=FLOAT, distribution="half-normal"):
    """Seeded random profile satisfying Sec >= eps*R by construction.

    Float mode draws half-normal shifted curvatures; rational mode draws
    small non-negative integers.  "sparse" zeroes entries with probability
    1/2 to reach the equality cases of the cross-term identity; "uniform"
    draws from [0, 1) (floats) as an alternative shape.
    """
    require_subcritical(n, eps)
    rng = np.random.default_rng(seed)
    m = n * (n - 1) // 2
    if mode == RATIONAL:
        sb = [Fraction(int(v)) for v in rng.integers(0, 10, size=m)]
        if distribution == "sparse":
            mask = rng.integers(0, 2, size=m)
            sb = [v if keep else Fraction(0) for v, keep in zip(sb, mask)]
        eps = eps if isinstance(eps, Fraction) else Fraction(eps)
    else:
        if distribution == "uniform":
            sb = rng.uniform(0.0, 1.0, size=m)
        else:
            sb = np.abs(rng.standard_normal(m))
            if distribution == "sparse":
                sb = sb * rng.integers(0, 2, size=m)
        sb = list(sb)
        eps = float(eps)
    return profile_from_sigma_bar(n, sb, eps, mode)


def profile_to_tensor(p: SigmaProfile) -> AlgCurvTensor:
    """Diagonal curvature tensor realizing the profile: R_ijij = sigma_ij."""
    comp = zeros((p.n,) * 4, p.mode)
    for i in range(p.n):
        for j in range(p.n):
            if i != j:
                comp[i, j, i, j] = p.sigma[i, j]
                comp[i, j, j, i] = -p.sigma[i, j]
    return AlgCurvTensor(p.n, p.mode, comp)


# ---------------------------------------------------------------------------
# The two estimates and their convex combination
# ---------------------------------------------------------------------------

def lhs_contraction(source):
    """R_ijkl oR_ik oR_jl; for a profile this is sum_{i != j} l_i l_j sigma_ij."""
    if isinstance(source, AlgCurvTensor):
        t = traceless_ricci(source).comp
        return np.einsum("ijkl,ik,jl", source.comp, t, t)
    p = source
    return sum(p.lam[i] * p.lam[j] * p.sigma[i, j]
               for i in range(p.n) for j in range(p.n) if i != j)


def estimate_coefficients(n, eps):
    """((quadratic1, cubic1), (quadratic2, cubic2)): estimate k has the right
    side quadratic_k R |oRic|^2 + cubic_k tr(oRic^3).  Mode-agnostic: a
    Fraction eps gives Fractions, a float eps floats."""
    one = eps ** 0   # 1 in the arithmetic of eps
    return ((exact_div(1 - n * n * eps, n), one),
            (exact_div(n * n - 4 * n + 2 - n * n * (n - 2) * (n - 3) * eps, 2 * n),
             -(n - 1) * one))


def _evaluate(coefficients, R, ric_norm_sq, ric_cubic):
    quadratic, cubic = coefficients
    return quadratic * R * ric_norm_sq + cubic * ric_cubic


def _blend(s, first, second):
    """s * first + (1 - s) * second: s = 1 gives estimate 1, s = 0 estimate 2."""
    return s * first + (1 - s) * second


def rhs_estimate1(n, params: PinchingParams, inv):
    """Right side of estimate 1 (see estimate_coefficients)."""
    return _evaluate(estimate_coefficients(n, params.eps)[0],
                     inv.R, inv.ricNormSq, inv.ricCubic)


def rhs_estimate2(n, params: PinchingParams, inv):
    """Right side of estimate 2 (see estimate_coefficients)."""
    return _evaluate(estimate_coefficients(n, params.eps)[1],
                     inv.R, inv.ricNormSq, inv.ricCubic)


def rhs_convex(n, params: PinchingParams, inv):
    """The convex combination s * rhs1 + (1 - s) * rhs2."""
    return _blend(params.s, rhs_estimate1(n, params, inv), rhs_estimate2(n, params, inv))


def _cross_terms(lam, sb):
    """(sum_{ij} l_i l_j sb_ij - sum_k mub_k l_k^2, sum_{i<j} (l_i - l_j)^2 sb_ij)
    with mub_k = sum_{i != k} sb_ik, for a zero-diagonal sb; the cross-term
    identity says the first is minus the second."""
    i, j = np.triu_indices(len(lam), 1)
    cross = (np.outer(lam, lam) * sb).sum() - (sb.sum(axis=0) * lam ** 2).sum()
    return cross, ((lam[i] - lam[j]) ** 2 * sb[i, j]).sum()


def equno_identity(p: SigmaProfile, eps):
    """Both sides of the shifted cross-term identity; they agree exactly:

        sum_{ij} l_i l_j sb_ij - sum_k mub_k l_k^2
            = - sum_{i<j} (l_i - l_j)^2 sb_ij   (<= 0 when all sb >= 0)

    with sb = sigma - eps R and mub_k = sum_{i != k} sb_ik.
    """
    cross, slack = _cross_terms(p.lam, p.sigma_bar(eps))
    return cross, -slack


def slack_term(p: SigmaProfile, eps):
    """sum_{i<j} (l_i - l_j)^2 (sigma_ij - eps R): the exact estimate-1 slack."""
    return _cross_terms(p.lam, p.sigma_bar(eps))[1]


def eigen_gap_lemma(lam, i, j):
    """Cauchy-Schwarz gap for traceless eigenvalues:

        sum_{k != i,j} l_k^2  >=  (l_i + l_j)^2 / (n - 2),

    with equality iff l_k is constant over k not in {i, j}.
    Returns (lhs, rhs, equality_flag).
    """
    lam = list(lam)
    n = len(lam)
    total = sum(lam)
    exact = all(is_rational(v) for v in lam)
    scale = max([1] + [abs(v) for v in lam])
    tol = 0 if exact else 1e-10 * float(scale)
    if abs(total) > tol:
        raise ValueError(f"eigenvalues must be traceless, got sum {total}")
    rest = [lam[k] for k in range(n) if k not in (i, j)]
    lhs = sum(v * v for v in rest)
    rhs = exact_div((lam[i] + lam[j]) ** 2, n - 2)
    eq_tol = 0 if exact else 1e-9 * float(scale)
    flag = max(rest) - min(rest) <= eq_tol
    return lhs, rhs, flag


# ---------------------------------------------------------------------------
# Checking a single source
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateReport:
    lhs: object
    rhs1: object
    rhs2: object
    rhsConvex: object
    gap1: object
    gap2: object
    gapConvex: object
    equnoResidual: object
    slackResidual: object   # gap1 - slack_term (profiles; exact zero in rational mode)
    passed: bool

    def as_dict(self):
        return {k: scalar_to_json(getattr(self, k)) for k in
                ("lhs", "rhs1", "rhs2", "rhsConvex", "gap1", "gap2",
                 "gapConvex", "equnoResidual", "slackResidual", "passed")}


def _profile_invariants(p: SigmaProfile):
    from .curvature import CurvatureInvariants
    return CurvatureInvariants(
        R=p.R,
        ricNormSq=sum(v * v for v in p.lam),
        ricCubic=sum(v ** 3 for v in p.lam),
        lhs=lhs_contraction(p),
    )


def check_estimates(source, params: PinchingParams, certified=False) -> EstimateReport:
    """Evaluate both estimates and the convex combination on one source.

    The hypothesis Sec >= eps*R (decided by pinched) is a precondition:
    profiles are checked directly on their sigma entries, tensors through
    dual_min_sectional, unless the caller certifies construction.  A tensor
    passes when the bracket's lower end certifies the hypothesis; the error
    says whether the bracket's plane violates it or the 4-form dual cannot
    decide (an open bracket straddling eps*R).
    """
    eps = params.eps
    if isinstance(source, SigmaProfile):
        inv = _profile_invariants(source)
        if not certified and not pinched(source.min_sigma(), eps, source.R):
            raise UncertifiedSourceError(
                f"profile violates Sec >= eps*R: min sigma {source.min_sigma()}, "
                f"eps*R = {eps * source.R}")
        l, r = equno_identity(source, eps)
        return _estimate_report(source.n, params, inv, l - r, profile=source)
    if isinstance(source, AlgCurvTensor):
        inv = invariants(source)
        if not certified:
            lower, upper, _ = dual_min_sectional(source)
            bound = float(eps) * float(inv.R)
            if not pinched(upper, eps, inv.R):
                raise UncertifiedSourceError(
                    f"tensor violates Sec >= eps*R: a plane has Sec {upper}, "
                    f"eps*R = {bound}")
            if not pinched(lower, eps, inv.R):
                raise UncertifiedSourceError(
                    f"tensor not certified: min Sec lies in [{lower}, {upper}], "
                    f"which the 4-form dual cannot close above eps*R = {bound}")
        return _estimate_report(source.n, params, inv,
                                _tensor_equno_residual(source, eps))
    raise TypeError(f"unsupported source {type(source)!r}")


def _estimate_report(n, params, inv, equno_res, profile=None):
    """Gaps of both estimates and the convex combination from the source's
    invariants; profile (exact or float) adds the estimate-1 slack check."""
    exact = profile is not None and profile.mode == RATIONAL
    rhs1 = rhs_estimate1(n, params, inv)
    rhs2 = rhs_estimate2(n, params, inv)
    rhsc = _blend(params.s, rhs1, rhs2)
    gap1, gap2 = rhs1 - inv.lhs, rhs2 - inv.lhs
    gapc = _blend(params.s, gap1, gap2)
    slack_res = None if profile is None else gap1 - slack_term(profile, params.eps)
    scale = max(1.0, abs(float(inv.lhs)), abs(float(rhs1)), abs(float(rhs2)))
    tol = 0 if exact else GAP_RTOL * scale
    passed = all(float(g) >= -tol for g in (gap1, gap2, gapc))
    if exact and slack_res != 0:
        passed = False
    return EstimateReport(inv.lhs, rhs1, rhs2, rhsc, gap1, gap2, gapc,
                          equno_res, slack_res, passed)


def _eigenframe(Rm: AlgCurvTensor):
    """(lambda, sigma) of a tensor (float): oRic's eigenvalues and the
    sectional curvatures of its eigenframe's coordinate planes, w^T Rhat w
    over the bivectors w = v_i ^ v_j of the eigenvectors."""
    lam, vecs = np.linalg.eigh(np.asarray(traceless_ricci(Rm).comp, dtype=float))
    i, j = np.triu_indices(Rm.n, 1)
    sigma = np.zeros((Rm.n, Rm.n))
    sigma[i, j] = sigma[j, i] = plane_sectionals(Rm, vecs[:, i].T, vecs[:, j].T)
    return lam, sigma


def _tensor_equno_residual(Rm: AlgCurvTensor, eps):
    """Cross-term identity residual via the eigenbasis of oRic (float)."""
    lam, sigma = _eigenframe(Rm)
    sb = sigma - float(eps) * float(scalar(Rm))
    np.fill_diagonal(sb, 0.0)
    cross, slack = _cross_terms(lam, sb)
    return cross + slack


# ---------------------------------------------------------------------------
# Vectorized campaign kernels
# ---------------------------------------------------------------------------

def _incidence(n):
    """(i, j, inc): the pairs i < j and their pairs x n incidence matrix."""
    i, j = np.triu_indices(n, 1)
    inc = np.zeros((len(i), n))
    inc[np.arange(len(i)), i] = inc[np.arange(len(i)), j] = 1.0
    return i, j, inc


def _combo_rng(seed, n, eps):
    f = Fraction(eps) if not isinstance(eps, Fraction) else eps
    return np.random.default_rng(
        [int(seed), n, f.numerator % (2 ** 32), f.denominator])


def profile_batch_float(n, eps, s_list, count, seed, distribution="half-normal",
                        coeff_delta=0.0):
    """Float-mode batch: min gaps and violation indices over `count` profiles.

    coeff_delta perturbs the estimate-1 quadratic coefficient; nonzero values
    exist only as a corrupted fixture for the exit-code contract tests.
    """
    require_subcritical(n, eps)
    eps = float(eps)
    rng = _combo_rng(seed, n, eps)
    i_idx, j_idx, inc = _incidence(n)
    m = len(i_idx)
    if distribution == "uniform":
        sb = rng.uniform(0.0, 1.0, size=(count, m))
    else:
        sb = np.abs(rng.standard_normal((count, m)))
        if distribution == "sparse":
            sb *= rng.integers(0, 2, size=(count, m))
    R = 2.0 * sb.sum(axis=1) / (1 - n * (n - 1) * eps)
    sig = sb + eps * R[:, None]
    lam = sig @ inc - R[:, None] / n
    lprod = lam[:, i_idx] * lam[:, j_idx]
    lhs = 2.0 * (lprod * sig).sum(axis=1)
    P2 = (lam ** 2).sum(axis=1)
    P3 = (lam ** 3).sum(axis=1)
    (quadratic1, cubic1), estimate2 = estimate_coefficients(n, eps)
    rhs1 = _evaluate((quadratic1 + coeff_delta, cubic1), R, P2, P3)
    rhs2 = _evaluate(estimate2, R, P2, P3)
    slack = ((lam[:, i_idx] - lam[:, j_idx]) ** 2 * sb).sum(axis=1)
    gap1, gap2 = rhs1 - lhs, rhs2 - lhs
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.maximum(np.abs(rhs1), np.abs(rhs2))))
    tol = GAP_RTOL * scale
    bad = (gap1 < -tol) | (gap2 < -tol)
    result = {
        "count": count,
        "minGap1": float(gap1.min()) if count else None,
        "minGap2": float(gap2.min()) if count else None,
        "maxSlackResidual": float(np.abs(gap1 - slack).max()) if count else None,
        "violations": [],
        "minGapConvex": {},
    }
    for s in s_list:
        s = float(s)
        gapc = _blend(s, gap1, gap2)
        bad |= gapc < -tol
        result["minGapConvex"][repr(s)] = float(gapc.min()) if count else None
    for idx in np.nonzero(bad)[0][:10]:
        result["violations"].append({
            "index": int(idx),
            "sigmaBar": sb[idx].tolist(),
            "gap1": float(gap1[idx]),
            "gap2": float(gap2[idx]),
        })
    return result


_EXACT_SB_MAX = 9   # the exact lane draws shifted curvatures sb in [0, _EXACT_SB_MAX]
_EXACT_BLOCK = 1024   # profiles per block: keeps temporaries, above all Python ints, few


def _integer_coefficients(n, f):
    """(scale, quadratic, cubic) per estimate, k = 1, 2: scale = k n q makes
    scale times its quadratic coefficient and scale/n times its cubic one
    integers, so that the estimate's gap is an integer over n^3 q d^3
    (gap1) or 2 n^3 q d^3 (gap2)."""
    out = []
    for k, coefficients in enumerate(estimate_coefficients(n, f), 1):
        scale = k * n * f.denominator
        quadratic, cubic = scale * coefficients[0], scale * coefficients[1] / n
        assert quadratic.denominator == cubic.denominator == 1, (quadratic, cubic)
        out.append((scale, quadratic.numerator, cubic.numerator))
    return out


def exact_profile_bound(n, eps):
    """Largest magnitude any intermediate of profile_batch_exact can reach at
    (n, eps), in Python ints: each sum and product is bounded by the sum and
    product of its terms' bounds, starting from draws sb <= _EXACT_SB_MAX."""
    f = Fraction(eps)
    p, q = f.numerator, f.denominator
    d = q - n * (n - 1) * p
    pairs = n * (n - 1) // 2
    total = pairs * _EXACT_SB_MAX            # sum of sb
    r = 2 * total * q                        # R_num
    sig = _EXACT_SB_MAX * d + 2 * total * abs(p)
    lam = n * (n - 1) * sig + r
    l3 = 2 * pairs * lam * lam * sig
    bounds = [n * q * d * pairs * 4 * lam * lam * _EXACT_SB_MAX]    # slack
    for scale, quadratic, cubic in _integer_coefficients(n, f):
        bounds.append(abs(quadratic) * r * n * lam ** 2 + abs(cubic) * n * lam ** 3
                      + scale * l3)
    return max(bounds)


def profile_batch_exact(n, eps, count, seed):
    """Rational-mode batch over integer common denominators: exact gap signs
    and the exact estimate-1 slack identity, vectorized.

    With eps = p/q, d = q - n(n-1)p and integer shifted curvatures sb in
    [0, _EXACT_SB_MAX], sigma and R are integers over d, lambda over n d,
    and both gaps and the slack integers over n^3 q d^3 (2 n^3 q d^3 for
    gap2), so inequality signs and the identity are decided exactly.
    exact_profile_bound bounds every intermediate before anything is
    computed; the kernel runs in int64 when the bound fits and in Python
    ints otherwise, block by block, and the report's exactLane names the
    lane that ran.
    """
    require_subcritical(n, eps)
    f = Fraction(eps) if not isinstance(eps, Fraction) else eps
    p, q = f.numerator, f.denominator
    d = q - n * (n - 1) * p            # positive by the subcritical check
    lane = exact_lane(exact_profile_bound(n, f))
    rng = _combo_rng(seed, n, f)
    i_idx, j_idx, inc = _incidence(n)
    m = len(i_idx)
    sb = lane_array(rng.integers(0, _EXACT_SB_MAX + 1, size=(count, m)), lane)
    inc = lane_array(inc, lane)
    coefficients = _integer_coefficients(n, f)
    gap1, gap2, slack = (np.empty(count, dtype=sb.dtype) for _ in range(3))
    for lo in range(0, count, _EXACT_BLOCK):
        rows = slice(lo, lo + _EXACT_BLOCK)
        S = sb[rows].sum(axis=1)
        R_num = 2 * S * q                       # R = R_num / d
        sig = sb[rows] * d + 2 * S[:, None] * p  # sigma = sig / d
        lam = n * (sig @ inc) - R_num[:, None]  # lambda = lam / (n d)
        L3 = 2 * (lam[:, i_idx] * lam[:, j_idx] * sig).sum(axis=1)
        P2 = (lam ** 2).sum(axis=1)
        P3 = (lam ** 3).sum(axis=1)
        gap1[rows], gap2[rows] = (_evaluate((quadratic, cubic), R_num, P2, P3) - scale * L3
                                  for scale, quadratic, cubic in coefficients)
        slack[rows] = n * q * d * ((lam[:, i_idx] - lam[:, j_idx]) ** 2 * sb[rows]).sum(axis=1)
    bad = (gap1 < 0) | (gap2 < 0) | (gap1 != slack)
    result = {
        "count": count,
        "slackIdentityExact": bool((gap1 == slack).all()) if count else True,
        "violations": [],
        "minGap1Num": int(gap1.min()) if count else None,
        "minGap2Num": int(gap2.min()) if count else None,
        "exactLane": lane,
    }
    for idx in np.nonzero(bad)[0][:10]:
        result["violations"].append({
            "index": int(idx),
            "sigmaBar": sb[idx].tolist(),
            "gap1Num": int(gap1[idx]),
            "gap2Num": int(gap2[idx]),
            "slackNum": int(slack[idx]),
        })
    return result


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

@dataclass
class CampaignConfig:
    kind: str = "profile"            # "profile" | "tensor"
    dims: tuple = (4,)
    eps_list: tuple = (Fraction(1, 24),)
    s_list: tuple = (0, Fraction(1, 2), 1)
    count: int = 1000
    seed: int = 0
    mode: str = FLOAT
    distribution: str = "half-normal"
    margin: float = 0.1              # tensor kind: pinching slack after shift
    coeff_delta: float = 0.0         # corrupted-coefficient test fixture
    # not used: the tensor kind solves the min-Sec dual (shift_to_pinching),
    # which takes no search options; kept because the benchmark passes it
    search: SearchOptions = field(default_factory=lambda: SearchOptions(
        grid_points=20_000, refine_starts=8))

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count = {self.count} must be >= 0")
        if min(self.dims, default=3) < 3:
            raise ValueError(f"n = {min(self.dims)}: dimension must be >= 3")
        for s in self.s_list:
            PinchingParams(s=s)   # rejects s outside [0, 1]

    def as_dict(self):
        return {
            "kind": self.kind,
            "dims": list(self.dims),
            "epsList": [scalar_to_json(Fraction(e) if not isinstance(e, float) else e)
                        for e in self.eps_list],
            "sList": [scalar_to_json(Fraction(s) if not isinstance(s, float) else s)
                      for s in self.s_list],
            "count": self.count,
            "seed": self.seed,
            "mode": self.mode,
            "distribution": self.distribution,
            "margin": self.margin,
            "coeffDelta": self.coeff_delta,
        }


def mc_campaign(config: CampaignConfig):
    """Run the configured campaign; deterministic given config.seed."""
    started = time.monotonic()
    checks = []
    violations = []
    for n in config.dims:
        for eps in config.eps_list:
            try:
                require_subcritical(n, eps)
            except DegenerateEpsError:
                continue    # combo outside the sampler domain, skipped by contract
            if config.kind == "profile":
                entry = {"n": n, "eps": scalar_to_json(Fraction(eps)), "kind": "profile"}
                entry["float"] = profile_batch_float(
                    n, eps, config.s_list, config.count, config.seed,
                    config.distribution, coeff_delta=config.coeff_delta)
                violations.extend(
                    dict(v, n=n, eps=scalar_to_json(Fraction(eps)), lane="float")
                    for v in entry["float"]["violations"])
                if config.mode == RATIONAL:
                    entry["exact"] = profile_batch_exact(
                        n, eps, config.count, config.seed)
                    violations.extend(
                        dict(v, n=n, eps=scalar_to_json(Fraction(eps)), lane="exact")
                        for v in entry["exact"]["violations"])
            elif config.kind == "tensor":
                entry = _tensor_combo(n, eps, config)
                violations.extend(entry.pop("violationDumps"))
            else:
                raise ValueError(f"unknown campaign kind {config.kind!r}")
            checks.append(entry)
    return {
        "config": config.as_dict(),
        "checks": checks,
        "violations": violations,
        "wallTime": time.monotonic() - started,
    }


def _tensor_combo(n, eps, config: CampaignConfig):
    """Random tensors at (n, eps), each shifted and certified by
    shift_to_pinching, then checked against both estimates."""
    params_by_s = [PinchingParams(float(eps), float(s)) for s in config.s_list]
    min_gaps = {"gap1": np.inf, "gap2": np.inf, "gapConvex": np.inf}
    dumps = []
    recheck_ok = 0
    width_max = None
    for idx in range(config.count):
        rng_seed = [int(config.seed), n, idx]
        Rm = random_curvature(n, rng_seed, FLOAT)
        shifted, lower, upper = shift_to_pinching(Rm, float(eps), config.margin)
        inv = invariants(shifted)
        width_max = max(upper - lower, width_max or 0.0)
        if pinched(lower, float(eps), inv.R):
            recheck_ok += 1
        equno_res = _tensor_equno_residual(shifted, float(eps))
        for params in params_by_s:
            rep = _estimate_report(n, params, inv, equno_res)
            min_gaps["gap1"] = min(min_gaps["gap1"], float(rep.gap1))
            min_gaps["gap2"] = min(min_gaps["gap2"], float(rep.gap2))
            min_gaps["gapConvex"] = min(min_gaps["gapConvex"], float(rep.gapConvex))
            if not rep.passed:
                dumps.append({"index": idx, "n": n, "eps": scalar_to_json(Fraction(eps)),
                              "s": scalar_to_json(params.s), "tensor": shifted.to_json(),
                              "report": rep.as_dict(), "lane": "tensor"})
    return {
        "n": n, "eps": scalar_to_json(Fraction(eps)), "kind": "tensor",
        "count": config.count,
        "minGap1": None if config.count == 0 else min_gaps["gap1"],
        "minGap2": None if config.count == 0 else min_gaps["gap2"],
        "minGapConvex": None if config.count == 0 else min_gaps["gapConvex"],
        "minSecRecheckPassed": recheck_ok,
        "minSecMethod": None if config.count == 0 else "dual",
        "minSecBracketWidthMax": width_max,
        "violations": [d["index"] for d in dumps],
        "violationDumps": dumps,
    }
