"""Pinching estimates, the eigenbasis sigma-profile model, and campaigns.

A sigma-profile is the data the eigenbasis proof of the estimates actually
manipulates: the sectional curvatures sigma_ij of the coordinate 2-planes of
a traceless-Ricci eigenbasis, which determine R and the eigenvalues
lambda_i.  Both estimates, the convex combination, the exact cross-term
identity and the eigenvalue-gap inequality live here, with seeded Monte
Carlo campaigns over profiles and over full Bianchi-projected tensors.
estimate_gaps is the one gap formula: the scalar lane (check_estimates),
the float lane, the tensor lane (a tensor is checked, in float, as the
profile of its eigenframe) and the exact integer lane all evaluate their
gaps with it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from .curvature import (
    AlgCurvTensor,
    FLOAT,
    RATIONAL,
    as_mode_array,
    first_nonfinite,
    pair_basis,
    pair_dimension,
    random_curvature_stack,
    scalar,
    scalar_stack,
    traceless_ricci_stack,
)
from .minsec import (
    MAX_DUAL_N,
    DegenerateEpsError,
    dual_min_sectional,
    min_sectional,  # noqa: F401  the benchmark's tracer rebinds it here (ROADMAP item 1)
    pinched,
    plane_sectionals_stack,
    require_subcritical,
    shift_to_pinching_stack,
    solve_dual_stack,
)
from .scalars import (GAP_RTOL, MODES, exact_div, exact_lane, is_rational, lane_array,
                      mode_of, scalar_to_json)

DISTRIBUTIONS = ("half-normal", "uniform", "sparse")   # of the shifted curvatures sb


def _require(what, value, choices):
    if value not in choices:
        raise ValueError(f"{what} = {value!r}: must be one of {', '.join(choices)}")


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
    """Eigenbasis model: the sectional curvatures sigma (m,) of an eigenframe's
    coordinate planes, one per pair i < j of pair_basis(n).  They determine
    the rest, as in _assemble: R = sum_{i != j} sigma_ij and the traceless
    eigenvalues lambda_k = sum_{i != k} sigma_ik - R/n.  Its dimension n is
    read from m = n(n-1)/2 and its arithmetic mode from sigma's dtype."""

    sigma: np.ndarray

    @property
    def n(self):
        return pair_dimension(len(self.sigma))

    @property
    def mode(self):
        return mode_of(self.sigma)

    @property
    def R(self):
        return 2 * _leading_sum(self.sigma)

    @property
    def lam(self):
        return _leading_sum(self.sigma[_incidence(self.n)[2]]) - self.R / self.n

    def __post_init__(self):
        shape = self.sigma.shape
        if len(shape) != 1 or pair_dimension(shape[0]) < 3:
            raise ValueError(f"sigma shape {shape} is not (m,), m = n(n-1)/2 with n >= 3")
        mode_of(self.sigma)   # raises for a dtype of no arithmetic mode
        bad = first_nonfinite(self.sigma)
        if bad is not None:
            raise ValueError(f"sigma{list(bad)} is non-finite: {self.sigma[bad]}")
        self.sigma.setflags(write=False)


def profile_from_sigma_bar(sb_pairs, eps, mode):
    """Assemble a SigmaProfile from non-negative shifted curvatures sb >= 0
    over the pairs i < j, whose number gives n.

    Solves the scale equation R = 2 * sum(sb) / (1 - n(n-1) eps), then
    sigma = sb + eps R on each pair (_assemble).  The pinching condition
    sigma >= eps R holds by construction.
    """
    sb = as_mode_array(sb_pairs, mode)
    n = pair_dimension(len(sb))
    require_subcritical(n, eps)
    eps = float(eps) if mode == FLOAT else eps
    return SigmaProfile(_assemble(n, sb[:, None], eps)[1][:, 0])


def _assemble(n, sb, eps):
    """(R, sigma, lambda) of the profiles whose shifted curvatures sb >= 0
    over the pairs i < j are the columns of sb (m, k), in the arithmetic of
    sb and eps: R (k,), sigma (m, k) and lambda (n, k), the pair-major
    layout of estimate_gaps; see profile_from_sigma_bar."""
    R = 2 * _leading_sum(sb) / (1 - n * (n - 1) * eps)
    sig = sb + eps * R
    return R, sig, _leading_sum(sig[_incidence(n)[2]]) - R / n


def sample_sigma_profile(n, eps, seed, mode=FLOAT, distribution="half-normal"):
    """Seeded random profile satisfying Sec >= eps*R by construction.

    Float mode draws the shifted curvatures as the float lane does
    (_float_draws), rational mode as the exact lane does (_integer_draws).
    """
    require_subcritical(n, eps)
    _require("mode", mode, MODES)
    draws = _integer_draws if mode == RATIONAL else _float_draws
    sb = draws(np.random.default_rng(seed), n * (n - 1) // 2, distribution)
    return profile_from_sigma_bar(sb, Fraction(eps) if mode == RATIONAL else eps, mode)


def _float_draws(rng, shape, distribution):
    """Float shifted curvatures sb >= 0 of the given shape from rng:
    half-normal, uniform on [0, 1), or half-normal with each entry zeroed
    with probability 1/2 ("sparse")."""
    _require("distribution", distribution, DISTRIBUTIONS)
    if distribution == "uniform":
        return rng.uniform(0.0, 1.0, size=shape)
    sb = np.abs(rng.standard_normal(shape))
    if distribution == "sparse":
        sb *= rng.integers(0, 2, size=shape)
    return sb


_EXACT_SB_MAX = 9   # the exact lane draws shifted curvatures sb in [0, _EXACT_SB_MAX]


def _integer_draws(rng, shape, distribution):
    """Integer shifted curvatures sb of the given shape from rng: uniform on
    [0, _EXACT_SB_MAX], each entry zeroed with probability 1/2 for "sparse",
    which reaches the equality cases of the slack identity.  "half-normal"
    and "uniform" draw alike."""
    _require("distribution", distribution, DISTRIBUTIONS)
    sb = rng.integers(0, _EXACT_SB_MAX + 1, size=shape)
    if distribution == "sparse":
        sb *= rng.integers(0, 2, size=shape)
    return sb


# ---------------------------------------------------------------------------
# The two estimates and their convex combination
# ---------------------------------------------------------------------------

def estimate_coefficients(n, eps):
    """(weight_k, quadratic_k, cubic_k), k = 1, 2: estimate k bounds weight_k
    R_ijkl oR_ik oR_jl by quadratic_k R |oRic|^2 + cubic_k tr(oRic^3), with
    weight_k = 1.  A Fraction eps gives Fractions, a float eps floats."""
    one = eps ** 0   # 1 in the arithmetic of eps
    return ((one, exact_div(1 - n * n * eps, n), one),
            (one, exact_div(n * n - 4 * n + 2 - n * n * (n - 2) * (n - 3) * eps, 2 * n),
             -(n - 1) * one))


def _blend(s, first, second):
    """s * first + (1 - s) * second: s = 1 gives estimate 1, s = 0 estimate 2."""
    return s * first + (1 - s) * second


def equno_identity(p: SigmaProfile, eps):
    """Both sides of the shifted cross-term identity, over the pairs i < j;
    they agree exactly:

        2 sum_{i<j} l_i l_j sb_ij - sum_k mub_k l_k^2
            = - sum_{i<j} (l_i - l_j)^2 sb_ij   (<= 0 when all sb >= 0)

    with sb = sigma - eps R and mub_k = sum_{i != k} sb_ik: minus the slack.
    """
    lam, sb = p.lam, p.sigma - eps * p.R
    i, j, star = _incidence(p.n)
    cross = 2 * (lam[i] * lam[j] * sb).sum() - (_leading_sum(sb[star]) * lam ** 2).sum()
    return cross, -((lam[i] - lam[j]) ** 2 * sb).sum()


def eigen_gap_lemma(lam, i, j):
    """Cauchy-Schwarz gap for traceless eigenvalues:

        sum_{k != i,j} l_k^2  >=  (l_i + l_j)^2 / (n - 2),

    with equality iff l_k is constant over k not in {i, j}.
    Returns (lhs, rhs, equality_flag); ValueError unless n >= 3,
    0 <= i, j < n and i != j.
    """
    lam = list(lam)
    n = len(lam)
    if n < 3:
        raise ValueError(f"n = {n}: the lemma needs n >= 3 eigenvalues")
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"(i, j) = ({i}, {j}): need 0 <= i, j < n = {n} and i != j")
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
    slackResidual: object   # gap1 minus the estimate-1 slack (exact zero in rational mode)
    passed: bool


def check_estimates(source, params: PinchingParams) -> EstimateReport:
    """Evaluate both estimates and the convex combination on one source.

    The hypothesis Sec >= eps*R (decided by pinched) is a precondition:
    profiles are checked directly on sigma, tensors through
    dual_min_sectional.  A tensor passes when the bracket's lower end
    certifies the hypothesis; the error says whether the bracket's plane
    violates it or the 4-form dual cannot decide (an open bracket straddling
    eps*R).  A certified tensor is then checked, in float, as the profile of
    its eigenframe (_eigenframe): its gaps are that profile's gaps, and the
    slack residual also tests that the eigenframe is consistent.  A profile
    is checked in Fractions when it, eps and s are rational, else in float.
    Both kinds of source go through estimate_gaps as one row.
    """
    eps, s = params.eps, params.s
    if isinstance(source, SigmaProfile):
        R, lam, sig = source.R, source.lam, source.sigma
        if not pinched(sig.min(), eps, R):
            raise UncertifiedSourceError(
                f"profile violates Sec >= eps*R: min sigma {sig.min()}, eps*R = {eps * R}")
        if not (source.mode == RATIONAL and is_rational(eps) and is_rational(s)):
            eps, s, R = float(eps), float(s), float(R)
            lam, sig = lam.astype(float), sig.astype(float)
    elif isinstance(source, AlgCurvTensor):
        eps, s, R = float(eps), float(s), float(scalar(source))
        lower, upper, _ = dual_min_sectional(source)
        if not pinched(upper, eps, R):
            raise UncertifiedSourceError(
                f"tensor violates Sec >= eps*R: a plane has Sec {upper}, "
                f"eps*R = {eps * R}")
        if not pinched(lower, eps, R):
            raise UncertifiedSourceError(
                f"tensor not certified: min Sec lies in [{lower}, {upper}], "
                f"which the 4-form dual cannot close above eps*R = {eps * R}")
        lam, sig = _eigenframe(source)
    else:
        raise TypeError(f"unsupported source {type(source)!r}")
    rows = estimate_gaps(lam[:, None], sig[:, None], (sig - eps * R)[:, None], np.array([R]),
                         estimate_coefficients(source.n, eps), [s])
    rhs1, rhs2 = rows.rhs1[0], rows.rhs2[0]
    return EstimateReport(rows.lhs[0], rhs1, rhs2, _blend(s, rhs1, rhs2),
                          rows.gap1[0], rows.gap2[0], rows.convex[0][0],
                          rows.residual[0], not rows.bad[0])


def _eigenframe(Rm: AlgCurvTensor):
    """(lambda, sigma) of a tensor (float): oRic's eigenvalues and the
    sectional curvatures of its eigenframe's coordinate planes i < j,
    w^T Rhat w over the bivectors w = v_i ^ v_j of the eigenvectors.  The
    stack of one of _eigenframe_stack."""
    lam, sig = _eigenframe_stack(Rm.rhat[None])
    return lam[0], sig[0]


def _eigenframe_stack(rhat):
    """_eigenframe of each operator of the stack rhat (k, m, m): arrays
    (k, n) and (k, m).  oRic is exact for a rational stack, then rounded to
    float."""
    lam, vecs = np.linalg.eigh(np.asarray(traceless_ricci_stack(rhat), dtype=float))
    i, j, _ = _incidence(lam.shape[-1])
    x, y = vecs[:, :, i].transpose(0, 2, 1), vecs[:, :, j].transpose(0, 2, 1)
    return lam, plane_sectionals_stack(np.asarray(rhat, dtype=float), x, y)


class GapRows(NamedTuple):
    """estimate_gaps' result, one entry per row (convex: one array per s)."""

    lhs: np.ndarray
    rhs1: np.ndarray
    rhs2: np.ndarray
    gap1: np.ndarray
    gap2: np.ndarray
    convex: list
    residual: np.ndarray
    bad: np.ndarray


def _leading_sum(x):
    """x summed over its first axis, one slice after another.  Unlike
    x.sum(axis=0), which adds a single column of 8 or more entries pairwise,
    the order does not depend on how many columns x has."""
    total = x[0] + x[1]
    for part in x[2:]:
        total += part
    return total


def estimate_gaps(lam, sig, sb, R, coefficients, s_list):
    """Both estimates' gaps on rows of eigenframe data: the one gap formula
    of every lane.

    Rows are columns, laid out pair-major: row r holds lambda (lam[:, r],
    lam of shape (n, k)), sigma and sb = sigma - eps R over the pairs i < j
    (sig[:, r] and sb[:, r], each (m, k)) and R[r].  Every sum runs over
    the leading axis in a fixed order (_leading_sum), so a row's values do
    not depend on the other rows it is evaluated with.  coefficients holds
    (weight_k, quadratic_k, cubic_k) per estimate (estimate_coefficients),
    and gap_k = quadratic_k R P2 + cubic_k P3 - weight_k lhs.  residual is
    gap1 minus weight_1 times the slack sum_{i<j} (l_i - l_j)^2 sb_ij, which
    the slack identity makes zero.  Rows are float, Fraction, or int64 or
    Python int numerators (profile_batch_exact); powers are products, as
    numpy computes a float x ** 3 through libm pow, and the pair terms of
    lhs and of the slack share one buffer, which keeps few Python ints
    alive.  A float row is bad when a gap, for either estimate or any s, is
    nan or below -GAP_RTOL max(1, |lhs|, |rhs1|, |rhs2|); an exact row when
    a gap is negative or the residual not zero.
    """
    exact = lam.dtype.kind != "f"
    i, j, _ = _incidence(len(lam))
    li, lj = lam[i], lam[j]
    terms = li * lj   # one (m, k) buffer of the pair terms, for lhs, then the slack
    terms *= sig
    lhs = 2 * _leading_sum(terms)
    lam2 = lam * lam
    P2 = _leading_sum(lam2)
    P3 = _leading_sum(lam2 * lam)
    (weight1, quadratic1, cubic1), (weight2, quadratic2, cubic2) = coefficients
    rhs1 = quadratic1 * R * P2 + cubic1 * P3
    rhs2 = quadratic2 * R * P2 + cubic2 * P3
    np.subtract(li, lj, out=terms)
    terms *= terms
    terms *= sb
    slack = _leading_sum(terms)
    gap1, gap2 = rhs1 - weight1 * lhs, rhs2 - weight2 * lhs
    convex = [_blend(s, gap1, gap2) for s in s_list]
    residual = gap1 - weight1 * slack
    tol = 0 if exact else GAP_RTOL * np.maximum(
        1.0, np.maximum(np.abs(lhs), np.maximum(np.abs(rhs1), np.abs(rhs2))))
    ok = (gap1 >= -tol) & (gap2 >= -tol)   # False on a nan gap, which is bad
    for gapc in convex:
        ok &= gapc >= -tol
    bad = ~ok
    if exact:
        bad |= residual != 0
    return GapRows(lhs, rhs1, rhs2, gap1, gap2, convex, residual, bad)


def _gap_summary(rows: GapRows, sb, s_list, limit=None):
    """The minimum gaps (per s for the blend) and the largest slack residual
    over the rows, as floats (None when there are no rows), and the first
    `limit` bad rows as violations; sb holds the shifted curvatures row by
    row (k, m)."""
    some = len(rows.gap1) > 0
    return {
        "minGap1": float(rows.gap1.min()) if some else None,
        "minGap2": float(rows.gap2.min()) if some else None,
        "maxSlackResidual": float(np.abs(rows.residual).max()) if some else None,
        "minGapConvex": {repr(float(s)): float(gapc.min()) if some else None
                         for s, gapc in zip(s_list, rows.convex)},
        "violations": [{"index": int(idx), "sigmaBar": sb[idx].tolist(),
                        "gap1": float(rows.gap1[idx]), "gap2": float(rows.gap2[idx])}
                       for idx in np.nonzero(rows.bad)[0][:limit]],
    }


# ---------------------------------------------------------------------------
# Vectorized campaign kernels
# ---------------------------------------------------------------------------

@cache   # read-only, so one copy serves every caller
def _incidence(n):
    """(i, j, star): the pairs i < j of pair_basis(n), and the (n - 1, n)
    array whose column k lists, in increasing order, the pairs that contain
    k: x[star] summed over its first axis is sum_{i != k} x_ik."""
    i, j, position = pair_basis(n)
    star = np.array([[position[k, other] for other in range(n) if other != k]
                     for k in range(n)]).T
    star.setflags(write=False)
    return i, j, star


def _combo_rng(seed, n, eps):
    f = Fraction(eps) if not isinstance(eps, Fraction) else eps
    return np.random.default_rng(
        [int(seed), n, f.numerator % (2 ** 32), f.denominator])


# profiles per block of both batch lanes (_block_gaps).  Larger blocks run
# the float and int64 lanes about 15% faster, but a Python-int block's
# temporaries grow with it: at 1024 rows they stay below those of the
# earlier, separately blocked exact lane.
PROFILE_BLOCK = 1024


def _block_gaps(draws, gaps_of_block):
    """estimate_gaps over the rows of draws (count, m), PROFILE_BLOCK rows at
    a time: each block is laid out pair-major, as the C-contiguous (m, rows)
    transpose of its draws, and gaps_of_block assembles its profiles and
    returns their estimate_gaps.  Returns the blocks' GapRows joined, one
    entry per row; an empty draws gives one empty block."""
    blocks = [gaps_of_block(np.ascontiguousarray(draws[lo:lo + PROFILE_BLOCK].T))
              for lo in range(0, max(len(draws), 1), PROFILE_BLOCK)]
    joined = {name: np.concatenate([getattr(b, name) for b in blocks])
              for name in GapRows._fields if name != "convex"}
    return GapRows(**joined, convex=[np.concatenate(parts)
                                     for parts in zip(*(b.convex for b in blocks))])


def profile_batch_float(n, eps, s_list, count, seed, distribution="half-normal"):
    """Float-mode batch: min gaps and violation indices over `count` profiles,
    assembled (_assemble) and checked block by block (_block_gaps).  timings
    holds the seconds spent drawing the shifted curvatures and in the
    kernel."""
    require_subcritical(n, eps)
    eps = float(eps)
    started = time.perf_counter()
    sb = _float_draws(_combo_rng(seed, n, eps), (count, n * (n - 1) // 2), distribution)
    drawn = time.perf_counter()
    s_list = [float(s) for s in s_list]
    coefficients = estimate_coefficients(n, eps)

    def gaps(block):
        R, sig, lam = _assemble(n, block, eps)
        return estimate_gaps(lam, sig, block, R, coefficients, s_list)

    summary = _gap_summary(_block_gaps(sb, gaps), sb, s_list, limit=10)
    return {"count": count, **summary,
            "timings": {"draw": drawn - started, "kernel": time.perf_counter() - drawn}}


def _integer_coefficients(n, f):
    """(scale, quadratic, cubic) per estimate, k = 1, 2, for estimate_gaps:
    scale = k n q makes scale times its quadratic coefficient and scale/n
    times its cubic one integers, so that the estimate's gap is an integer
    over n^3 q d^3 (gap1) or 2 n^3 q d^3 (gap2)."""
    out = []
    for k, (_, quadratic, cubic) in enumerate(estimate_coefficients(n, f), 1):
        scale = k * n * f.denominator
        quadratic, cubic = scale * quadratic, scale * cubic / n
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


def profile_batch_exact(n, eps, count, seed, distribution="half-normal"):
    """Rational-mode batch over integer common denominators: exact gap signs
    and the exact estimate-1 slack identity, vectorized.

    With eps = p/q, d = q - n(n-1)p and integer shifted curvatures sb in
    [0, _EXACT_SB_MAX] (_integer_draws), sigma, sb and R are integers over d
    and lambda over n d; estimate_gaps on these numerators, with
    _integer_coefficients, gives both gaps and the slack as integers over
    n^3 q d^3 (2 n^3 q d^3 for gap2), so inequality signs and the identity
    are decided exactly.
    exact_profile_bound bounds every intermediate before anything is
    computed; the kernel runs in int64 when the bound fits and in Python
    ints otherwise, block by block (_block_gaps), and exactLane names the
    lane that ran.  timings holds the seconds spent drawing and in the
    kernel.
    """
    require_subcritical(n, eps)
    f = Fraction(eps) if not isinstance(eps, Fraction) else eps
    p, q = f.numerator, f.denominator
    d = q - n * (n - 1) * p            # positive by the subcritical check
    lane = exact_lane(exact_profile_bound(n, f))
    started = time.perf_counter()
    rng = _combo_rng(seed, n, f)
    sb = lane_array(_integer_draws(rng, (count, n * (n - 1) // 2), distribution), lane)
    drawn = time.perf_counter()
    star = _incidence(n)[2]
    coefficients = _integer_coefficients(n, f)

    def gaps(block):
        S = _leading_sum(block)
        R_num = 2 * S * q                           # R = R_num / d
        sb_num = block * d                          # sb = sb_num / d
        sig = sb_num + 2 * S * p                    # sigma = sig / d
        lam = n * _leading_sum(sig[star]) - R_num   # lambda = lam / (n d)
        return estimate_gaps(lam, sig, sb_num, R_num, coefficients, [])

    rows = _block_gaps(sb, gaps)
    gap1, gap2, residual = rows.gap1, rows.gap2, rows.residual
    return {
        "count": count,
        "slackIdentityExact": bool((residual == 0).all()),
        "violations": [{"index": int(idx), "sigmaBar": sb[idx].tolist(),
                        "gap1Num": int(gap1[idx]), "gap2Num": int(gap2[idx]),
                        "slackNum": int(gap1[idx] - residual[idx])}
                       for idx in np.nonzero(rows.bad)[0][:10]],
        "minGap1Num": int(gap1.min()) if count else None,
        "minGap2Num": int(gap2.min()) if count else None,
        "exactLane": lane,
        "timings": {"draw": drawn - started, "kernel": time.perf_counter() - drawn},
    }


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

TENSOR_MARGIN = 0.1   # the tensor kind's pinching slack after the shift


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
    search: object = None   # ignored; kept because the benchmark passes it (ROADMAP item 1)

    def __post_init__(self):
        _require("kind", self.kind, ("profile", "tensor"))
        _require("mode", self.mode, MODES)
        _require("distribution", self.distribution, DISTRIBUTIONS)
        if self.count < 0:
            raise ValueError(f"count = {self.count} must be >= 0")
        if min(self.dims, default=3) < 3:
            raise ValueError(f"n = {min(self.dims)}: dimension must be >= 3")
        if self.kind == "tensor" and max(self.dims, default=3) > MAX_DUAL_N:
            raise ValueError(f"n = {max(self.dims)}: the tensor kind's min-Sec dual "
                             f"needs n <= {MAX_DUAL_N}")
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
            # the tensor kind runs in float and draws no shifted curvatures
            "mode": self.mode if self.kind == "profile" else FLOAT,
            "distribution": self.distribution if self.kind == "profile" else None,
            "margin": TENSOR_MARGIN,
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
                    n, eps, config.s_list, config.count, config.seed, config.distribution)
                violations.extend(
                    dict(v, n=n, eps=scalar_to_json(Fraction(eps)), lane="float")
                    for v in entry["float"]["violations"])
                if config.mode == RATIONAL:
                    entry["exact"] = profile_batch_exact(
                        n, eps, config.count, config.seed, config.distribution)
                    violations.extend(
                        dict(v, n=n, eps=scalar_to_json(Fraction(eps)), lane="exact")
                        for v in entry["exact"]["violations"])
            else:
                entry = _tensor_combo(n, eps, config)
                violations.extend(entry.pop("violationDumps"))
            checks.append(entry)
    return {
        "config": config.as_dict(),
        "checks": checks,
        "violations": violations,
        "wallTime": time.monotonic() - started,
    }


def _tensor_combo(n, eps, config: CampaignConfig):
    """Random tensors at (n, eps), each shifted and certified as
    shift_to_pinching would certify it alone, then checked as the profile
    of its eigenframe: every stage runs over the combo's stack, and all
    rows go through one estimate_gaps call.  timings holds each stage's
    elapsed seconds."""
    e, count = float(eps), config.count
    timings, clock = {}, time.perf_counter()

    def lap(stage):
        nonlocal clock
        now = time.perf_counter()
        timings[stage], clock = now - clock, now

    rhat = random_curvature_stack(n, [[int(config.seed), n, idx] for idx in range(count)])
    lap("draw")
    solution = solve_dual_stack(rhat)
    lap("solve")
    shifted, lower, upper = shift_to_pinching_stack(rhat, e, TENSOR_MARGIN, solution)
    R = scalar_stack(shifted)
    lap("shift")
    lam, sig = _eigenframe_stack(shifted)
    lap("eigenframe")
    sb = sig - e * R[:, None]
    s_list = [float(s) for s in config.s_list]
    rows = estimate_gaps(lam.T, sig.T, sb.T, R, estimate_coefficients(n, e), s_list)
    summary = _gap_summary(rows, sb, s_list)
    lap("gaps")
    dumps = [dict(v, n=n, eps=scalar_to_json(Fraction(eps)), lane="tensor",
                  tensor=AlgCurvTensor(shifted[v["index"]].copy()).to_json())
             for v in summary.pop("violations")]
    return {
        "n": n, "eps": scalar_to_json(Fraction(eps)), "kind": "tensor", "count": count,
        **summary,
        "minSecRecheckPassed": int(pinched(lower, e, R).sum()),
        "minSecMethod": None if count == 0 else "dual",
        "minSecBracketWidthMax": float((upper - lower).max(initial=0.0)) if count else None,
        "violations": [d["index"] for d in dumps],
        "violationDumps": dumps,
        "timings": timings,
    }
