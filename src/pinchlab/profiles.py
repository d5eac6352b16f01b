"""Pinching estimates, the eigenbasis profile model, and campaigns.

A profile is the data the eigenbasis proof of the estimates actually
manipulates: the sectional curvatures sigma_ij of the coordinate 2-planes of
a traceless-Ricci eigenframe, which determine R and the eigenvalues
lambda_i.  Under Sec >= eps*R a profile is fixed by its shifted curvatures
sb = sigma - eps R >= 0, which every lane draws and every violation dumps.
Both estimates, the convex combination, the exact cross-term identity and
the eigenvalue-gap inequality live here, with seeded Monte Carlo campaigns
over profiles and over full Bianchi-projected tensors.  estimate_gaps is the
one gap formula: the float lane and check_estimates share one row function
(_profile_gaps), and the tensor lane (a tensor is checked, in float, as the
profile of its eigenframe) and the exact integer lane evaluate their gaps
with it too.
"""

from __future__ import annotations

import threading
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
    first_nonfinite,
    pair_basis,
    pair_dimension,
    plane_sectionals_stack,
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
    require_subcritical,
    shift_to_pinching_stack,
    solve_dual_stack,
)
from .scalars import (GAP_RTOL, INT64_LANE, MODES, exact_div, exact_lane, is_rational,
                      lane_array, mode_of, scalar_to_json)

DISTRIBUTIONS = ("half-normal", "uniform", "sparse")   # of the shifted curvatures sb


def _require(what, value, choices):
    if value not in choices:
        raise ValueError(f"{what} = {value!r}: must be one of {', '.join(choices)}")


def _require_inputs(dims=(), count=0, s_list=()):
    """ValueError unless every n of dims is >= 3, count >= 0 and every s of
    s_list lies in [0, 1]: the lanes', CampaignConfig's and check_estimates'."""
    if count < 0:
        raise ValueError(f"count = {count} must be >= 0")
    if min(dims, default=3) < 3:
        raise ValueError(f"n = {min(dims)}: dimension must be >= 3")
    for s in s_list:
        if not 0 <= s <= 1:
            raise ValueError(f"s = {s} outside [0, 1]")


class UncertifiedSourceError(ValueError):
    """Source does not (verifiably) satisfy Sec >= eps*R."""


def _assemble(n, sb, eps):
    """(R, sigma, lambda) of the profiles whose shifted curvatures sb >= 0
    over the pairs i < j are the columns of sb (m, k), in the arithmetic of
    sb and eps: R (k,), sigma (m, k) and lambda (n, k), the pair-major
    layout of estimate_gaps.  R solves the scale equation
    R = 2 sum(sb) / (1 - n(n-1) eps), then sigma = sb + eps R on each pair,
    so Sec >= eps*R holds by construction, and the traceless eigenvalues
    are lambda_k = sum_{i != k} sigma_ik - R/n."""
    R = 2 * _leading_sum(sb) / (1 - n * (n - 1) * eps)
    sig = sb + eps * R
    return R, sig, _leading_sum(sig[_incidence(n)[2]]) - R / n


def _profile_gaps(n, sb, eps, s_list):
    """estimate_gaps of the profiles whose shifted curvatures are the columns
    of sb (m, k), assembled by _assemble: the row function of the float lane
    and of check_estimates."""
    R, sig, lam = _assemble(n, sb, eps)
    return estimate_gaps(lam, sig, sb, R, estimate_coefficients(n, eps), s_list)


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


def equno_identity(sb, eps):
    """Both sides of the shifted cross-term identity of the profile with
    shifted curvatures sb (m,) over the pairs i < j; they agree exactly:

        2 sum_{i<j} l_i l_j sb_ij - sum_k mub_k l_k^2
            = - sum_{i<j} (l_i - l_j)^2 sb_ij   (<= 0 when all sb >= 0)

    with lambda from _assemble and mub_k = sum_{i != k} sb_ik: minus the
    slack.  sb is refused as in check_estimates (_require_profile), and eps
    unless it is subcritical; a negative sb is allowed, since the identity is
    algebraic.
    """
    n = _require_profile(sb)
    require_subcritical(n, eps)
    lam = _assemble(n, sb[:, None], eps)[2][:, 0]
    i, j, star = _incidence(n)
    cross = 2 * (lam[i] * lam[j] * sb).sum() - (_leading_sum(sb[star]) * lam ** 2).sum()
    return cross, -((lam[i] - lam[j]) ** 2 * sb).sum()


def eigen_gap_lemma(lam, i, j):
    """Cauchy-Schwarz gap for traceless eigenvalues:

        sum_{k != i,j} l_k^2  >=  (l_i + l_j)^2 / (n - 2),

    with equality iff l_k is constant over k not in {i, j}.
    Returns (lhs, rhs, equality_flag); ValueError unless n >= 3, every
    eigenvalue is finite, 0 <= i, j < n and i != j.
    """
    lam = list(lam)
    n = len(lam)
    if n < 3:
        raise ValueError(f"n = {n}: the lemma needs n >= 3 eigenvalues")
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"(i, j) = ({i}, {j}): need 0 <= i, j < n = {n} and i != j")
    if not all(is_rational(v) or np.isfinite(v) for v in lam):
        raise ValueError(f"eigenvalues must be finite, got {lam}")
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

def check_estimates(source, eps, s_list):
    """Both estimates and their convex blends, one per s of s_list, on one
    source: estimate_gaps' GapRows of one row, whose bad entry says whether
    it fails.

    A profile source is its shifted curvatures sb = sigma - eps R over the
    pairs i < j, a 1-D array whose length m = n(n-1)/2 gives n >= 3.  It
    is checked by the float lane's row function (_profile_gaps): in
    Fractions when sb is an object array and eps and every s are rational,
    else in float, so that a lane's violation replays alone from its
    sigmaBar, bit for bit.  A negative sb violates Sec >= eps*R.
    A tensor source must satisfy Sec >= eps*R (decided by pinched) through
    dual_min_sectional: it passes when the bracket's lower end certifies the
    hypothesis; the error says whether the bracket's plane violates it or
    the 4-form dual cannot decide (an open bracket straddling eps*R).  A
    certified tensor is then checked, in float, as the profile of its
    eigenframe (_eigenframe_gaps), and the slack residual also tests that
    the eigenframe is consistent.  An s outside [0, 1] is refused.
    """
    _require_inputs(s_list=s_list)
    if isinstance(source, AlgCurvTensor):
        eps, R = float(eps), float(scalar(source))
        lower, upper, _ = dual_min_sectional(source)
        if not pinched(upper, eps, R):
            raise UncertifiedSourceError(
                f"tensor violates Sec >= eps*R: a plane has Sec {upper}, "
                f"eps*R = {eps * R}")
        if not pinched(lower, eps, R):
            raise UncertifiedSourceError(
                f"tensor not certified: min Sec lies in [{lower}, {upper}], "
                f"which the 4-form dual cannot close above eps*R = {eps * R}")
        return _eigenframe_gaps(source.rhat[None], np.array([R]), eps,
                                [float(s) for s in s_list])[0]
    sb = source
    n = _require_profile(sb)
    require_subcritical(n, eps)
    negative = np.flatnonzero(sb < 0)
    if len(negative):
        raise UncertifiedSourceError(
            f"profile violates Sec >= eps*R: sb[{negative[0]}] = {sb[negative[0]]} < 0")
    if mode_of(sb) == RATIONAL and is_rational(eps) and all(map(is_rational, s_list)):
        eps = Fraction(eps)   # so that R is a Fraction over an object sb of ints too
    else:
        sb, eps, s_list = sb.astype(float), float(eps), [float(s) for s in s_list]
    return _profile_gaps(n, sb[:, None], eps, s_list)


def _require_profile(sb):
    """The dimension n of the profile whose shifted curvatures are sb:
    TypeError unless sb is an array, and ValueError unless it is 1-D with
    m = n(n-1)/2 entries, n >= 3, of a dtype of an arithmetic mode, and
    finite."""
    if not isinstance(sb, np.ndarray):
        raise TypeError(f"unsupported source {type(sb)!r}")
    n = pair_dimension(len(sb)) if sb.ndim == 1 else 0
    if n < 3:
        raise ValueError(f"sb shape {sb.shape} is not (m,), m = n(n-1)/2 with n >= 3")
    mode_of(sb)   # raises for a dtype of no arithmetic mode
    bad = first_nonfinite(sb)
    if bad is not None:
        raise ValueError(f"sb{list(bad)} is non-finite: {sb[bad]}")
    return n


def _eigenframe_gaps(rhat, R, eps, s_list, lap=lambda stage: None):
    """estimate_gaps of each operator of the stack rhat (k, m, m), whose
    scalar curvatures R (k,) the caller gives, checked in float as the
    profile of its eigenframe (_eigenframe_stack): (rows, sb), sb = sigma -
    eps R the eigenframe's shifted curvatures (k, m).  lap("eigenframe") is
    called once the eigenframe is found."""
    lam, sig = _eigenframe_stack(rhat)
    lap("eigenframe")
    sb = sig - eps * R[:, None]
    coefficients = estimate_coefficients(pair_dimension(rhat.shape[-1]), eps)
    return estimate_gaps(lam.T, sig.T, sb.T, R, coefficients, s_list), sb


def _eigenframe_stack(rhat):
    """(lambda, sigma) of each operator of the stack rhat (k, m, m), in
    float: oRic's eigenvalues (k, n) and the sectional curvatures (k, m) of
    its eigenframe's coordinate planes i < j, w^T Rhat w over the bivectors
    w = v_i ^ v_j of the eigenvectors.  oRic is exact for a rational stack,
    then rounded to float."""
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


def estimate_gaps(lam, sig, sb, R, coefficients, s_list, lane=None):
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

    The work runs in two stages: the per-row sums lhs, P2, P3 and the slack,
    in the arithmetic of the rows, then the gaps, which combine them and R
    with the coefficients.  profile_batch_exact passes the gaps' lane as
    lane, and the sums and R are converted to it (lane_array) between the
    stages, so that the sums can run in int64 where only the gaps need
    Python ints; the conversion is the identity when both stages share a
    lane, and lane=None, as in the float and Fraction lanes, skips it.
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
    np.subtract(li, lj, out=terms)
    terms *= terms
    terms *= sb
    slack = _leading_sum(terms)
    if lane is not None:
        lhs, P2, P3, slack, R = (lane_array(x, lane) for x in (lhs, P2, P3, slack, R))
    (weight1, quadratic1, cubic1), (weight2, quadratic2, cubic2) = coefficients
    rhs1 = quadratic1 * R * P2 + cubic1 * P3
    rhs2 = quadratic2 * R * P2 + cubic2 * P3
    gap1, gap2 = rhs1 - weight1 * lhs, rhs2 - weight2 * lhs
    convex = [s * gap1 + (1 - s) * gap2 for s in s_list]   # s = 1: estimate 1
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


def _reduce_gaps(blocks, limit=None):
    """Reduce estimate_gaps results to what the lanes report, block by block
    as blocks yields them: pairs (rows, sb) of a block's GapRows and its
    shifted curvatures sb (m, k), pair-major, each block's rows following
    the previous one's, so that no block is kept once it is reduced and the
    reduction takes the same memory for any number of blocks.  Returns
    (low, high, bad): low, the minimum gap1, gap2 and convex gaps (one per
    s) as one array, and high, the largest |residual|, both in the rows'
    arithmetic and None when there are no rows; bad, the first `limit`
    bad rows as (index, gap1, gap2, residual, sigmaBar), index counted over
    all blocks and sigmaBar a copy of the row's shifted curvatures (m,).
    Minima, maxima and the first bad rows are exact, so the result does not
    depend on the blocks."""
    low = high = None
    bad, offset = [], 0
    for rows, sb in blocks:
        if len(rows.gap1):
            block_low = np.concatenate([g.min(keepdims=True)
                                        for g in (rows.gap1, rows.gap2, *rows.convex)])
            block_high = np.abs(rows.residual).max(keepdims=True)
            low = block_low if low is None else np.minimum(low, block_low)
            high = block_high if high is None else np.maximum(high, block_high)
        room = None if limit is None else limit - len(bad)
        bad += [(offset + idx, rows.gap1[idx], rows.gap2[idx], rows.residual[idx],
                 sb[:, idx].copy())
                for idx in np.nonzero(rows.bad)[0][:room]]
        offset += len(rows.gap1)
        # the block is not kept while the next one is checked; its rows are:
        # freeing them as early made the n = 3 lanes twice as slow
        del sb
    return low, None if high is None else high[0], bad


def _gap_summary(reduced, s_list):
    """The float report of a reduction (_reduce_gaps): the minimum gaps (per
    s for the blend) and the largest slack residual, as floats (None when
    there are no rows), and its bad rows as violations."""
    low, high, bad = reduced
    low = [None] * (2 + len(s_list)) if low is None else [float(v) for v in low]
    return {
        "minGap1": low[0],
        "minGap2": low[1],
        "maxSlackResidual": None if high is None else float(high),
        "minGapConvex": {repr(float(s)): gapc for s, gapc in zip(s_list, low[2:])},
        "violations": [{"index": int(idx), "sigmaBar": sigma_bar.tolist(),
                        "gap1": float(gap1), "gap2": float(gap2)}
                       for idx, gap1, gap2, _, sigma_bar in bad],
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


# bytes of one (m, rows) operand of a batch lane's block (_check_blocks).  In
# a sweep of 1024 to 32768 rows at n = 3..6, the float and int64 lanes ran
# fastest near this size: about 11000 rows at n = 3 and 2200 at n = 6.
BLOCK_BYTES = 2 ** 18
# bytes of a Python-int entry: the object array's pointer and its int object
PYTHON_INT_BYTES = 40
# blocks in a lane's ring of draw buffers (_check_blocks): four float or
# int64 blocks take 1 MB, whatever the count
RING_SLOTS = 4

_EXACT_SB_MAX = 9   # the exact lane draws shifted curvatures sb in [0, _EXACT_SB_MAX]


def _draw_values(rng, rows, distribution):
    """Fill rows with shifted curvatures from rng: a float block half-normal
    or uniform on [0, 1), an int64 block uniform on [0, _EXACT_SB_MAX] for
    "half-normal" and "uniform" alike.  "sparse", which in the exact lane
    reaches the equality cases of the slack identity, is the positive part
    of a standard normal or of an integer uniform on [-_EXACT_SB_MAX - 1,
    _EXACT_SB_MAX]: an entry is 0 with probability 1/2 (11/20 in int64) and
    otherwise half-normal (each of 1.._EXACT_SB_MAX with probability 1/20),
    as a value times a fair 0/1 mask would be.  Generator fills continue the
    stream bit for bit (PCG64 keeps its spare 32-bit half in its state), so
    rows drawn block by block are one draw of them all."""
    sparse = distribution == "sparse"
    if rows.dtype.kind != "f":
        low = -_EXACT_SB_MAX - 1 if sparse else 0
        rows[...] = rng.integers(low, _EXACT_SB_MAX + 1, size=rows.shape)
    elif distribution == "uniform":
        rng.random(out=rows)   # rng.uniform(0.0, 1.0), bit for bit
    else:
        rng.standard_normal(out=rows)
        if not sparse:
            np.abs(rows, out=rows)
    if sparse:
        np.maximum(rows, 0, out=rows)


def _check_blocks(rng, shape, dtype, distribution, entry_bytes, check):
    """Draw the shifted curvatures of shape (count, m) and dtype from rng
    (_draw_values) and check them block by block: count is split into the
    fewest blocks whose (m, rows) operands, of entries of entry_bytes each,
    fit BLOCK_BYTES (blocks of one row when no row fits), with sizes that
    differ by at most one row, the larger ones first.  A count just above a
    whole number of blocks thus runs in smaller blocks, not in full ones and
    a short last one, and the lane's transient memory is that of the
    smaller blocks.  check maps a block, laid out pair-major as the
    C-contiguous (m, rows) copy of its rows, to its GapRows, which are
    reduced at once (_reduce_gaps, the first 10 bad rows, each with its
    shifted curvatures).  Returns (reduced, timings).

    The rows are drawn into a ring of RING_SLOTS (rows, m) buffers, or of
    one fewer than the blocks when that is fewer (the last block then takes
    the first one's slot, copied out as soon as it was drawn), reused from
    block to block, so the lane's memory does not grow with count.  When
    there are two or more blocks, a worker thread draws them ahead of the
    checks: it fills a slot with block b once the checks have copied out
    the block it held, which it reads off their count without a lock, and
    hands each block over by a semaphore.  When it has to wait for a slot,
    it sleeps until the checks have copied all but one of the ring's
    blocks, then fills the freed slots in a row: each sleep and wake costs
    the kernel 50 to 80 us on a 2-vCPU guest, so it wakes once every
    RING_SLOTS - 1 blocks rather than once a block.  The draws release the
    GIL, so they run beside the kernel.  A single block is drawn inline
    first, as there is nothing to overlap.  A fault of the draws is raised
    here; the worker stops between blocks once the checks end, and is
    joined before this returns or raises.  timings holds the seconds spent
    drawing ("draw", without the worker's waits for free slots), those the
    checks waited for blocks ("drawWait"), and the checks' elapsed seconds
    ("kernel")."""
    _require("distribution", distribution, DISTRIBUTIONS)
    count, m = shape
    blocks = -(-count // max(1, BLOCK_BYTES // (m * entry_bytes)))
    sizes = [count // blocks + (k < count % blocks) for k in range(blocks)]
    # one array, not one per slot: once freed, its 1 MB lifts glibc's mmap
    # and trim thresholds, so the kernel's block temporaries stay on the heap
    # instead of being trimmed and faulted back in on every block
    slots = min(RING_SLOTS, max(1, len(sizes) - 1))
    ring = np.empty((slots, sizes[0] if sizes else 0, m), dtype)
    ready, freed = threading.Semaphore(0), threading.Condition()
    stop, fault = threading.Event(), []
    copied = wanted = 0   # blocks copied out of the ring; the count the worker waits for
    timings = {"draw": 0.0, "drawWait": 0.0, "kernel": 0.0}

    def draw():
        nonlocal wanted
        started = time.perf_counter()
        try:
            for k, size in enumerate(sizes):
                if k - len(ring) >= copied:   # the slot still holds block k - len(ring)
                    waited = time.perf_counter()
                    with freed:
                        # the slot's block and all but one of the ring's blocks copied out
                        wanted = max(k - len(ring) + 1, k - 1)
                        freed.wait_for(lambda: copied >= wanted or stop.is_set())
                    timings["draw"] -= time.perf_counter() - waited
                if stop.is_set():
                    return
                _draw_values(rng, ring[k % len(ring)][:size], distribution)
                ready.release()
        except BaseException as exc:   # raised again by the checks
            fault.append(exc)
        finally:
            timings["draw"] += time.perf_counter() - started
            ready.release()   # wakes the checks after a fault

    def checked():
        nonlocal copied
        for k, size in enumerate(sizes):
            waited = time.perf_counter()
            ready.acquire()
            timings["drawWait"] += time.perf_counter() - waited
            if fault:
                raise fault[0]
            # a copy always: ascontiguousarray would return a one-row block's
            # (m, 1) transpose as a view of the slot the worker refills
            block = ring[k % len(ring)][:size].T.copy()
            with freed:
                copied += 1
                if copied == wanted:
                    freed.notify()
            yield check(block), block

    worker = threading.Thread(target=draw) if len(sizes) > 1 else None
    if worker is None:
        draw()
    else:
        worker.start()
    started = time.perf_counter()
    try:
        reduced = _reduce_gaps(checked(), limit=10)
    finally:
        stop.set()
        with freed:
            freed.notify()   # wakes a worker waiting for slots
        if worker is not None:
            worker.join()
    timings["kernel"] = time.perf_counter() - started
    return reduced, timings


def profile_batch_float(n, eps, s_list, count, seed, distribution="half-normal"):
    """Float-mode batch: min gaps and violations over `count` profiles,
    drawn into a ring of reused blocks and checked (_profile_gaps) block by
    block, with their timings (_check_blocks); each violation's sigmaBar is
    copied out of its block.  Inputs are refused by _require_inputs."""
    _require_inputs((n,), count, s_list)
    require_subcritical(n, eps)
    eps = float(eps)
    s_list = [float(s) for s in s_list]
    reduced, timings = _check_blocks(_combo_rng(seed, n, eps), (count, n * (n - 1) // 2),
                                     np.float64, distribution, 8,
                                     lambda block: _profile_gaps(n, block, eps, s_list))
    return {"count": count, **_gap_summary(reduced, s_list), "timings": timings}


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


def exact_profile_bounds(n, eps):
    """(sums, gaps): the largest magnitude any intermediate of each stage of
    profile_batch_exact can reach at (n, eps), in Python ints.  sums covers
    the block's numerators (R, sigma, lambda) and the per-row sums of
    estimate_gaps (lhs, P2, P3, the slack), gaps the gaps, the residual and
    their products with the coefficients, and with them the sums they are
    formed from.  Each sum and product is bounded by the sum and product of
    its terms' bounds, starting from draws sb <= _EXACT_SB_MAX; the residual
    gap1 - weight_1 slack is zero by the identity, so that gap1 and
    weight_1 slack bound it."""
    f = Fraction(eps)
    p, q = f.numerator, f.denominator
    d = q - n * (n - 1) * p
    pairs = n * (n - 1) // 2
    total = pairs * _EXACT_SB_MAX            # sum of sb
    r = 2 * total * q                        # R_num
    sig = _EXACT_SB_MAX * d + 2 * total * abs(p)
    lam = n * (n - 1) * sig + r
    l3 = 2 * pairs * lam * lam * sig         # lhs
    slack = d * pairs * 4 * lam * lam * _EXACT_SB_MAX
    sums = max(r, lam, l3, n * lam ** 3, slack)
    gaps = [sums, n * q * slack]             # weight_1 = n q times the slack
    for scale, quadratic, cubic in _integer_coefficients(n, f):
        gaps.append(abs(quadratic) * r * n * lam ** 2 + abs(cubic) * n * lam ** 3
                    + scale * l3)
    return sums, max(gaps)


def profile_batch_exact(n, eps, count, seed, distribution="half-normal"):
    """Rational-mode batch over integer common denominators: exact gap signs
    and the exact estimate-1 slack identity, vectorized.

    With eps = p/q, d = q - n(n-1)p and integer shifted curvatures sb in
    [0, _EXACT_SB_MAX] (_draw_values), sigma, sb and R are integers over d
    and lambda over n d; estimate_gaps on these numerators, with
    _integer_coefficients, gives both gaps and the slack as integers over
    n^3 q d^3 (2 n^3 q d^3 for gap2), so inequality signs and the identity
    are decided exactly.
    exact_profile_bounds bounds every intermediate of each of estimate_gaps'
    two stages before anything is computed; each stage runs in int64 when
    its own bound fits and in Python ints otherwise, block by block
    (_check_blocks: int64 draws into a ring of reused blocks, each block
    converted to the sums' lane as it runs, and its sums to the gaps'
    lane).  A block is sized by the gaps' lane, and exactLane names it: the
    lane of the widest numbers.  Each violation states the denominator of
    its numerators, and its sigmaBar is copied out of its block.  timings
    is _check_blocks'.  Inputs are refused by _require_inputs.
    """
    _require_inputs((n,), count)
    require_subcritical(n, eps)
    f = Fraction(eps) if not isinstance(eps, Fraction) else eps
    p, q = f.numerator, f.denominator
    d = q - n * (n - 1) * p            # positive by the subcritical check
    sums_lane, gaps_lane = (exact_lane(bound) for bound in exact_profile_bounds(n, f))
    star = _incidence(n)[2]
    coefficients = _integer_coefficients(n, f)

    def gaps(block):
        S = _leading_sum(block)
        R_num = 2 * S * q                           # R = R_num / d
        sb_num = block * d                          # sb = sb_num / d
        sig = sb_num + 2 * S * p                    # sigma = sig / d
        lam = n * _leading_sum(sig[star]) - R_num   # lambda = lam / (n d)
        return estimate_gaps(lam, sig, sb_num, R_num, coefficients, [], gaps_lane)

    (low, high, bad), timings = _check_blocks(
        _combo_rng(seed, n, f), (count, n * (n - 1) // 2), np.int64, distribution,
        8 if gaps_lane == INT64_LANE else PYTHON_INT_BYTES,
        lambda block: gaps(lane_array(block, sums_lane)))
    den = n ** 3 * q * d ** 3   # of gap1 and the slack; gap2's is 2 den
    return {
        "count": count,
        "slackIdentityExact": high is None or bool(high == 0),
        "violations": [{"index": int(idx), "sigmaBar": sigma_bar.tolist(),
                        "gap1Num": int(gap1), "gap1Den": den,
                        "gap2Num": int(gap2), "gap2Den": 2 * den,
                        "slackNum": int(gap1 - residual), "slackDen": den}
                       for idx, gap1, gap2, residual, sigma_bar in bad],
        "minGap1Num": None if low is None else int(low[0]),
        "minGap2Num": None if low is None else int(low[1]),
        "exactLane": gaps_lane,
        "timings": timings,
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
        _require_inputs(self.dims, self.count, self.s_list)
        if self.kind == "tensor" and max(self.dims, default=3) > MAX_DUAL_N:
            raise ValueError(f"n = {max(self.dims)}: the tensor kind's min-Sec dual "
                             f"needs n <= {MAX_DUAL_N}")

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
    s_list = [float(s) for s in config.s_list]
    rows, sb = _eigenframe_gaps(shifted, R, e, s_list, lap)
    summary = _gap_summary(_reduce_gaps([(rows, sb.T)]), s_list)
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
