"""Minimal sectional curvature over the Grassmannian of 2-planes.

Sectional curvature is the quadratic form Rhat, the stored curvature
operator, on unit bivectors, written in the basis curvature.pair_basis, and
a bivector w is a plane exactly when w ^ w = 0.  Every 4-form omega acts on
bivectors as a symmetric matrix with <w, omega w> a multiple of
<w ^ w, omega>, which vanishes on planes, so

    lambda_min(Rhat + omega) <= min Sec    for every omega in Lambda^4,

a weak-duality bound whose best omega is the "strongly nonnegative" bound
(J. A. Thorpe, J. Differential Geom. 5, 1971; R. G. Bettiol and
R. A. E. Mendes, arXiv:1708.09033).  In dimension four Lambda^4 is spanned
by the Hodge star and the bound is exact (Finsler's lemma): a safeguarded
Newton iteration in one variable solves it, run in lockstep over a stack of
tensors, one batched eigh a step, and each tensor stops once the concavity
of the objective certifies its maximum.  For 5 <= n <= 8 a log-barrier
Newton path maximizes it over C(n, 4) multipliers, one tensor at a time;
there it is not always exact (Zoltek's examples), so the bracket it closes
may stay open; the plane is polished by alternating exact minimizations over
one of its vectors, each a bottom eigenvector of an n x n matrix.  For
n <= 3 there are no 4-forms and every bivector is a plane, so
min Sec = lambda_min(Rhat).

dual_min_sectional returns the bracket (lower, upper, plane): lower from the
multiplier, upper the curvature of a plane taken from the bottom eigenvectors
at that multiplier.  shift_to_pinching returns tensors certified by that
bracket; pinched is the one test of Sec >= eps*R.  The *_stack functions
take a stack rhat (k, m, m) of curvature operators and carry each plane as
its orthonormal pair of arrays (x, y); dual_min_sectional and
shift_to_pinching are their stacks of one, and a tensor's numbers do not
depend on the stack it sits in.  A Plane is built only for the caller of
dual_min_sectional and min_sectional.  A shift by c adds c times
constant_curvature(n, 1), the identity on bivectors.

The dual is the module's one min-Sec algorithm, and it needs only numpy.
The tests check it against an independent grid + L-BFGS search on the n^4
components (tests/reference.py).  SearchOptions, minimize and
min_sectional's opts serve no runtime path: they stay while the benchmark
reads them (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import (
    AlgCurvTensor,
    Plane,
    RATIONAL,
    four_form_basis,
    pair_basis,
    pair_dimension,
    plane_sectionals_stack,
    scalar_stack,
    wedge_map,
)
from .scalars import GAP_RTOL, is_rational, mode_of


class DegenerateEpsError(ValueError):
    """eps at or beyond 1/(n(n-1)): the modified scalar curvature
    (1 - n(n-1)*eps) * R degenerates and the shift equation has no solution;
    or so close below it that the float lanes' 1 - n(n-1)*float(eps) is 0."""


def require_subcritical(n, eps):
    """Raise DegenerateEpsError unless eps * n(n-1) < 1, decided exactly,
    and the float lanes' denominator 1 - n(n-1)*float(eps) is positive: the
    domain of the pinching shift, the profile samplers and the campaigns.
    ValueError for a NaN or infinite eps."""
    if isinstance(eps, float) and not math.isfinite(eps):
        raise ValueError(f"eps = {eps} is not finite")
    if Fraction(eps) * n * (n - 1) >= 1:
        raise DegenerateEpsError(
            f"eps = {eps} >= 1/(n(n-1)) = 1/{n * (n - 1)} for n = {n}: the "
            "modified scalar curvature (1 - n(n-1)*eps)*R degenerates")
    if not 1 - n * (n - 1) * float(eps) > 0:
        raise DegenerateEpsError(
            f"eps = {eps} < 1/(n(n-1)) = 1/{n * (n - 1)} for n = {n}, but rounded "
            f"to float it gives 1 - n(n-1)*eps = {1 - n * (n - 1) * float(eps)}, "
            "and the float lanes divide by it")


@dataclass(frozen=True)
class SearchOptions:
    """Options of the tests' grid + L-BFGS oracle (tests/reference.py); no
    runtime path reads them.  Kept here because the benchmark builds them
    (ROADMAP item 1)."""

    grid_points: int | None = None   # default: min(20**(2(n-2)), 160000)
    refine_starts: int = 32
    max_iters: int = 400
    tol: float = 1e-8

    def grid_for(self, n):
        if self.grid_points is not None:
            return self.grid_points
        return min(20 ** (2 * (n - 2)), 160_000)


def _float_stack(rhat):
    """The stack of operators rhat (k, m, m) in float, C-contiguous (BLAS may
    round a strided operand differently, so every operator is laid out as a
    stack of one's); ValueError if an entry is not finite."""
    rhat = np.ascontiguousarray(rhat, dtype=float)
    if not np.isfinite(rhat).all():
        raise ValueError("curvature operator has non-finite entries")
    return rhat


def _orthonormal_pairs(z, n):
    """Gram-Schmidt on the rows (u, v) = (z[:, :n], z[:, n:]): orthonormal
    (x, y) spanning the same planes."""
    u, v = z[:, :n], z[:, n:]
    x = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = v - (v * x).sum(axis=1, keepdims=True) * x
    return x, v / np.linalg.norm(v, axis=1, keepdims=True)


def minimize(fun, x0, **options):
    """scipy.optimize.minimize, imported on first use: the tests' oracle's
    one route to scipy, so a test can forbid it.  No runtime path calls it;
    kept because the benchmark's tracer wraps it (ROADMAP item 1)."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **options)


def min_sectional(Rm: AlgCurvTensor, opts=None):
    """Minimal sectional curvature over all 2-planes; returns (value, Plane),
    the upper end of dual_min_sectional.  opts is ignored, kept because the
    benchmark passes it (ROADMAP item 1)."""
    _, upper, plane = dual_min_sectional(Rm)
    return upper, plane


# ---------------------------------------------------------------------------
# The 4-form dual
# ---------------------------------------------------------------------------

MAX_DUAL_N = 8


# Hodge star on bivectors of R^4 in the pair_basis (01, 02, 03, 12, 13, 23):
# *e01 = e23, *e02 = -e13, *e03 = e12.  <w, *w> = 2 (w01 w23 - w02 w13
# + w03 w12) is the Plucker quadric, which vanishes exactly on planes.
HODGE_STAR = four_form_basis(4)[0]

# Padding that turns the computed lambda_min(A), A = Rhat + sum_j w_j M_j,
# into a lower bound on the exact one.  With u the unit roundoff and Weyl's
# inequality |lambda_min(A + E) - lambda_min(A)| <= ||E||_2 <= ||E||_F, the
# errors are:
#   - a rational tensor's entries rounded to floats: u ||Rhat||_F;
#   - forming A (each entry of sum_j w_j M_j is 0 or a single +-w_j, so that
#     sum is exact and each entry of A takes one rounded addition): u ||A||_F;
#   - the symmetric eigensolver: the computed eigenvalues are exact for
#     A + E with ||E||_2 <= p(m) u ||A||_2 (LAPACK Users' Guide, 3rd ed.,
#     section 4.7), where p(m) is a modestly growing function of the order m;
#   - the two norms and the final subtraction: about 2 u ||A||_F.
# Their sum stays below rounding_factor(m) u (||A||_F + ||Rhat||_F) as long
# as p(m) <= m + 27 (33 at n = 4, where m = 6).  LAPACK states no value for
# p(m), so the bound is rounding-padded rather than proven.
def rounding_factor(m):
    return m + 30


def dual_bracket_stack(rhat, multipliers, x, y):
    """(lower, upper) <= min Sec <= curvature of the plane, for each
    operator of the stack rhat (k, m, m) at its multiplier (k, C(n, 4)) and
    plane x, y (k, n): arrays (k,).

    lower is lambda_min(Rhat + sum_j multiplier_j M_j) over four_form_basis
    less the rounding padding, a weak-duality bound for any multiplier;
    upper is the sectional curvature of the plane.  A shift Rhat + c I moves
    both ends by c and leaves the best multiplier unchanged.

    Each entry of sum_j multiplier_j M_j is a single +-multiplier_j, so A is
    formed exactly, and each norm is one dot product per tensor, as for a
    stack of one.
    """
    rhat = _float_stack(rhat)
    m = rhat.shape[-1]
    basis = four_form_basis(pair_dimension(m))
    A = rhat + (multipliers @ basis.reshape(len(basis), m * m)).reshape(rhat.shape)
    unit = np.finfo(float).eps / 2
    flat_A, flat_rhat = A.reshape(len(A), m * m), rhat.reshape(len(rhat), m * m)
    lower = np.linalg.eigvalsh(A)[:, 0] - rounding_factor(m) * unit * (
        np.sqrt(np.vecdot(flat_A, flat_A)) + np.sqrt(np.vecdot(flat_rhat, flat_rhat)))
    upper = plane_sectionals_stack(rhat, x[:, None], y[:, None])[:, 0]
    return lower, upper


def dual_min_sectional(Rm: AlgCurvTensor):
    """The bracket (lower, upper, plane) with lower <= min Sec <= upper and
    upper the sectional curvature of plane, for every n <= 8: the stack of
    one of solve_dual_stack, bounded by dual_bracket_stack.  Closed to
    roundoff for n <= 4; for n >= 5 it may stay open where the 4-form
    relaxation is inexact."""
    rhat = Rm.rhat[None]
    multipliers, x, y = solve_dual_stack(rhat)
    lower, upper = dual_bracket_stack(rhat, multipliers, x, y)
    return float(lower[0]), float(upper[0]), Plane(x[0], y[0])


def solve_dual_stack(rhat):
    """For each operator of the stack rhat (k, m, m), a 4-form over
    four_form_basis(n) that maximizes lambda_min(Rhat + omega), and a plane
    from the bottom eigenvectors there: arrays (multipliers (k, C(n, 4)),
    x (k, n), y (k, n)), the planes' orthonormal pairs.

    n = 4 maximizes over the Hodge star (exact) by a safeguarded Newton
    iteration, in lockstep over the stack (_maximize_star), and takes the
    least-curvature null bivector of the bottom eigenspace there
    (_null_bivector).  5 <= n <= 8 follows a log-barrier path per tensor,
    then polishes best rank-2 approximations of bottom eigenvectors by
    alternating exact minimizations over one vector of the plane
    (_bottom_plane, _polish).  For n <= 3 the multiplier is
    empty and the bottom eigenvector is already a plane, so nothing is
    polished.  A tensor's result does not depend on the stack it is in.
    """
    n = pair_dimension(rhat.shape[-1])
    if not 2 <= n <= MAX_DUAL_N:
        raise ValueError(f"the dual solve needs 2 <= n <= {MAX_DUAL_N}, got n = {n}")
    rhat = _float_stack(rhat)
    if n == 4:
        t, vecs = _maximize_star(rhat)
        x, y = _plane_of(_null_bivector(rhat, vecs), 4)
        return t[:, None], x, y
    solved = [_solve_barrier(r, n) for r in rhat]
    multipliers = np.array([m for m, _, _ in solved]).reshape(len(rhat), len(four_form_basis(n)))
    x = np.array([x for _, x, _ in solved]).reshape(len(rhat), n)
    y = np.array([y for _, _, y in solved]).reshape(len(rhat), n)
    return multipliers, x, y


def _solve_barrier(rhat, n):
    """solve_dual_stack of one float operator rhat on the bivectors of R^n,
    n != 4: (multiplier, x, y), x and y of shape (n,)."""
    basis = four_form_basis(n)
    multiplier = _barrier_path(rhat, basis)
    lam, vecs = np.linalg.eigh(rhat + np.tensordot(multiplier, basis, 1))
    if n <= 3:   # every bivector is a plane
        x, y = _plane_of(vecs[:, 0][None], n)
        return multiplier, x[0], y[0]
    bottom = lam <= lam[0] + np.sqrt(np.finfo(float).eps) * max(1.0, lam[-1] - lam[0])
    return multiplier, *_bottom_plane(rhat, vecs[:, bottom])


def _bottom_plane(rhat, V):
    """The orthonormal pair (x, y), each of shape (n,), of the
    least-curvature plane polished (_polish) from the best plane
    approximations of starts in span(V), V an orthonormal basis (columns) of
    the bottom eigenspace, of the float operator rhat.

    Where the relaxation is inexact the bottom eigenvalue is multiple, V is
    an arbitrary basis of its eigenspace, and no single basis vector need
    lie near the best plane: from the basis vectors alone the polish missed
    the global minimum for 9 of 60 random bases of each of two such tensors
    (n = 7 and 5).  So the starts are each basis vector and each pair's sum
    and difference.
    """
    a, b, _ = pair_basis(V.shape[1])
    starts = np.concatenate([V, V[:, a] + V[:, b], V[:, a] - V[:, b]], axis=1)
    polished = [_polish(rhat, x[None], y[None])
                for x, y in zip(*_plane_of(starts.T, pair_dimension(len(rhat))))]
    values = [plane_sectionals_stack(rhat[None], x[None], y[None])[0, 0] for x, y in polished]
    x, y = polished[int(np.argmin(values))]
    return x[0], y[0]


# Cap on _maximize_star's steps: twice the 53 halvings that take a
# bisection from width 2 * spread to its final width eps * spread.
STAR_STEPS = 106

# A bottom eigenvalue within KINK_GAP * spread of the next one counts as
# multiple: f may have a kink there, and f'' (which divides by that gap)
# would shrink the Newton step to nothing.
KINK_GAP = np.sqrt(np.finfo(float).eps)


def _maximize_star(rhat):
    """Maximize the concave f(t) = lambda_min(Rhat + t *) of each Rhat of
    the stack rhat (k, 6, 6) by a safeguarded Newton iteration on its
    supergradient s = v^T * v (v a bottom eigenvector); returns each best t
    and the eigenvectors there, arrays (k,) and (k, 6, 6).

    The maximizer lies in |t| <= spread of Rhat's spectrum, because
    f(t) <= lambda_max - |t| and f(0) = lambda_min.  Each tensor keeps a
    bracket [lo, hi] of it and, at each end, a line above f: the supporting
    line f + s (t' - t) of the last point on that side (at first the lines
    lambda_max + t and lambda_max - t).  The next point is
    - where the bottom eigenvalue is simple, the Newton step t - s / f'',
      f'' = 2 sum_{i>=1} (v_i^T * v_0)^2 / (lambda_0 - lambda_i), read from
      the same eigh;
    - where it is multiple (KINK_GAP), the meeting point of the two lines,
      exact where f is piecewise linear;
    - the bisection of [lo, hi] when that point leaves (lo, hi) or does not
      halve the last move.
    A tensor stops at a zero slope, at a bracket of width eps * spread (the
    bisection's final width), or when the concavity bound closes: f lies
    below both lines, so the value where they meet less the best f seen is
    within eps * spread; else after STAR_STEPS steps.

    The steps run in lockstep over the stack, one batched eigh a step.  A
    tensor that has stopped repeats its state, so every step of a tensor is
    computed as for a stack of one and its result does not depend on the
    stack.
    """
    count = len(rhat)
    spectrum = np.linalg.eigvalsh(rhat)
    spread = spectrum[:, -1] - spectrum[:, 0]
    tol = np.finfo(float).eps * spread
    lo, hi = -spread, spread.copy()
    f_lo, f_hi = spectrum[:, 0].copy(), spectrum[:, 0].copy()
    s_lo, s_hi = np.ones(count), -np.ones(count)
    t, move = np.zeros(count), 2 * spread
    # each tensor's best t, lambda_min and eigenvectors so far
    best_t, best_lam = np.zeros(count), np.full(count, -np.inf)
    best_vecs = np.zeros(rhat.shape)
    stopped = np.zeros(count, dtype=bool)
    for _ in range(STAR_STEPS):
        lam, vecs = np.linalg.eigh(rhat + t[:, None, None] * HODGE_STAR)
        better = lam[:, 0] > best_lam
        np.copyto(best_t, t, where=better)
        np.copyto(best_lam, lam[:, 0], where=better)
        np.copyto(best_vecs, vecs, where=better[:, None, None])
        # v_i^T * v_0 for each eigenvector v_i; i = 0 is the slope
        coupling = np.vecdot(vecs.transpose(0, 2, 1), (vecs[:, :, 0] @ HODGE_STAR)[:, None])
        slope = coupling[:, 0]
        for where, end, f_end, s_end in ((slope > 0, lo, f_lo, s_lo),
                                         (slope < 0, hi, f_hi, s_hi)):
            np.copyto(end, t, where=where)
            np.copyto(f_end, lam[:, 0], where=where)
            np.copyto(s_end, slope, where=where)
        # s_lo > 0 > s_hi; a slope near 0 or a linear branch (f'' = 0) gives
        # an infinite or nan point, which bisects
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            meet = (f_hi - f_lo + s_lo * lo - s_hi * hi) / (s_lo - s_hi)
            stopped |= ((slope == 0) | (hi - lo <= tol)
                        | (f_lo + s_lo * (meet - lo) - best_lam <= tol))
            if stopped.all():
                break
            gaps = lam[:, 1:] - lam[:, :1]
            newton = t + slope / (2 * (coupling[:, 1:] ** 2 / gaps).sum(axis=1))
            point = np.where(gaps[:, 0] > KINK_GAP * spread, newton, meet)
            bisect = ~((lo < point) & (point < hi) & (np.abs(point - t) <= move / 2))
        point = np.where(bisect, (lo + hi) / 2, point)
        np.copyto(move, np.abs(point - t), where=~stopped)
        np.copyto(t, point, where=~stopped)
    return best_t, best_vecs


def _null_bivector(rhat, vecs):
    """For each tensor of a stack, the least-curvature w^T Rhat w of the
    unit bivectors with <w, *w> = 0 in the nested bottom eigenspaces
    spanned by vecs[:, :, :k], the first of them on a tie; shape (k, 6).

    k = 1 normalises the self-dual and anti-self-dual parts of the bottom
    eigenvector to equal length.  For k >= 2, * restricted to the span has a
    most negative and a most positive eigenvector a-, a+ (eigenvalues
    mu- <= 0 <= mu+), and sqrt(mu+) a- + sqrt(-mu-) a+ is null.  Every k is
    tried, so the multiplicity of the bottom eigenvalue needs no tolerance;
    at k = 6 the span is everything and * has eigenvalues -1 and 1, so some
    candidate always exists.
    """
    count, size = vecs.shape[:2]
    candidates = np.zeros((count, size, size))
    valid = np.zeros((count, size), dtype=bool)
    v = vecs[:, :, 0]
    star_v = (HODGE_STAR @ v[:, :, None])[:, :, 0]
    plus, minus = (v + star_v) / 2, (v - star_v) / 2
    p, m = np.sqrt(np.vecdot(plus, plus)), np.sqrt(np.vecdot(minus, minus))
    valid[:, 0] = (p > 0) & (m > 0)
    with np.errstate(divide="ignore", invalid="ignore"):   # invalid candidates
        candidates[:, 0] = (plus / p[:, None] + minus / m[:, None]) / np.sqrt(2)
        for k in range(2, size + 1):
            span = vecs[:, :, :k]
            mu, a = np.linalg.eigh(span.transpose(0, 2, 1) @ HODGE_STAR @ span)
            low, high = mu[:, 0], mu[:, -1]
            valid[:, k - 1] = (low <= 0) & (0 <= high) & (low < high)
            mix = np.sqrt(high)[:, None] * a[:, :, 0] + np.sqrt(-low)[:, None] * a[:, :, -1]
            w = (span @ mix[:, :, None])[:, :, 0]
            candidates[:, k - 1] = w / np.sqrt(np.vecdot(w, w))[:, None]
    curvature = np.vecdot((candidates[:, :, None, :] @ rhat[:, None])[:, :, 0], candidates)
    first = np.argmin(np.where(valid, curvature, np.inf), axis=1)
    return candidates[np.arange(count), first]


# Log-barrier path: the barrier weight shrinks by BARRIER_SHRINK until the
# duality gap m * mu of a central point is BARRIER_GAP of the spectrum's
# spread; NEWTON_STEPS caps the centring steps per weight.
BARRIER_SHRINK = 0.05
BARRIER_GAP = 1e-15
NEWTON_STEPS = 30


def _barrier_path(rhat, basis):
    """A multiplier omega maximizing lambda_min(rhat + sum_j omega_j basis_j).

    Maximizes t subject to X(y) = rhat + sum_j omega_j basis_j - t I >= 0,
    y = (omega, t), along the central path of t / mu + log det X(y): damped
    Newton steps (Hessian entries tr(S B_k S B_l), S = X^-1, B = (basis, -I)),
    backtracked to stay positive definite.  Stops early if a Newton system
    is singular; any omega gives a valid lower bound.
    """
    d, m = len(basis), len(rhat)
    if d == 0:
        return np.zeros(0)
    B = np.concatenate([basis, -np.eye(m)[None]])
    flat = B.reshape(d + 1, m * m)
    spectrum = np.linalg.eigvalsh(rhat)
    scale = max(1.0, spectrum[-1] - spectrum[0])
    y = np.zeros(d + 1)
    y[d] = spectrum[0] - scale
    mu = 1.0 / np.trace(np.linalg.inv(rhat - y[d] * np.eye(m)))

    def log_det(y):
        try:
            L = np.linalg.cholesky(rhat + (y @ flat).reshape(m, m))
        except np.linalg.LinAlgError:
            return None
        return 2.0 * np.log(np.diag(L)).sum()

    phi = log_det(y)
    while m * mu > BARRIER_GAP * scale:
        for _ in range(NEWTON_STEPS):
            P = np.linalg.inv(rhat + (y @ flat).reshape(m, m)) @ B
            grad = np.einsum("kaa->k", P)
            grad[d] += 1.0 / mu
            hess = P.reshape(d + 1, -1) @ P.transpose(0, 2, 1).reshape(d + 1, -1).T
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                return y[:d]
            decrement = grad @ step
            if not decrement > 0:
                break
            size = 1.0 if decrement < 1 / 16 else 1.0 / (1.0 + np.sqrt(decrement))
            before = y[d] / mu + phi
            while True:
                trial = log_det(y + size * step)
                if trial is not None and (y[d] + size * step[d]) / mu + trial >= before:
                    break
                size /= 2
                if size < 1e-8:
                    return y[:d]
            y, phi = y + size * step, trial
            if decrement < 1e-4:
                break
        mu *= BARRIER_SHRINK
    return y[:d]


def _plane_of(w, n):
    """Orthonormal x, y (each (k, n)) spanning the best plane approximation
    of each bivector of R^n in the stack w (k, m): the top eigenspace of
    W^T W, W its antisymmetric matrix (exactly x ^ y = +-w/|w| when w is
    decomposable)."""
    i, j, _ = pair_basis(n)
    W = np.zeros((len(w), n, n))
    W[:, i, j], W[:, j, i] = w, -w
    _, vecs = np.linalg.eigh(W.transpose(0, 2, 1) @ W)
    return vecs[:, :, -1].copy(), vecs[:, :, -2].copy()


# Cap on _polish's alternating steps.  Over 288 random tensors at
# 5 <= n <= 8 the median polish lowers the curvature in one step.
POLISH_STEPS = 200


def _best_partner(rhat, x):
    """The unit y orthogonal to the unit x that minimizes the curvature
    y^T K_x y of span(x, y), K_x = R(x, ., x, .) = A_x^T rhat A_x with A_x
    the map y -> x ^ y (wedge_map): the bottom eigenvector of K_x on
    x^perp.  K_x x = 0, so adding c x x^T with c above K_x's spectral radius
    makes x the top eigenvector and leaves the rest unchanged."""
    A = wedge_map(x)
    K = A.T @ rhat @ A
    _, vecs = np.linalg.eigh(K + (np.linalg.norm(K) + 1.0) * np.outer(x, x))
    return vecs[:, 0]


def _polish(rhat, x, y):
    """Lower the curvature of the plane of the orthonormal rows x, y (each
    (1, n)), for the float operator rhat, by alternating exact
    minimizations: with x fixed the best y is _best_partner(x), then with
    that y fixed the best x is _best_partner(y).  A plane is kept only if
    its curvature is below the last one, so the result's curvature never
    exceeds the start's; the steps stop at the first that does not lower
    it, or after POLISH_STEPS.  Returns the rows (x, y).

    Near a multiple bottom eigenvalue the vectors converge only linearly:
    on an open-bracket tensor at n = 6 with a 4-dimensional bottom
    eigenspace, plain steps reach POLISH_STEPS while still lowering the
    curvature.  So while the moves of (x, y) shrink, each new plane is also
    extrapolated (_extrapolated) to the limit of its moves as a geometric
    series, and the extrapolated plane is kept when its curvature is lower.
    """
    n = x.shape[1]
    one = rhat[None]
    best = plane_sectionals_stack(one, x[None], y[None])[0, 0]
    last = None   # the length of the last move, unless it was extrapolated
    for _ in range(POLISH_STEPS):
        partner = _best_partner(rhat, x[0])
        z = np.concatenate([_best_partner(rhat, partner), partner])
        x1, y1 = _orthonormal_pairs(z[None, :], n)
        value = plane_sectionals_stack(one, x1[None], y1[None])[0, 0]
        if not value < best:
            break
        move = _move(x, y, x1, y1)
        x, y, best, length = x1, y1, value, np.linalg.norm(move)
        if last is not None and length < last:
            x1, y1 = _extrapolated(x, y, move, length / last)
            value = plane_sectionals_stack(one, x1[None], y1[None])[0, 0]
            if value < best:
                x, y, best, length = x1, y1, value, None
        last = length
    return x, y


def _move(x, y, x1, y1):
    """The rows x1, y1 minus x, y, each of x, y signed to face its
    counterpart, concatenated: (x1 - x, y1 - y), of shape (1, 2n)."""
    return np.concatenate([x1 - x * np.sign(x[0] @ x1[0]),
                           y1 - y * np.sign(y[0] @ y1[0])], axis=1)


def _extrapolated(x, y, move, ratio):
    """Orthonormal rows (x, y) of the plane at the limit of the moves if
    each later move is ratio times the last, move being the last (Aitken's
    delta-squared): (x, y) + move * ratio / (1 - ratio)."""
    z = np.concatenate([x, y], axis=1) + move * (ratio / (1 - ratio))
    return _orthonormal_pairs(z, x.shape[1])


# ---------------------------------------------------------------------------
# The pinching shift
# ---------------------------------------------------------------------------

def pinched(value, eps, R):
    """value >= eps*R, the pinching hypothesis for a curvature value, as a
    bool: exact when value, eps and R are rational, else up to
    GAP_RTOL * max(1, |eps*R|).  Float values and R may be arrays, which
    give a bool array."""
    if is_rational(value) and is_rational(eps) and is_rational(R):
        return value >= eps * R
    bound = float(eps) * np.asarray(R, dtype=float)
    holds = value >= bound - GAP_RTOL * np.maximum(1.0, np.abs(bound))
    return bool(holds) if np.ndim(holds) == 0 else holds


def shift_to_pinching(Rm: AlgCurvTensor, eps, margin=0):
    """(shifted, lower, upper): Rm + c I on bivectors with Sec >= eps*R
    (+ margin slack), certified when pinched(lower, eps, R) for its bracket
    [lower, upper].  The stack of one of solve_dual_stack and
    shift_to_pinching_stack."""
    rhat = Rm.rhat[None]
    shifted, lower, upper = shift_to_pinching_stack(rhat, eps, margin, solve_dual_stack(rhat))
    return AlgCurvTensor(shifted[0]), float(lower[0]), float(upper[0])


def shift_to_pinching_stack(rhat, eps, margin, solution):
    """shift_to_pinching of each operator of the stack rhat (k, m, m),
    given its solve_dual_stack solution (multipliers, x, y): arrays
    (shifted, lower, upper).

    Each tensor is shifted by the curvature of its plane (shift_by_stack):
    that adds c I to Rhat and keeps the multiplier optimal, so
    dual_bracket_stack at it rechecks.  An open bracket wider than the
    slack, its plane still pinched, is shifted on from lower and rechecked;
    one whose plane violates the hypothesis is returned uncertified.
    """
    multipliers, x, y = solution
    upper = plane_sectionals_stack(_float_stack(rhat), x[:, None], y[:, None])[:, 0]
    shifted = shift_by_stack(rhat, eps, upper, margin)
    lower, upper = dual_bracket_stack(shifted, multipliers, x, y)
    R = scalar_stack(shifted)
    again = ~pinched(lower, eps, R) & pinched(upper, eps, R)
    if again.any():
        shifted[again] = shift_by_stack(shifted[again], eps, lower[again], margin)
        lower[again], upper[again] = dual_bracket_stack(
            shifted[again], multipliers[again], x[again], y[again])
    return shifted, lower, upper


def shift_by_stack(rhat, eps, min_sec, margin=0):
    """Each operator of the stack rhat (k, m, m), of one mode, whose min Sec
    is min_sec (k,), plus c I on bivectors solving min Sec = eps R (+ margin
    slack) for the shifted tensor.  Both sides move with c: sigma -> sigma + c
    and R -> R + n(n-1) c, and Rhat -> Rhat + c I, which changes only the
    diagonal, so a valid stack stays valid."""
    n = pair_dimension(rhat.shape[-1])
    require_subcritical(n, eps)
    R = np.asarray(scalar_stack(rhat), dtype=float)
    c = (float(eps) * R - np.asarray(min_sec, dtype=float)) / (
        1 - float(eps) * n * (n - 1)) + float(margin)
    if mode_of(rhat) == RATIONAL:   # exact dyadic conversion of the float shift
        c = np.array([Fraction(v) for v in c.tolist()], dtype=object)
    shifted = rhat.copy()
    d = np.arange(rhat.shape[-1])
    shifted[:, d, d] += c[:, None]
    return shifted
