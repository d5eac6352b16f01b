"""Minimal sectional curvature over the Grassmannian of 2-planes.

Sectional curvature is the quadratic form Rhat (pair_operator) on unit
bivectors, and a bivector w is a plane exactly when w ^ w = 0.  Every 4-form
omega acts on bivectors as a symmetric matrix with <w, omega w> a multiple of
<w ^ w, omega>, which vanishes on planes, so

    lambda_min(Rhat + omega) <= min Sec    for every omega in Lambda^4,

a weak-duality bound whose best omega is the "strongly nonnegative" bound
(J. A. Thorpe, J. Differential Geom. 5, 1971; R. G. Bettiol and
R. A. E. Mendes, arXiv:1708.09033).  In dimension four Lambda^4 is spanned
by the Hodge star and the bound is exact (Finsler's lemma): a bisection in
one variable solves it.  For 5 <= n <= 8 a log-barrier Newton path maximizes
it over C(n, 4) multipliers; there it is not always exact (Zoltek's
examples), so the bracket it closes may stay open.  For n <= 3 there are no
4-forms and every bivector is a plane, so min Sec = lambda_min(Rhat).

dual_min_sectional returns the bracket (lower, upper, plane): lower from the
multiplier, upper the curvature of a plane taken from the bottom eigenvectors
at that multiplier.  shift_to_pinching returns tensors certified by that
bracket; pinched is the one test of Sec >= eps*R.  The grid + L-BFGS search
(search_min_sectional) is the tests' independent oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

import numpy as np

from .curvature import (
    AlgCurvTensor,
    Plane,
    RATIONAL,
    identity_metric,
    kulkarni_nomizu,
    pair_index,
    scalar,
)
from .scalars import GAP_RTOL, is_rational


class MinSectionalError(RuntimeError):
    """No refinement start converged; carries grid diagnostics."""


class DegenerateEpsError(ValueError):
    """eps at or beyond 1/(n(n-1)): the modified scalar curvature
    (1 - n(n-1)*eps) * R degenerates and the shift equation has no solution."""


def require_subcritical(n, eps):
    """Raise DegenerateEpsError unless eps * n(n-1) < 1, the domain of the
    pinching shift, the profile samplers and the campaigns."""
    if float(eps) * n * (n - 1) >= 1:
        raise DegenerateEpsError(
            f"eps = {eps} >= 1/(n(n-1)) = 1/{n * (n - 1)} for n = {n}: the "
            "modified scalar curvature (1 - n(n-1)*eps)*R degenerates")


@dataclass(frozen=True)
class SearchOptions:
    """Options of search_min_sectional, the grid + L-BFGS oracle.

    The runtime path solves the dual and takes no options.  min_sectional's
    opts and CampaignConfig.search still accept them, unused, because the
    benchmark's workloads pass them.
    """

    grid_points: int | None = None   # default: min(20**(2(n-2)), 160000)
    refine_starts: int = 32
    max_iters: int = 400
    tol: float = 1e-8

    def grid_for(self, n):
        if self.grid_points is not None:
            return self.grid_points
        return min(20 ** (2 * (n - 2)), 160_000)


def pair_operator(Rm: AlgCurvTensor) -> np.ndarray:
    """Rhat[a, b] = R_{i_a j_a i_b j_b} over the bivector pair basis."""
    pairs = pair_index(Rm.n)
    comp = np.asarray(Rm.comp, dtype=float) if Rm.mode == RATIONAL else Rm.comp
    idx = np.array(pairs)
    return comp[idx[:, 0][:, None], idx[:, 1][:, None], idx[:, 0][None, :], idx[:, 1][None, :]]


def _orthonormal_pairs(z, n):
    """Gram-Schmidt on the rows (u, v) = (z[:, :n], z[:, n:]): orthonormal
    (x, y) spanning the same planes."""
    u, v = z[:, :n], z[:, n:]
    x = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = v - (v * x).sum(axis=1, keepdims=True) * x
    return x, v / np.linalg.norm(v, axis=1, keepdims=True)


def minimize(fun, x0, **options):
    """scipy.optimize.minimize, imported on first use: scipy.optimize and
    scipy.stats take most of pinchlab's import time and memory, and only the
    plane polish at n >= 5 and the search oracle need them."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **options)


_GRID_CACHE = {}


def _plane_grid(n, count):
    """Deterministic stratified orthonormal pairs: Halton points in [0,1]^{2n}
    pushed to Gaussians, then Gram-Schmidt.  Cached per (n, count)."""
    key = (n, count)
    if key not in _GRID_CACHE:
        from scipy.stats import norm, qmc
        h = qmc.Halton(d=2 * n, scramble=False)
        h.fast_forward(1)  # skip the origin
        _GRID_CACHE[key] = _orthonormal_pairs(norm.ppf(h.random(count)), n)
    return _GRID_CACHE[key]


def _bivector(x, y, pairs):
    return np.stack([x[:, i] * y[:, j] - x[:, j] * y[:, i] for i, j in pairs], axis=1)


def plane_sectionals(Rm: AlgCurvTensor, x, y):
    """Sectional curvatures w^T Rhat w of the planes spanned by the
    orthonormal rows of x and y, w = x ^ y in the pair basis."""
    w = _bivector(x, y, pair_index(Rm.n))
    return np.einsum("pa,ab,pb->p", w, pair_operator(Rm), w)


def grid_sectionals(Rm: AlgCurvTensor, count):
    """Sectional curvature on the deterministic grid; (values, x, y)."""
    x, y = _plane_grid(Rm.n, count)
    return plane_sectionals(Rm, x, y), x, y


def sample_sectionals(Rm: AlgCurvTensor, count, seed):
    """Independent dense-sampling oracle: seeded random planes, raw values."""
    rng = np.random.default_rng(seed)
    x, y = _orthonormal_pairs(rng.standard_normal((count, 2 * Rm.n)), Rm.n)
    return plane_sectionals(Rm, x, y)


def _quotient_and_grad(comp, z):
    n = comp.shape[0]
    u, v = z[:n], z[n:]
    num = float(np.einsum("ijkl,i,j,k,l", comp, u, v, u, v))
    uu, vv, uv = u @ u, v @ v, u @ v
    den = uu * vv - uv * uv
    dnum_u = 2.0 * np.einsum("ijkl,j,k,l->i", comp, v, u, v)
    dnum_v = 2.0 * np.einsum("ijkl,i,k,l->j", comp, u, u, v)
    dden_u = 2.0 * (vv * u - uv * v)
    dden_v = 2.0 * (uu * v - uv * u)
    f = num / den
    grad = np.concatenate([(dnum_u - f * dden_u), (dnum_v - f * dden_v)]) / den
    return f, grad


def _descend(comp, z0, opts: SearchOptions = SearchOptions()):
    """One L-BFGS descent of the sectional-curvature quotient from
    z0 = (u, v); returns scipy's result."""
    return minimize(lambda z: _quotient_and_grad(comp, z), z0, jac=True,
                    method="L-BFGS-B",
                    options={"maxiter": opts.max_iters, "gtol": opts.tol * 1e-2,
                             "ftol": 1e-17})


def min_sectional(Rm: AlgCurvTensor, opts: SearchOptions = SearchOptions()):
    """Minimal sectional curvature over all 2-planes; returns (value, Plane),
    the upper end of dual_min_sectional.  opts is not used."""
    _, upper, plane = dual_min_sectional(Rm)
    return upper, plane


def search_min_sectional(Rm: AlgCurvTensor, opts: SearchOptions = SearchOptions()):
    """Grid + L-BFGS search for the minimal sectional curvature; returns
    (value, Plane), an upper bound achieved by the plane.

    Coarse deterministic grid, then local descent from the best cells.
    Raises MinSectionalError if no start converges within opts.max_iters.
    """
    if Rm.n > 8:
        raise ValueError("search supported for n <= 8 only")
    count = opts.grid_for(Rm.n)
    values, gx, gy = grid_sectionals(Rm, count)
    order = np.argsort(values, kind="stable")[: opts.refine_starts]

    comp = np.asarray(Rm.comp, dtype=float) if Rm.mode == RATIONAL else Rm.comp
    best_val, best_z, converged = np.inf, None, 0
    for p in order:
        res = _descend(comp, np.concatenate([gx[p], gy[p]]), opts)
        if res.success or res.fun <= values[p] + opts.tol:
            converged += 1
            if res.fun < best_val:
                best_val, best_z = res.fun, res.x
    if best_z is None:
        raise MinSectionalError(
            f"no refinement start converged ({opts.refine_starts} starts, "
            f"max_iters={opts.max_iters}); grid min {values.min()} over {count} planes")
    x, y = _orthonormal_pairs(best_z[None, :], Rm.n)
    plane = Plane(x[0], y[0])
    w = _bivector(x, y, pair_index(Rm.n))[0]
    rhat = pair_operator(Rm)
    return float(w @ rhat @ w), plane


# ---------------------------------------------------------------------------
# The 4-form dual
# ---------------------------------------------------------------------------

MAX_DUAL_N = 8


@cache
def four_form_basis(n):
    """Lambda^4 acting on bivectors, one read-only (m, m) matrix per 4-subset
    i < j < k < l of the pair_index basis: M[pq, rs] = sign of the
    permutation (p, q, r, s) of (i, j, k, l).  <w, M w> is twice the
    Pluecker quadric w_ij w_kl - w_ik w_jl + w_il w_jk, which vanishes on
    planes.  Shape (C(n, 4), m, m); no matrices for n <= 3."""
    position = {pair: a for a, pair in enumerate(pair_index(n))}
    quads = list(combinations(range(n), 4))
    basis = np.zeros((len(quads), len(position), len(position)))
    for q, (i, j, k, l) in enumerate(quads):
        for first, second, sign in (((i, j), (k, l), 1), ((i, k), (j, l), -1),
                                    ((i, l), (j, k), 1)):
            a, b = position[first], position[second]
            basis[q, a, b] = basis[q, b, a] = sign
    basis.setflags(write=False)
    return basis


# Hodge star on bivectors of R^4 in the pair_index basis (01, 02, 03, 12, 13,
# 23): *e01 = e23, *e02 = -e13, *e03 = e12.  <w, *w> = 2 (w01 w23 - w02 w13
# + w03 w12) is the Plucker quadric, which vanishes exactly on planes; it
# spans four_form_basis(4).
HODGE_STAR = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))
HODGE_STAR.setflags(write=False)

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


def dual_bracket(Rm: AlgCurvTensor, multiplier, plane: Plane):
    """(lower, upper) <= min Sec <= curvature of plane, from one 4-form.

    lower is lambda_min(Rhat + sum_j multiplier_j M_j) over four_form_basis
    less the rounding padding, a weak-duality bound for any multiplier;
    upper is the sectional curvature of plane.  A shift Rhat + c I moves
    both ends by c and leaves the best multiplier unchanged.
    """
    rhat = pair_operator(Rm)
    if not np.isfinite(rhat).all():
        raise ValueError("curvature tensor has non-finite components")
    A = rhat + np.tensordot(multiplier, four_form_basis(Rm.n), 1)
    unit = np.finfo(float).eps / 2
    lower = np.linalg.eigvalsh(A)[0] - rounding_factor(len(A)) * unit * (
        np.linalg.norm(A) + np.linalg.norm(rhat))
    upper = plane_sectionals(Rm, plane.x[None, :], plane.y[None, :])[0]
    return float(lower), float(upper)


def dual_min_sectional(Rm: AlgCurvTensor):
    """The bracket (lower, upper, plane) with lower <= min Sec <= upper and
    upper the sectional curvature of plane, for every n <= 8: solve_dual's
    multiplier and plane, bounded by dual_bracket.  Closed to roundoff for
    n <= 4; for n >= 5 it may stay open where the 4-form relaxation is
    inexact."""
    multiplier, plane = solve_dual(Rm)
    return (*dual_bracket(Rm, multiplier, plane), plane)


def solve_dual(Rm: AlgCurvTensor):
    """(multiplier, plane): a 4-form over four_form_basis(n) that maximizes
    lambda_min(Rhat + omega), and a plane from the bottom eigenvectors there.

    n = 4 bisects on the Hodge star (exact).  5 <= n <= 8 follows a
    log-barrier path, then polishes best rank-2 approximations of bottom
    eigenvectors by L-BFGS on the sectional-curvature quotient
    (_bottom_plane).  For n <= 3 the multiplier is empty and the bottom
    eigenvector is already a plane, so nothing is polished.
    """
    n = Rm.n
    if not 2 <= n <= MAX_DUAL_N:
        raise ValueError(f"the dual solve needs 2 <= n <= {MAX_DUAL_N}, got n = {n}")
    rhat = pair_operator(Rm)
    if not np.isfinite(rhat).all():
        raise ValueError("curvature tensor has non-finite components")
    if n == 4:
        t, vecs = _bisect_star(rhat)
        w = min(_null_bivectors(vecs), key=lambda b: b @ rhat @ b)
        return np.array([t]), _plane_of(w, 4)
    basis = four_form_basis(n)
    multiplier = _barrier_path(rhat, basis)
    lam, vecs = np.linalg.eigh(rhat + np.tensordot(multiplier, basis, 1))
    if n <= 3:   # every bivector is a plane
        return multiplier, _plane_of(vecs[:, 0], n)
    bottom = lam <= lam[0] + np.sqrt(np.finfo(float).eps) * max(1.0, lam[-1] - lam[0])
    return multiplier, _bottom_plane(Rm, vecs[:, bottom])


def _bottom_plane(Rm: AlgCurvTensor, V):
    """The least-curvature plane polished from starts in span(V), V an
    orthonormal basis (columns) of the bottom eigenspace.

    Where the relaxation is inexact the bottom eigenvalue is multiple, V is
    an arbitrary basis of its eigenspace, and no single basis vector need
    lie near the best plane: from the basis vectors alone the polish missed
    the global minimum for 7 and 8 of 60 random bases of two such tensors
    (n = 7 and 5).  So the starts are each basis vector and each pair's sum
    and difference.
    """
    a, b = np.triu_indices(V.shape[1], 1)
    starts = np.concatenate([V, V[:, a] + V[:, b], V[:, a] - V[:, b]], axis=1)
    planes = [_polish(Rm, _plane_of(w, Rm.n)) for w in starts.T]
    values = [plane_sectionals(Rm, p.x[None, :], p.y[None, :])[0] for p in planes]
    return planes[int(np.argmin(values))]


# 2 * spread / 2**53 = eps * spread: the bisection's final width
BISECTIONS = 53


def _bisect_star(rhat):
    """Maximize the concave f(t) = lambda_min(Rhat + t *) by bisection on the
    sign of its supergradient v^T * v (v a bottom eigenvector); returns the
    best t and the eigenvectors there.

    The maximizer lies in |t| <= spread of Rhat's spectrum, because
    f(t) <= lambda_max - |t| and f(0) = lambda_min; BISECTIONS halvings
    leave an interval of width eps * spread, and f is 1-Lipschitz.
    """
    spectrum = np.linalg.eigvalsh(rhat)
    hi = spectrum[-1] - spectrum[0]
    lo = -hi
    best = None
    for _ in range(BISECTIONS):
        t = (lo + hi) / 2
        lam, vecs = np.linalg.eigh(rhat + t * HODGE_STAR)
        if best is None or lam[0] > best[1][0]:
            best = (t, lam, vecs)
        slope = vecs[:, 0] @ HODGE_STAR @ vecs[:, 0]
        if slope > 0:
            lo = t
        elif slope < 0:
            hi = t
        if slope == 0 or lo == hi:
            break
    return best[0], best[2]


def _null_bivectors(vecs):
    """Unit bivectors with <w, *w> = 0 in the nested bottom eigenspaces
    spanned by vecs[:, :k].

    k = 1 normalises the self-dual and anti-self-dual parts of the bottom
    eigenvector to equal length.  For k >= 2, * restricted to the span has a
    most negative and a most positive eigenvector a-, a+ (eigenvalues
    mu- <= 0 <= mu+), and sqrt(mu+) a- + sqrt(-mu-) a+ is null.  Every k is
    tried, so the multiplicity of the bottom eigenvalue needs no tolerance.
    """
    v = vecs[:, 0]
    plus, minus = (v + HODGE_STAR @ v) / 2, (v - HODGE_STAR @ v) / 2
    p, m = np.linalg.norm(plus), np.linalg.norm(minus)
    if p > 0 and m > 0:
        yield (plus / p + minus / m) / np.sqrt(2)
    for k in range(2, vecs.shape[1] + 1):
        span = vecs[:, :k]
        mu, a = np.linalg.eigh(span.T @ HODGE_STAR @ span)
        if mu[0] <= 0 <= mu[-1] and mu[0] < mu[-1]:
            w = span @ (np.sqrt(mu[-1]) * a[:, 0] + np.sqrt(-mu[0]) * a[:, -1])
            yield w / np.linalg.norm(w)


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
    """Orthonormal x, y spanning the best plane approximation of the
    bivector w of R^n: the top eigenspace of W^T W, W its antisymmetric
    matrix (exactly x ^ y = +-w/|w| when w is decomposable)."""
    W = np.zeros((n, n))
    for a, (i, j) in enumerate(pair_index(n)):
        W[i, j], W[j, i] = w[a], -w[a]
    _, vecs = np.linalg.eigh(W.T @ W)
    return Plane(vecs[:, -1].copy(), vecs[:, -2].copy())


def _polish(Rm: AlgCurvTensor, plane):
    """One L-BFGS descent of the sectional-curvature quotient from plane."""
    res = _descend(np.asarray(Rm.comp, dtype=float), np.concatenate([plane.x, plane.y]))
    x, y = _orthonormal_pairs(res.x[None, :], Rm.n)
    return Plane(x[0], y[0])


# ---------------------------------------------------------------------------
# The pinching shift
# ---------------------------------------------------------------------------

def pinched(value, eps, R):
    """value >= eps*R, the pinching hypothesis for a curvature value, as a
    bool: exact when value, eps and R are rational, else up to
    GAP_RTOL * max(1, |eps*R|)."""
    if is_rational(value) and is_rational(eps) and is_rational(R):
        return value >= eps * R
    bound = float(eps) * float(R)
    return bool(value >= bound - GAP_RTOL * max(1.0, abs(bound)))


def shift_to_pinching(Rm: AlgCurvTensor, eps, margin=0):
    """(shifted, lower, upper): Rm + (c/2) g^g with Sec >= eps*R (+ margin
    slack), certified when pinched(lower, eps, R) for its bracket [lower, upper].

    One solve_dual on Rm, then shift_by the curvature of its plane: that
    adds c I to Rhat and keeps the multiplier optimal, so dual_bracket at it
    rechecks.  An open bracket wider than the slack, its plane still pinched,
    is shifted on from lower and rechecked; one whose plane violates the
    hypothesis is returned uncertified.
    """
    multiplier, plane = solve_dual(Rm)
    upper = plane_sectionals(Rm, plane.x[None, :], plane.y[None, :])[0]
    shifted = shift_by(Rm, eps, upper, margin)
    lower, upper = dual_bracket(shifted, multiplier, plane)
    R = scalar(shifted)
    if not pinched(lower, eps, R) and pinched(upper, eps, R):
        shifted = shift_by(shifted, eps, lower, margin)
        lower, upper = dual_bracket(shifted, multiplier, plane)
    return shifted, lower, upper


def shift_by(Rm: AlgCurvTensor, eps, min_sec, margin=0) -> AlgCurvTensor:
    """Rm' = Rm + (c/2) g^g solving min Sec(Rm') = eps R' (+ margin slack)
    for a tensor whose min Sec is min_sec.  Both sides move with c:
    sigma -> sigma + c and R -> R + n(n-1) c, and Rhat -> Rhat + c I."""
    n = Rm.n
    require_subcritical(n, eps)
    R = float(scalar(Rm))
    c = (float(eps) * R - min_sec) / (1 - float(eps) * n * (n - 1)) + float(margin)
    gg = kulkarni_nomizu(identity_metric(n, Rm.mode), identity_metric(n, Rm.mode))
    if Rm.mode == RATIONAL:
        half_c = Fraction(c) / 2  # exact dyadic conversion of the float shift
    else:
        half_c = c / 2.0
    return AlgCurvTensor(n, Rm.mode, Rm.comp + half_c * gg.comp)
