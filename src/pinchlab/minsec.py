"""Minimal sectional curvature over the Grassmannian of 2-planes.

Dimension four is solved exactly by Thorpe duality.  Sectional curvature is
the quadratic form Rhat (pair_operator) on unit bivectors, and a bivector is
a plane exactly when it satisfies the single Plucker quadric <w, *w> = 0, so
Finsler's lemma gives

    min Sec = max_t lambda_min(Rhat + t *),

a concave problem in one variable on a 6x6 matrix (J. A. Thorpe, J.
Differential Geom. 5, 1971; R. G. Bettiol and R. A. E. Mendes,
arXiv:1708.09033).  Every t gives a lower bound, and a plane in the bottom
eigenspace at the optimum gives the matching upper bound: dual_min_sectional
returns both.

Other dimensions are searched: a deterministic low-discrepancy sweep of
orthonormal pairs scored through the bivector form of the tensor, followed
by local descent (L-BFGS with the analytic gradient of the GL(2)-invariant
Rayleigh-type quotient R(u,v,u,v) / (|u|^2 |v|^2 - <u,v>^2)) from the best
cells.  The search gives only an upper bound; the tests also run it at n = 4
as an independent oracle for the dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize
from scipy.stats import norm, qmc

from .curvature import (
    AlgCurvTensor,
    Plane,
    RATIONAL,
    identity_metric,
    kulkarni_nomizu,
    pair_index,
    scalar,
)


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


_GRID_CACHE = {}


def _plane_grid(n, count):
    """Deterministic stratified orthonormal pairs: Halton points in [0,1]^{2n}
    pushed to Gaussians, then Gram-Schmidt.  Cached per (n, count)."""
    key = (n, count)
    if key not in _GRID_CACHE:
        h = qmc.Halton(d=2 * n, scramble=False)
        h.fast_forward(1)  # skip the origin
        _GRID_CACHE[key] = _orthonormal_pairs(norm.ppf(h.random(count)), n)
    return _GRID_CACHE[key]


def _bivector(x, y, pairs):
    return np.stack([x[:, i] * y[:, j] - x[:, j] * y[:, i] for i, j in pairs], axis=1)


def grid_sectionals(Rm: AlgCurvTensor, count):
    """Sectional curvature on the deterministic grid; (values, x, y)."""
    x, y = _plane_grid(Rm.n, count)
    w = _bivector(x, y, pair_index(Rm.n))
    rhat = pair_operator(Rm)
    return np.einsum("pa,ab,pb->p", w, rhat, w), x, y


def sample_sectionals(Rm: AlgCurvTensor, count, seed):
    """Independent dense-sampling oracle: seeded random planes, raw values."""
    rng = np.random.default_rng(seed)
    x, y = _orthonormal_pairs(rng.standard_normal((count, 2 * Rm.n)), Rm.n)
    w = _bivector(x, y, pair_index(Rm.n))
    rhat = pair_operator(Rm)
    return np.einsum("pa,ab,pb->p", w, rhat, w)


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


def min_sectional(Rm: AlgCurvTensor, opts: SearchOptions = SearchOptions()):
    """Minimal sectional curvature over all 2-planes; returns (value, Plane),
    the upper end of min_sectional_bracket."""
    _, upper, plane = min_sectional_bracket(Rm, opts)
    return upper, plane


def min_sectional_bracket(Rm: AlgCurvTensor, opts: SearchOptions = SearchOptions()):
    """(lower, upper, plane) with upper the sectional curvature of plane.

    Exact at n = 4: dual_min_sectional's bracket, and opts is not used.
    Other dimensions run search_min_sectional with opts; lower is None there,
    because a search gives only an upper bound.
    """
    if Rm.n == 4:
        return dual_min_sectional(Rm)
    return (None, *search_min_sectional(Rm, opts))


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
        z0 = np.concatenate([gx[p], gy[p]])
        res = minimize(lambda z: _quotient_and_grad(comp, z), z0, jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": opts.max_iters, "gtol": opts.tol * 1e-2,
                                "ftol": 1e-17})
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


# Hodge star on bivectors of R^4 in the pair_index basis (01, 02, 03, 12, 13,
# 23): *e01 = e23, *e02 = -e13, *e03 = e12.  <w, *w> = 2 (w01 w23 - w02 w13
# + w03 w12) is the Plucker quadric, which vanishes exactly on planes.
HODGE_STAR = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))
HODGE_STAR.setflags(write=False)

# Padding that turns the computed lambda_min(A), A = Rhat + t *, into a lower
# bound on the exact one.  With u the unit roundoff and Weyl's inequality
# |lambda_min(A + E) - lambda_min(A)| <= ||E||_2 <= ||E||_F, the errors are:
#   - a rational tensor's entries rounded to floats: u ||Rhat||_F;
#   - forming A (the entries of * are 0 and +-1, so t * is exact and each
#     entry of A takes one rounded addition): u ||A||_F;
#   - the symmetric eigensolver: the computed eigenvalues are exact for
#     A + E with ||E||_2 <= p(n) u ||A||_2 (LAPACK Users' Guide, 3rd ed.,
#     section 4.7), where p(n) is a modestly growing function of n;
#   - the two norms and the final subtraction: about 2 u ||A||_F.
# Their sum stays below ROUNDING_FACTOR u (||A||_F + ||Rhat||_F) as long as
# p(6) <= 33.  LAPACK states no value for p(n), so the bound is
# rounding-padded rather than proven.
ROUNDING_FACTOR = 36

# 2 * spread / 2**53 = eps * spread: the bisection's final width
BISECTIONS = 53


def dual_min_sectional(Rm: AlgCurvTensor):
    """Exact minimal sectional curvature in dimension four; returns the
    bracket (lower, upper, plane) with lower <= min Sec <= upper.

    Bisects the concave f(t) = lambda_min(Rhat + t *) on the sign of its
    supergradient v^T * v (v a bottom eigenvector).  The maximizer lies in
    |t| <= spread of Rhat's spectrum, because f(t) <= lambda_max - |t| and
    f(0) = lambda_min; BISECTIONS halvings leave an interval of width
    eps * spread, and f is 1-Lipschitz.  Every f(t) is a lower bound on min
    Sec; lower is the best computed f(t) less the rounding padding of
    ROUNDING_FACTOR.  plane is a
    unit decomposable bivector in the bottom eigenspace at that t, and upper
    is its sectional curvature.
    """
    if Rm.n != 4:
        raise ValueError(f"the dual solve needs n = 4, got n = {Rm.n}")
    rhat = pair_operator(Rm)
    if not np.isfinite(rhat).all():
        raise ValueError("curvature tensor has non-finite components")
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
    t, lam, vecs = best
    unit = np.finfo(float).eps / 2
    lower = lam[0] - ROUNDING_FACTOR * unit * (
        np.linalg.norm(rhat + t * HODGE_STAR) + np.linalg.norm(rhat))
    w = min(_null_bivectors(vecs), key=lambda b: b @ rhat @ b)
    plane = _plane_of(w)
    w = _bivector(plane.x[None, :], plane.y[None, :], pair_index(4))[0]
    return float(lower), float(w @ rhat @ w), plane


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


def _plane_of(w):
    """Orthonormal x, y with x ^ y = +-w for a (numerically) decomposable
    bivector w of R^4: they span the range of its antisymmetric matrix W,
    the top eigenspace of W^T W."""
    W = np.zeros((4, 4))
    for a, (i, j) in enumerate(pair_index(4)):
        W[i, j], W[j, i] = w[a], -w[a]
    _, vecs = np.linalg.eigh(W.T @ W)
    return Plane(vecs[:, 3].copy(), vecs[:, 2].copy())


def shift_to_pinching(Rm: AlgCurvTensor, eps, margin=0,
                      opts: SearchOptions = SearchOptions()) -> AlgCurvTensor:
    """Shift by a multiple of g^g so that Sec >= eps*R (+ margin slack).

    Solves min Sec(Rm') = eps R' for Rm' = Rm + (c/2) g^g, where both sides
    move with c:  sigma -> sigma + c  and  R -> R + n(n-1) c.
    """
    n = Rm.n
    require_subcritical(n, eps)
    min_sec, _ = min_sectional(Rm, opts)
    R = float(scalar(Rm))
    c = (float(eps) * R - min_sec) / (1 - float(eps) * n * (n - 1)) + float(margin)
    gg = kulkarni_nomizu(identity_metric(n, Rm.mode), identity_metric(n, Rm.mode))
    if Rm.mode == RATIONAL:
        half_c = Fraction(c) / 2  # exact dyadic conversion of the float shift
    else:
        half_c = c / 2.0
    return AlgCurvTensor(n, Rm.mode, Rm.comp + half_c * gg.comp)
