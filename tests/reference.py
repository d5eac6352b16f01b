"""Helpers that only the tests use, and the reference implementations they
check pinchlab against: those on curvature tensors are written on the n^4
components R_ijkl, apart from pinchlab's operator code.
"""

from fractions import Fraction

import numpy as np

from pinchlab import minsec
from pinchlab.curvature import AlgCurvTensor, Plane, bivector, pair_basis, plane_sectionals_stack
from pinchlab.ftensor import FCoefficients, _den, q2, q2_numerator
from pinchlab.minsec import SearchOptions, _orthonormal_pairs
from pinchlab.models import ModelGeometry
from pinchlab.scalars import RATIONAL, ArithmeticModeError, check_mode, exact_div, mode_of


def bianchi_constant(n):
    """Contracted second Bianchi: sum_i S_iji = ((n-2)/(2n)) w_j; 1/4 at n=4."""
    return Fraction(n - 2, 2 * n)


# ---------------------------------------------------------------------------
# The min-Sec oracle, independent of the 4-form dual that pinchlab solves: a
# Halton grid scored on the operator, then L-BFGS on the n^4 components, and
# dense sampling
# ---------------------------------------------------------------------------

class MinSectionalError(RuntimeError):
    """No refinement start converged; carries grid diagnostics."""


def pair_operator(Rm: AlgCurvTensor) -> np.ndarray:
    """Rhat[a, b] = R_{i_a j_a i_b j_b} over the bivector pair basis, in float."""
    return np.asarray(Rm.rhat, dtype=float)


def plane_sectionals(Rm: AlgCurvTensor, x, y):
    """Sectional curvatures w^T Rhat w of the planes spanned by the
    orthonormal rows of x and y, w = x ^ y in the pair basis."""
    return plane_sectionals_stack(pair_operator(Rm)[None], x[None], y[None])[0]


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


def _descend(comp, z0, opts: SearchOptions):
    """One L-BFGS descent of the sectional-curvature quotient from
    z0 = (u, v); returns scipy's result, reached through minsec.minimize."""
    return minsec.minimize(lambda z: _quotient_and_grad(comp, z), z0, jac=True,
                           method="L-BFGS-B",
                           options={"maxiter": opts.max_iters, "gtol": opts.tol * 1e-2,
                                    "ftol": 1e-17})


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

    comp = np.asarray(Rm.components(), dtype=float)
    best_val, best_z = np.inf, None
    for p in order:
        res = _descend(comp, np.concatenate([gx[p], gy[p]]), opts)
        if (res.success or res.fun <= values[p] + opts.tol) and res.fun < best_val:
            best_val, best_z = res.fun, res.x
    if best_z is None:
        raise MinSectionalError(
            f"no refinement start converged ({opts.refine_starts} starts, "
            f"max_iters={opts.max_iters}); grid min {values.min()} over {count} planes")
    x, y = _orthonormal_pairs(best_z[None, :], Rm.n)
    plane = Plane(x[0], y[0])
    w = bivector(x, y)[0]
    return float(w @ pair_operator(Rm) @ w), plane


def oracle_min_sectional(m: ModelGeometry, count=10 ** 6, seed=0):
    """Independent dense-sampling estimate of min Sec (upper bound)."""
    return float(sample_sectionals(m.Rm, count, seed).min())


def lower_estimate1(monkeypatch, delta):
    """Patch pinchlab.profiles.estimate_coefficients so that the estimate-1
    quadratic coefficient is lowered by delta, in the arithmetic of eps: a
    corrupted estimate that every lane must report as violated."""
    from pinchlab import profiles
    true = profiles.estimate_coefficients

    def lowered(n, eps):
        (weight1, quadratic1, cubic1), estimate2 = true(n, eps)
        return (weight1, quadratic1 - delta * eps ** 0, cubic1), estimate2

    monkeypatch.setattr(profiles, "estimate_coefficients", lowered)


def join_modes(*modes):
    """The one mode of modes; ArithmeticModeError if they are mixed."""
    modes = {check_mode(m) for m in modes}
    if len(modes) != 1:
        raise ArithmeticModeError("mixed-mode operation rejected: " + ", ".join(sorted(modes)))
    return modes.pop()


def kulkarni_nomizu(a, b):
    """The components (a ^ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il
    of two symmetric (n, n) arrays."""
    if a.shape != b.shape:
        raise ValueError("dimension mismatch in Kulkarni-Nomizu product")
    join_modes(mode_of(a), mode_of(b))
    return (np.einsum("ik,jl->ijkl", a, b) + np.einsum("jl,ik->ijkl", a, b)
            - np.einsum("il,jk->ijkl", a, b) - np.einsum("jk,il->ijkl", a, b))


def operator_of(comp):
    """The curvature operator R_{i_a j_a i_b j_b} of n^4 components."""
    i, j, _ = pair_basis(comp.shape[-1])
    return comp[..., i[:, None], j[:, None], i, j]


def n4_residuals(comp):
    """max |residual| of each symmetry of an algebraic curvature tensor, over
    the n^4 components comp (exact for Fractions)."""
    c = comp
    residuals = {
        "antisymmetry R_ijkl = -R_jikl": c + c.transpose(1, 0, 2, 3),
        "antisymmetry R_ijkl = -R_ijlk": c + c.transpose(0, 1, 3, 2),
        "pair symmetry R_ijkl = R_klij": c - c.transpose(2, 3, 0, 1),
        "first Bianchi identity": c + c.transpose(0, 2, 3, 1) + c.transpose(0, 3, 1, 2),
    }
    return {what: max(abs(v) for v in r.reshape(-1)) for what, r in residuals.items()}


def from_pairs(M, n):
    """T_ijkl = s_ij s_kl M[p_ij, p_kl], s_ij = sign(j - i), read from the
    upper triangle of each symmetric operator of the stack M (k, m, m)."""
    first, _, p = pair_basis(n)
    i, j = np.ogrid[:n, :n]
    s = np.sign(j - i)
    a, b = p[:, :, None, None], p
    index = np.minimum(a, b) * len(first) + np.maximum(a, b)
    sign = s[:, :, None, None] * s
    return sign * M.reshape(*M.shape[:-2], M.shape[-2] * M.shape[-1])[..., index]


def n4_bianchi_projection(M, n):
    """The n^4 projection onto the first Bianchi identity of each operator of
    the stack M (k, m, m): T minus its cyclic average, in M's arithmetic,
    rebuilt from its generating entries (the upper triangle).  The operators
    of the result."""
    T = from_pairs(M, n)
    cyc = T + T.transpose(0, 1, 3, 4, 2) + T.transpose(0, 1, 4, 2, 3)
    comp = T - (cyc * Fraction(1, 3) if mode_of(M) == RATIONAL else cyc / 3.0)
    return operator_of(from_pairs(operator_of(comp), n))


def grad_q2(c: FCoefficients, eps):
    """Gradient of q2 in (a1, a2, b1, b2, b3), exact for rational input.

    With den = 1 + a1^2 + a2^2 and v = q2(c, eps), the polynomial
    G = q2_numerator - v * den vanishes at c and is quadratic, so its
    partials are the central differences (G(c + e) - G(c - e)) / 2 along the
    unit vectors e, exactly; by the quotient rule dq2/dx = (dG/dx) / den.
    """
    x = c.astuple()
    value = q2(c, eps)

    def g(k, step):
        y = FCoefficients(*x[:k], x[k] + step, *x[k + 1:])
        return q2_numerator(y, eps) - value * _den(y)

    den = _den(c)
    return tuple(exact_div(g(k, 1) - g(k, -1), 2) / den for k in range(5))
