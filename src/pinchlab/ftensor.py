"""The auxiliary three-tensor F, its squared-norm expansion, and the
rational functions Q1/Q2.  The global maximum of Q2 is computed exactly, not
searched: after the exact inner solve over b, Q2 is a Rayleigh quotient of
a 3x3 matrix of the form alpha I + beta J, whose maximum is read off in
closed form.

The gradient data (S, w) modelling (grad of traceless Ricci, grad of scalar
curvature) is free pointwise data subject only to three linear constraints:
symmetry of S in its first two slots, tracelessness there, and the contracted
second-Bianchi relation sum_i S_iji = ((n-2)/(2n)) w_j.  Everything downstream
is dimension-four: the 1/4 Bianchi constant and the coefficients 8 and 4 of
the b-quadratic are specific to n = 4 and other dimensions are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import FLOAT, RATIONAL, check_mode, identity_metric
from .scalars import exact_div, scalar_to_json


@dataclass(frozen=True)
class FCoefficients:
    """The five parameters (a1, a2, b1, b2, b3) of the auxiliary tensor."""

    a1: object = 0
    a2: object = 0
    b1: object = 0
    b2: object = 0
    b3: object = 0

    def sign_condition(self):
        """a1 + a2 + a1*a2 >= 0, required where the cubic term is dropped."""
        return self.a1 + self.a2 + self.a1 * self.a2 >= 0

    def astuple(self):
        return (self.a1, self.a2, self.b1, self.b2, self.b3)

    def as_dict(self):
        return {k: scalar_to_json(v) for k, v in
                zip(("a1", "a2", "b1", "b2", "b3"), self.astuple())}


CLAIMED_POINT = FCoefficients(Fraction(1), Fraction(1), Fraction(-1, 12),
                            Fraction(-1, 12), Fraction(-1, 12))
# reference point of Q2: stationary with value (48 eps - 2)/3 for every eps;
# the global maximizer only for eps >= 1/36 (below it the line a1 + a2 = -1,
# with value 4 eps - 1/3, is higher; at eps = 1/36 Q2 is constant at -2/9)


def bianchi_constant(n):
    """Contracted second Bianchi: sum_i S_iji = ((n-2)/(2n)) w_j; 1/4 at n=4."""
    return Fraction(n - 2, 2 * n)


def check_gradient_constraints(S, w, tol=0):
    """Raise ValueError unless S is symmetric and traceless in (i, j) and
    satisfies the contracted Bianchi relation, written without a fraction as
    2n sum_i S_iji = (n-2) w_j, up to tol.  Leading axes are a batch of
    models; integer or Fraction input is checked exactly with tol = 0."""
    n = S.shape[-1]
    if (abs(S - S.swapaxes(-3, -2)) > tol).any():
        raise ValueError("S must be symmetric in (i, j)")
    if (abs(np.einsum("...iik->...k", S)) > tol).any():
        raise ValueError("S must be (i, j)-traceless")
    if (abs(2 * n * np.einsum("...iji->...j", S) - (n - 2) * w) > 2 * n * tol).any():
        raise ValueError("S violates the contracted Bianchi relation")


@dataclass(frozen=True)
class GradientModel:
    """Synthetic (S, w) pair: S_ijk models grad_k oRic_ij, w models grad R."""

    n: int
    mode: str
    S: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        check_mode(self.mode)
        tol = 0 if self.mode == RATIONAL else 1e-12 * max(
            1.0, float(np.abs(np.asarray(self.S, dtype=float)).max()))
        check_gradient_constraints(self.S, self.w, tol)
        self.S.setflags(write=False)
        self.w.setflags(write=False)


def integer_gradient_models(n, seeds):
    """Integer models (S, w), one per seed, as int64 stacks of shapes
    (len(seeds), n, n, n) and (len(seeds), n): the rational projection of
    integer draws in [-9, 9] (S first, then w), with its denominators cleared.

    The projection runs in integers over the fixed common denominator
    X = 2n (n^2 + n - 2)^2: it forms X times each step of symmetrizing in
    (i, j), removing the (i, j)-trace and adding the unique correction
    d_ik v_j + d_jk v_i - (2/n) d_ij v_k that fixes the Bianchi contraction,
    and every division on the way is exact.  Each model is then divided by
    the gcd of X and its entries, the least factor that clears the
    denominators of the rational projection (the constraints are
    homogeneous in (S, w), so scaling preserves them).  Entries of S stay
    below 70 X and those of w at most 9 X in magnitude, far inside int64;
    the constraints are checked exactly afterwards.
    """
    count = len(seeds)
    S0 = np.empty((count, n, n, n), dtype=np.int64)
    w0 = np.empty((count, n), dtype=np.int64)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        S0[k] = rng.integers(-9, 10, size=n ** 3).reshape(n, n, n)
        w0[k] = rng.integers(-9, 10, size=n)
    h = n * n + n - 2
    X = 2 * n * h * h
    eye = np.eye(n, dtype=np.int64)
    # X times the symmetrized S less its trace part; X/2 = n h^2, X/n = 2 h^2
    S = (n * h * h * (S0 + S0.swapaxes(1, 2))
         - 2 * h * h * np.einsum("ij,mk->mijk", eye, np.einsum("miik->mk", S0)))
    # X u = X (c w - sum_i S_iji) with c = (n-2)/(2n) is a multiple of h^2,
    # and v = n u / h, so t = X u / h = X v / n is an integer
    t = ((n - 2) * h * h * w0 - np.einsum("miji->mj", S)) // h
    S += (n * (np.einsum("ik,mj->mijk", eye, t) + np.einsum("jk,mi->mijk", eye, t))
          - 2 * np.einsum("ij,mk->mijk", eye, t))
    w = X * w0
    g = np.gcd.reduce(np.concatenate(
        [S.reshape(count, n ** 3), w, np.full((count, 1), X)], axis=1), axis=1)
    S //= g[:, None, None, None]
    w //= g[:, None]
    check_gradient_constraints(S, w)
    return S, w


def _as_fractions(values):
    return np.array([Fraction(v) for v in values.reshape(-1).tolist()],
                    dtype=object).reshape(values.shape)


def sample_gradient_model(n, seed, mode=FLOAT) -> GradientModel:
    """Seeded random model satisfying all three constraints exactly.

    Projection order: symmetrize in (i, j), remove the (i, j)-trace, then add
    the unique correction of the form  d_ik v_j + d_jk v_i - (2/n) d_ij v_k
    fixing the Bianchi contraction.  Rational mode is the integer model of
    integer_gradient_models (exact over the common denominator
    2n (n^2 + n - 2)^2, then scaled to clear it) with Fraction entries; float
    mode projects standard-normal draws in float64.
    """
    if mode == RATIONAL:
        S, w = integer_gradient_models(n, [seed])
        return GradientModel(n, mode, _as_fractions(S[0]), _as_fractions(w[0]))
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n, n))
    w = rng.standard_normal(n)
    inv_n = 1.0 / n
    S = (S + S.transpose(1, 0, 2)) * 0.5
    tr = np.einsum("iik->k", S)
    eye = identity_metric(n, mode).comp
    S = S - inv_n * np.einsum("ij,k->ijk", eye, tr)
    u = float(bianchi_constant(n)) * w - np.einsum("iji->j", S)
    # correction family B_ijk = d_ik v_j + d_jk v_i - (2/n) d_ij v_k has
    # sum_i B_iji = (n + 1 - 2/n) v_j
    v = u / (n + 1 - 2.0 / n)
    B = (np.einsum("ik,j->ijk", eye, v) + np.einsum("jk,i->ijk", eye, v)
         - (2 * inv_n) * np.einsum("ij,k->ijk", eye, v))
    return GradientModel(n, mode, S + B, w)


def f_tensor(m: GradientModel, c: FCoefficients):
    """F_ijk = S_ijk + a1 S_ikj + a2 S_jki + b1 w_k d_ij + b2 w_j d_ik + b3 w_i d_jk."""
    eye = identity_metric(m.n, m.mode).comp
    return (m.S + c.a1 * m.S.transpose(0, 2, 1) + c.a2 * m.S.transpose(2, 0, 1)
            + c.b1 * np.einsum("ij,k->ijk", eye, m.w)
            + c.b2 * np.einsum("ik,j->ijk", eye, m.w)
            + c.b3 * np.einsum("jk,i->ijk", eye, m.w))


def b_quadratic(c: FCoefficients):
    """The |grad R|^2 coefficient block of the expansion (dimension four):

        a1 (b1 + b3) + a2 (b1 + b2) + b2 + b3
        + 8 (b1^2 + b2^2 + b3^2) + 4 (b1 b2 + b1 b3 + b2 b3).
    """
    a1, a2, b1, b2, b3 = c.astuple()
    return (a1 * (b1 + b3) + a2 * (b1 + b2) + b2 + b3
            + 8 * (b1 * b1 + b2 * b2 + b3 * b3)
            + 4 * (b1 * b2 + b1 * b3 + b2 * b3))


def f_norm_expansion(m: GradientModel, c: FCoefficients):
    """(direct, formula) for |F|^2; they agree exactly in rational mode.

    direct is the brute-force contraction sum F_ijk^2; formula is the
    three-term expansion
        (1 + a1^2 + a2^2) |S|^2 + 2 (a1 + a2 + a1 a2) sum S_ijk S_ikj
        + (1/2) * b_quadratic * |w|^2.
    """
    if m.n != 4:
        raise ValueError("the expansion constants are dimension-four only")
    F = f_tensor(m, c)
    direct = np.einsum("ijk,ijk", F, F)
    s_sq = np.einsum("ijk,ijk", m.S, m.S)
    mixed = np.einsum("ijk,ikj", m.S, m.S)
    w_sq = np.einsum("j,j", m.w, m.w)
    a1, a2 = c.a1, c.a2
    formula = ((1 + a1 * a1 + a2 * a2) * s_sq
               + 2 * (a1 + a2 + a1 * a2) * mixed
               + exact_div(b_quadratic(c), 2) * w_sq)
    return direct, formula


# ---------------------------------------------------------------------------
# Q1, Q2 and the exact maximum of Q2
# ---------------------------------------------------------------------------

def q1(c: FCoefficients):
    """(a1+a2+a1a2)/(4(1+a1^2+a2^2)) - b_quadratic/(1+a1^2+a2^2)."""
    a1, a2 = c.a1, c.a2
    den = 1 + a1 * a1 + a2 * a2
    return exact_div(a1 + a2 + a1 * a2, 4) / den - b_quadratic(c) / den


def q2(c: FCoefficients, eps):
    """q1 minus (1 - 16 eps)(1 + a1^2 + a2^2 + a1 + a2 + a1 a2)/(2(1+a1^2+a2^2))."""
    a1, a2 = c.a1, c.a2
    den = 1 + a1 * a1 + a2 * a2
    return q1(c) - exact_div((1 - 16 * eps) * (den + a1 + a2 + a1 * a2), 2) / den


def q2_claimed_value(eps):
    """Value of Q2 at the reference point CLAIMED_POINT: (48 eps - 2)/3.

    This is sup Q2 only for eps >= 1/36; below, sup Q2 = 4 eps - 1/3.
    """
    return exact_div(48 * eps - 2, 3)


def s_coefficient(a1, a2, s):
    """2((3-4s)(1+a1^2+a2^2) + 4(1-s)(a1+a2+a1a2)) / (1+a1^2+a2^2).

    The cubic-term weight after the convex combination; equals 2(7-8s) at
    a1 = a2 = 1 and vanishes at s = 7/8 there.
    """
    den = 1 + a1 * a1 + a2 * a2
    return exact_div(2 * ((3 - 4 * s) * den + 4 * (1 - s) * (a1 + a2 + a1 * a2)), 1) / den


def optimal_b(a1, a2):
    """Unique maximizer of Q1 over (b1, b2, b3) at fixed (a1, a2).

    The b-block is a strictly concave quadratic (form -(8 I + 4 offdiag), with
    8I + 4 offdiag positive definite); stationarity is the linear system

        16 b1 + 4 b2 + 4 b3 = -(a1 + a2)
        4 b1 + 16 b2 + 4 b3 = -(a2 + 1)
        4 b1 + 4 b2 + 16 b3 = -(a1 + 1)

    solved exactly (Cramer) for rational input.
    """
    rhs = (-(a1 + a2), -(a2 + 1), -(a1 + 1))
    # A = 12 I + 4 J (J all-ones): A^{-1} = (1/12)(I - (4/(12+12)) J) = (1/12) I - (1/72) J
    total = sum(rhs)
    return tuple(exact_div(r, 12) - exact_div(total, 72) for r in rhs)


def grad_q2(c: FCoefficients, eps):
    """Gradient of q2 in (a1, a2, b1, b2, b3), exact for rational input.

    With den = 1 + a1^2 + a2^2 and P = den * q2 (a polynomial), the quotient
    rule gives dq2/dx = (dP/dx - q2 * dden/dx) / den.
    """
    a1, a2, b1, b2, b3 = c.astuple()
    den = 1 + a1 * a1 + a2 * a2
    value = q2(c, eps)
    damp = 1 - 16 * eps
    dP = (exact_div(1 + a2, 4) - (b1 + b3) - exact_div(damp * (2 * a1 + 1 + a2), 2),
          exact_div(1 + a1, 4) - (b1 + b2) - exact_div(damp * (2 * a2 + 1 + a1), 2),
          -(a1 + a2 + 16 * b1 + 4 * (b2 + b3)),
          -(a2 + 1 + 16 * b2 + 4 * (b1 + b3)),
          -(a1 + 1 + 16 * b3 + 4 * (b1 + b2)))
    dden = (2 * a1, 2 * a2, 0, 0, 0)
    return tuple((p - value * d) / den for p, d in zip(dP, dden))


def eps_factor_gradient(a1, a2):
    """Gradient of the eps-multiplied factor
    (1+a1^2+a2^2+a1+a2+a1a2)/(1+a1^2+a2^2), exact for rational input; it
    vanishes at (1, 1), which is why the reference point stays stationary for
    every eps."""
    den = 1 + a1 * a1 + a2 * a2
    fac = (den + a1 + a2 + a1 * a2) / den
    return ((2 * a1 + 1 + a2 - fac * 2 * a1) / den,
            (2 * a2 + 1 + a1 - fac * 2 * a2) / den)


def random_coefficients(count, seed, den=12):
    """Seeded rational coefficient vectors (denominator `den`), the reference
    point CLAIMED_POINT first."""
    rng = np.random.default_rng(seed)
    out = [CLAIMED_POINT]
    raw = rng.integers(-2 * den, 2 * den + 1, size=(count - 1, 5))
    for row in raw:
        out.append(FCoefficients(*(Fraction(int(v), den) for v in row)))
    return out


def expansion_campaign(model_count, coeff_count, seed):
    """Exact |F|^2 direct-vs-formula check over a rational campaign.

    The models are the integer (S, w) of integer_gradient_models (n = 4; the
    rational projection's common denominator 2n (n^2 + n - 2)^2 = 2592 is
    already cleared) and the coefficients have denominator 12, so both
    sides times 2 * 144 are integers, and zero residual is demanded.  The
    check runs vectorized in int64 over coefficients and blocks of models.
    No input can overflow it: entries below 70 * 2592 in S and 9 * 2592 in
    w and coefficient numerators in [-24, 24] keep every intermediate below
    4e16, whatever the seed and counts.  A Fraction-path spot check lives
    in the test suite.
    """
    den = 12
    coeffs = random_coefficients(coeff_count, [seed, 999_331], den)
    a1, a2, b1, b2, b3 = np.array([[int(v * den) for v in c.astuple()] for c in coeffs],
                                  dtype=np.int64).reshape(-1, 5).T
    S, w = integer_gradient_models(4, [[seed, idx] for idx in range(model_count)])
    eye = np.eye(4, dtype=np.int64)
    coeff_matrix = np.stack([np.full_like(a1, den), a1, a2, b1, b2, b3], axis=1)
    quadratic = 2 * (den * den + a1 ** 2 + a2 ** 2)
    mixing = 4 * (den * a1 + den * a2 + a1 * a2)
    bquad = (a1 * (b1 + b3) + a2 * (b1 + b2) + den * (b2 + b3)
             + 8 * (b1 ** 2 + b2 ** 2 + b3 ** 2)
             + 4 * (b1 * b2 + b1 * b3 + b2 * b3))
    worst, failures = 0, []
    block = max(1, 1024 // len(coeffs))     # models per block: den F stays <= 512 kB
    for lo in range(0, model_count, block):
        Sb, wb = S[lo:lo + block], w[lo:lo + block]
        # den F = coeff_matrix @ basis, the six tensors F combines, flattened
        basis = np.stack([Sb, Sb.transpose(0, 1, 3, 2), Sb.transpose(0, 3, 1, 2),
                          eye[None, :, :, None] * wb[:, None, None, :],
                          eye[None, :, None, :] * wb[:, None, :, None],
                          eye[None, None, :, :] * wb[:, :, None, None]],
                         axis=1).reshape(len(Sb), 6, 64)
        F = coeff_matrix @ basis
        direct2 = 2 * np.einsum("mcx,mcx->mc", F, F)       # 2 den^2 |F|^2
        formula2 = ((Sb * Sb).sum(axis=(1, 2, 3))[:, None] * quadratic
                    + (Sb * Sb.transpose(0, 1, 3, 2)).sum(axis=(1, 2, 3))[:, None] * mixing
                    + (wb * wb).sum(axis=1)[:, None] * bquad)
        residual = direct2 - formula2
        worst = max(worst, int(np.abs(residual).max(initial=0)))
        bad = residual != 0
        failures += [{"model": lo + int(idx), "coeff": coeffs[b].as_dict()}
                     for idx in np.nonzero(bad.any(axis=1))[0]
                     for b in np.nonzero(bad[idx])[0][:5]]
    return {
        "modelCount": model_count,
        "coeffCount": coeff_count,
        "seed": seed,
        "maxResidualNumerator": worst,
        "violations": failures,
        "exact": not failures,
    }


Q2_CROSSOVER = Fraction(1, 36)   # where beta(eps) of q2_form changes sign


def q2_form(eps):
    """Exact (alpha, beta) with (1 + a1^2 + a2^2) Q2(a1, a2, optimal_b(a1, a2))
    = z^T (alpha I + beta J) z, z = (1, a1, a2), J the all-ones matrix.

    The left side is a polynomial of degree <= 2 (optimal_b is affine), so it
    is z^T N z for one symmetric N, read off by polarization at six points.
    Raises ValueError unless N = alpha I + beta J (alpha = 4 eps - 1/3,
    beta = 4 eps - 1/9)."""
    eps = Fraction(eps)

    def f(a1, a2):
        return (1 + a1 * a1 + a2 * a2) * q2(FCoefficients(a1, a2, *optimal_b(a1, a2)), eps)

    n00 = f(0, 0)
    n01, n11 = (f(1, 0) - f(-1, 0)) / 4, (f(1, 0) + f(-1, 0)) / 2 - n00
    n02, n22 = (f(0, 1) - f(0, -1)) / 4, (f(0, 1) + f(0, -1)) / 2 - n00
    n12 = (f(1, 1) - n00 - 2 * n01 - 2 * n02 - n11 - n22) / 2
    if n01 != n02 or n01 != n12 or n00 != n11 or n00 != n22:
        raise ValueError(f"N({eps}) is not of the form alpha I + beta J")
    return n00 - n01, n01


class Q2Maximum(tuple):
    """(argmax, value), with `branch` naming where the maximum is attained:
    "point", "line" or "constant" (at eps = Q2_CROSSOVER)."""

    def __new__(cls, argmax, value, branch):
        self = super().__new__(cls, (argmax, value))
        self.branch = branch
        return self


def optimize_q2(eps) -> Q2Maximum:
    """Exact global maximum of Q2: Q2Maximum(FCoefficients argmax, value).

    Over b the maximum is at optimal_b; then Q2 = z^T N z / |z|^2 (q2_form),
    and z^T N z = alpha |z|^2 + beta (1.z)^2 <= (alpha + 3 max(beta, 0)) |z|^2.
    The bound is attained at z ~ (1, 1, 1), the reference point, if beta > 0;
    on 1.z = 0, the line a1 + a2 = -1 (represented by a1 = a2 = -1/2), if
    beta < 0; and everywhere if beta = 0 (represented by the reference point).
    """
    alpha, beta = q2_form(eps)
    value = alpha + 3 * max(beta, 0)
    if beta < 0:
        half = Fraction(-1, 2)
        return Q2Maximum(FCoefficients(half, half, *optimal_b(half, half)), value, "line")
    return Q2Maximum(CLAIMED_POINT, value, "point" if beta > 0 else "constant")
