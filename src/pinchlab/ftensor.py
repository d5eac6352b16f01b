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

Each formula is written once.  A model is its arrays (S, w), projected only
in integers (integer_gradient_models), held as int64, Fractions or float64
and checked by check_gradient_constraints alone.  F is (1, a1, a2, b1, b2,
b3) times the six tensors of f_basis, for one model or a stack.  Q1 and Q2
are polynomial numerators over 1 + a1^2 + a2^2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import FLOAT, as_mode_array
from .scalars import ArithmeticModeError, exact_div, mode_of, scalar_to_json


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


def check_gradient_constraints(S, w):
    """Raise ValueError unless S is symmetric and traceless in (i, j) and
    satisfies the contracted Bianchi relation 2n sum_i S_iji = (n-2) w_j, for
    each model of the batch (the leading axes).  int64 and Fraction models are
    checked exactly, float64 ones up to 1e-12 max(1, max|S|); any other dtype,
    or a w of another dtype than S, raises ArithmeticModeError."""
    if w.dtype != S.dtype:
        raise ArithmeticModeError(f"S is {S.dtype} but w is {w.dtype}")
    n, tol = S.shape[-1], 0
    if S.dtype != np.int64 and mode_of(S) == FLOAT:
        tol = 1e-12 * max(1.0, float(np.abs(S).max(initial=0)))
    if (abs(S - S.swapaxes(-3, -2)) > tol).any():
        raise ValueError("S must be symmetric in (i, j)")
    if (abs(np.einsum("...iik->...k", S)) > tol).any():
        raise ValueError("S must be (i, j)-traceless")
    if (abs(2 * n * np.einsum("...iji->...j", S) - (n - 2) * w) > 2 * n * tol).any():
        raise ValueError("S violates the contracted Bianchi relation")


def integer_gradient_models(n, seeds):
    """Integer models (S, w), one per seed, as int64 stacks of shapes
    (len(seeds), n, n, n) and (len(seeds), n): the rational projection of
    one draw of n^3 + n integers in [-9, 9] per seed (S its first n^3
    entries, w the rest), with its denominators cleared.

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
    draws = np.empty((count, n ** 3 + n), dtype=np.int64)
    for k, seed in enumerate(seeds):
        draws[k] = np.random.default_rng(seed).integers(-9, 10, size=n ** 3 + n)
    S0 = draws[:, :n ** 3].reshape(count, n, n, n)
    w0 = draws[:, n ** 3:]
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


def sample_gradient_model(n, seed, mode=FLOAT):
    """Seeded random model (S, w), integer_gradient_models' model of the
    seed (so all three constraints hold exactly), as Fractions in rational
    mode and float64 in float mode (as_mode_array)."""
    S, w = integer_gradient_models(n, [seed])
    return as_mode_array(S[0], mode), as_mode_array(w[0], mode)


def f_basis(S, w):
    """The six tensors F combines, [S_ijk, S_ikj, S_jki, d_ij w_k, d_ik w_j,
    d_jk w_i], stacked on axis -4, for one model or a stack of models (the
    leading axes of S and w), in the models' own arithmetic.  f_tensor takes
    a combination of them; expansion_campaign only their Gram matrix, the
    inner products of each pair, from which |F|^2 follows for any
    coefficients."""
    eye = np.eye(S.shape[-1], dtype=np.int64)
    return np.stack([S, S.swapaxes(-2, -1), np.moveaxis(S, -1, -3),
                     eye[:, :, None] * w[..., None, None, :],
                     eye[:, None, :] * w[..., None, :, None],
                     eye[None, :, :] * w[..., :, None, None]], axis=-4)


def f_tensor(S, w, c: FCoefficients):
    """F_ijk = S_ijk + a1 S_ikj + a2 S_jki + b1 w_k d_ij + b2 w_j d_ik + b3 w_i d_jk,
    the coefficients (1, a1, a2, b1, b2, b3) times f_basis(S, w) of one checked model."""
    check_gradient_constraints(S, w)
    return np.tensordot((1, *c.astuple()), f_basis(S, w), axes=1)


def expansion_weights(a1, a2, b1, b2, b3, one=1):
    """(quadratic, mixing, bquad), the weights of the |F|^2 expansion
    (dimension four)

        |F|^2 = quadratic |S|^2 + mixing sum S_ijk S_ikj + (bquad / 2) |w|^2,

    each homogeneous of degree two in (one, a1, a2, b1, b2, b3): one = 1
    evaluates them on values (Fractions or floats), one = den on integer
    numerators over den (int64 vectors), which scales each by den^2.
    """
    quadratic = one * one + a1 * a1 + a2 * a2
    mixing = 2 * (one * a1 + one * a2 + a1 * a2)
    return quadratic, mixing, b_quadratic(a1, a2, b1, b2, b3, one)


def b_quadratic(a1, a2, b1, b2, b3, one=1):
    """bquad of expansion_weights, the |grad R|^2 coefficient block, alone."""
    return (a1 * (b1 + b3) + a2 * (b1 + b2) + one * (b2 + b3)
            + 8 * (b1 * b1 + b2 * b2 + b3 * b3)
            + 4 * (b1 * b2 + b1 * b3 + b2 * b3))


def f_norm_expansion(S, w, c: FCoefficients):
    """(direct, formula) for |F|^2 of a model (S, w) of dimension four; they
    agree exactly in rational mode.

    direct is the brute-force contraction sum F_ijk^2; formula is the
    three-term expansion of expansion_weights,
        (1 + a1^2 + a2^2) |S|^2 + 2 (a1 + a2 + a1 a2) sum S_ijk S_ikj
        + (1/2) * b_quadratic * |w|^2.
    """
    if len(S) != 4:
        raise ValueError("the expansion constants are dimension-four only")
    F = f_tensor(S, w, c)
    direct = np.einsum("ijk,ijk", F, F)
    s_sq = np.einsum("ijk,ijk", S, S)
    mixed = np.einsum("ijk,ikj", S, S)
    w_sq = np.einsum("j,j", w, w)
    quadratic, mixing, bquad = expansion_weights(*c.astuple())
    formula = quadratic * s_sq + mixing * mixed + exact_div(bquad, 2) * w_sq
    return direct, formula


# ---------------------------------------------------------------------------
# Q1, Q2 and the exact maximum of Q2
# ---------------------------------------------------------------------------

def _den(c: FCoefficients):
    """1 + a1^2 + a2^2, the denominator of q1 and q2."""
    return 1 + c.a1 * c.a1 + c.a2 * c.a2


def q1_numerator(c: FCoefficients):
    """(1 + a1^2 + a2^2) q1 = (a1 + a2 + a1 a2)/4 - b_quadratic, a polynomial."""
    return exact_div(c.a1 + c.a2 + c.a1 * c.a2, 4) - b_quadratic(*c.astuple())


def q2_numerator(c: FCoefficients, eps):
    """(1 + a1^2 + a2^2) q2, the quadratic polynomial
    q1_numerator - (1 - 16 eps)(1 + a1^2 + a2^2 + a1 + a2 + a1 a2)/2."""
    return q1_numerator(c) - exact_div(
        (1 - 16 * eps) * (_den(c) + c.a1 + c.a2 + c.a1 * c.a2), 2)


def q1(c: FCoefficients):
    """(a1+a2+a1a2)/(4(1+a1^2+a2^2)) - b_quadratic/(1+a1^2+a2^2)."""
    return q1_numerator(c) / _den(c)


def q2(c: FCoefficients, eps):
    """q1 minus (1 - 16 eps)(1 + a1^2 + a2^2 + a1 + a2 + a1 a2)/(2(1+a1^2+a2^2))."""
    return q2_numerator(c, eps) / _den(c)


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


def random_coefficients(count, seed, den=12):
    """Seeded rational coefficient vectors (denominator `den`), the reference
    point CLAIMED_POINT first."""
    rng = np.random.default_rng(seed)
    out = [CLAIMED_POINT]
    raw = rng.integers(-2 * den, 2 * den + 1, size=(count - 1, 5))
    for row in raw:
        out.append(FCoefficients(*(Fraction(int(v), den) for v in row)))
    return out


def _direct_side(S, w, coeff_matrix):
    """2 |c^T B|^2 for each model of the stack (S, w) (rows) and each row c
    of coeff_matrix (columns), B = f_basis(S, w) flattened to 6 x 64.  With
    G = B B^T its Gram matrix, |c^T B|^2 = c^T G c = sum_ij G_ij c_i c_j:
    one matmul forms G, a second takes its 36 entries against the products
    c_i c_j."""
    basis = f_basis(S, w).reshape(len(S), 6, 64)
    gram = (basis @ basis.swapaxes(1, 2)).reshape(len(S), 36)
    pairs = (coeff_matrix[:, :, None] * coeff_matrix[:, None, :]).reshape(-1, 36)
    return 2 * (gram @ pairs.T)


def expansion_campaign(model_count, coeff_count, seed):
    """Exact |F|^2 direct-vs-formula check over a rational campaign.

    The models are the integer (S, w) of integer_gradient_models (n = 4; the
    rational projection's common denominator 2n (n^2 + n - 2)^2 = 2592 is
    already cleared) and the coefficients have denominator 12, so both
    sides times 2 * 144 are integers, and zero residual is demanded.  F is
    never formed: with B the 6 x 64 matrix of f_basis(S, w) and c the
    coefficient numerators (12, 12 a1, ..., 12 b3), 144 |F|^2 = |c^T B|^2
    = c^T G c for the Gram matrix G = B B^T, exactly by bilinearity of the
    inner product (_direct_side), two int64 matmuls per block of models.
    No input can overflow it: entries below 70 * 2592 in S and 9 * 2592 in
    w and coefficient numerators in [-24, 24] keep every intermediate below
    2.3e16, whatever the seed and counts.  A Fraction-path spot check lives
    in the test suite.  model_count may be 0; coeff_count must be >= 1, the
    reference point CLAIMED_POINT being always the first coefficient vector.
    The models are drawn block by block, at most 80 at a time, so the
    campaign's memory does not grow with model_count.  timings holds the
    seconds spent drawing the coefficients and models and in the kernel,
    each summed over the blocks.
    """
    if model_count < 0:
        raise ValueError(f"model_count = {model_count} must be >= 0")
    if coeff_count < 1:
        raise ValueError(f"coeff_count = {coeff_count} must be >= 1: the reference "
                         "point is always the first coefficient vector")
    den = 12
    started = time.perf_counter()
    coeffs = random_coefficients(coeff_count, [seed, 999_331], den)
    a1, a2, b1, b2, b3 = np.array([[int(v * den) for v in c.astuple()] for c in coeffs],
                                  dtype=np.int64).reshape(-1, 5).T
    timings = {"draw": time.perf_counter() - started, "kernel": 0.0}
    coeff_matrix = np.stack([np.full_like(a1, den), a1, a2, b1, b2, b3], axis=1)
    # den^2 times each weight
    quadratic, mixing, bquad = expansion_weights(a1, a2, b1, b2, b3, one=den)
    worst, failures = 0, []
    # models per block: the basis (3 kB a model) and each (models, coeffs) array stay <= 256 kB
    block = max(1, min(80, 32_768 // len(coeffs)))
    for lo in range(0, model_count, block):
        started = time.perf_counter()
        Sb, wb = integer_gradient_models(
            4, [[seed, idx] for idx in range(lo, min(lo + block, model_count))])
        drawn = time.perf_counter()
        timings["draw"] += drawn - started
        direct2 = _direct_side(Sb, wb, coeff_matrix)       # 2 den^2 |F|^2
        formula2 = (2 * ((Sb * Sb).sum(axis=(1, 2, 3))[:, None] * quadratic
                         + (Sb * Sb.transpose(0, 1, 3, 2)).sum(axis=(1, 2, 3))[:, None] * mixing)
                    + (wb * wb).sum(axis=1)[:, None] * bquad)
        residual = direct2 - formula2
        worst = max(worst, int(np.abs(residual).max(initial=0)))
        bad = residual != 0
        failures += [{"model": lo + int(idx), "coeff": coeffs[b].as_dict()}
                     for idx in np.nonzero(bad.any(axis=1))[0]
                     for b in np.nonzero(bad[idx])[0][:5]]
        timings["kernel"] += time.perf_counter() - drawn
    return {
        "modelCount": model_count,
        "coeffCount": coeff_count,
        "seed": seed,
        "maxResidualNumerator": worst,
        "violations": failures,
        "exact": not failures,
        "timings": timings,
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
    "point", "line" or "constant" (at eps = Q2_CROSSOVER), and `form` the
    (alpha, beta) of q2_form it was read off."""

    def __new__(cls, argmax, value, branch, form):
        self = super().__new__(cls, (argmax, value))
        self.branch, self.form = branch, form
        return self


def optimize_q2(eps) -> Q2Maximum:
    """Exact global maximum of Q2: Q2Maximum(FCoefficients argmax, value).

    Over b the maximum is at optimal_b; then Q2 = z^T N z / |z|^2 (q2_form),
    and z^T N z = alpha |z|^2 + beta (1.z)^2 <= (alpha + 3 max(beta, 0)) |z|^2.
    The bound is attained at z ~ (1, 1, 1), the reference point, if beta > 0;
    on 1.z = 0, the line a1 + a2 = -1 (represented by a1 = a2 = -1/2), if
    beta < 0; and everywhere if beta = 0 (represented by the reference point).
    """
    alpha, beta = form = q2_form(eps)
    value = alpha + 3 * max(beta, 0)
    if beta < 0:
        half = Fraction(-1, 2)
        return Q2Maximum(FCoefficients(half, half, *optimal_b(half, half)), value, "line",
                         form)
    return Q2Maximum(CLAIMED_POINT, value, "point" if beta > 0 else "constant", form)
