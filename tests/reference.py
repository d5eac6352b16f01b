"""Helpers that only the tests use, and the reference implementations they
check pinchlab against: those on curvature tensors are written on the n^4
components R_ijkl, apart from pinchlab's operator code.
"""

from fractions import Fraction

import numpy as np

from pinchlab.curvature import SymTensor2, pair_basis
from pinchlab.minsec import sample_sectionals
from pinchlab.models import ModelGeometry
from pinchlab.scalars import RATIONAL, ArithmeticModeError, check_mode, mode_of


def bianchi_constant(n):
    """Contracted second Bianchi: sum_i S_iji = ((n-2)/(2n)) w_j; 1/4 at n=4."""
    return Fraction(n - 2, 2 * n)


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


def kulkarni_nomizu(h: SymTensor2, k: SymTensor2):
    """The components (h ^ k)_ijkl = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il."""
    if h.n != k.n:
        raise ValueError("dimension mismatch in Kulkarni-Nomizu product")
    join_modes(h.mode, k.mode)
    a, b = h.comp, k.comp
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
