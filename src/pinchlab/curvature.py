"""Algebra of pointwise algebraic curvature tensors in an orthonormal frame.

Everything here is pointwise linear algebra: the frame is orthonormal, so the
metric is the identity and no index raising/lowering ever happens.  The sign
convention is fixed so that the constant-curvature-kappa tensor has sectional
curvature kappa on every plane and sigma_ij = R_ijij on coordinate planes;
the round sphere is positively curved.

Two arithmetic modes are supported: exact Fractions ("rational") for identity
checks and float64 ("float") for sampling and optimization campaigns.  A
tensor's dimension and mode are those of its component array (mode_of), and
mixed-mode operations are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

import numpy as np

from .scalars import (
    FLOAT,
    RATIONAL,
    ArithmeticModeError,
    check_mode,
    join_modes,
    mode_of,
    scalar_to_json,
)

SYMMETRY_RTOL = 1e-14   # float mode; rational mode symmetries must hold exactly
PLANE_TOL = 1e-12


class SymmetryError(ValueError):
    """Component array violates a curvature-tensor symmetry."""


class PlaneError(ValueError):
    """Plane vectors are not orthonormal within tolerance."""


def zeros(shape, mode):
    check_mode(mode)
    if mode == RATIONAL:
        a = np.empty(shape, dtype=object)
        a[...] = Fraction(0)
        return a
    return np.zeros(shape)


def as_mode_array(values, mode):
    check_mode(mode)
    if mode == RATIONAL:
        a = np.empty(np.shape(values), dtype=object)
        flat = a.reshape(-1)
        src = np.asarray(values, dtype=object).reshape(-1)
        for idx, v in enumerate(src):
            flat[idx] = v if isinstance(v, Fraction) else Fraction(v)
        return a
    return np.asarray(values, dtype=float)


# The symmetries each tensor of a stack must have, by the stack's ndim: a
# stack (k, n, n) of symmetric 2-tensors or (k, n, n, n, n) of curvature
# tensors.  Each residual vanishes exactly when its symmetry holds.
_SYMMETRIES = {
    3: (("symmetry S_ij = S_ji", lambda c: c - c.transpose(0, 2, 1)),),
    5: (("antisymmetry R_ijkl = -R_jikl", lambda c: c + c.transpose(0, 2, 1, 3, 4)),
        ("antisymmetry R_ijkl = -R_ijlk", lambda c: c + c.transpose(0, 1, 2, 4, 3)),
        ("pair symmetry R_ijkl = R_klij", lambda c: c - c.transpose(0, 3, 4, 1, 2)),
        ("first Bianchi identity",
         lambda c: c + c.transpose(0, 1, 3, 4, 2) + c.transpose(0, 1, 4, 2, 3))),
}


def check_symmetries(comp):
    """Raise SymmetryError unless every tensor of the stack comp has the
    _SYMMETRIES of its shape: a stack (k, n, n) must be symmetric, a stack
    (k, n, n, n, n) antisymmetric in its first and its last index pair, pair
    symmetric and satisfy the first Bianchi identity.  They hold exactly in
    rational mode, else up to SYMMETRY_RTOL times max(1, the tensor's
    largest component).  The error names the first failing tensor's index."""
    axes = tuple(range(1, comp.ndim))
    tol = (np.zeros(len(comp), dtype=object) if mode_of(comp) == RATIONAL
           else SYMMETRY_RTOL * np.maximum(1.0, np.abs(comp).max(axis=axes, initial=0)))
    for what, residual in _SYMMETRIES[comp.ndim]:
        worst = np.abs(residual(comp)).max(axis=axes, initial=0)
        bad = np.nonzero(worst > tol)[0]
        if len(bad):
            k = bad[0]
            raise SymmetryError(f"tensor {k}: {what} violated: residual {worst[k]} "
                                f"> tol {tol[k]}")


class _Tensor:
    """A tensor whose dimension n and arithmetic mode are read from its
    component array comp, of ORDER axes of one length n >= MIN_N."""

    @property
    def n(self):
        return self.comp.shape[0]

    @property
    def mode(self):
        return mode_of(self.comp)

    @classmethod
    def from_components(cls, values, mode):
        return cls(as_mode_array(values, mode))

    def __post_init__(self):
        order = self.ORDER
        if self.comp.ndim != order or self.comp.shape != (self.n,) * order or self.n < self.MIN_N:
            raise ValueError(f"component shape {self.comp.shape} is not "
                             f"(n,) * {order} with n >= {self.MIN_N}")
        check_symmetries(self.comp[None])
        self.comp.setflags(write=False)


# ---------------------------------------------------------------------------
# Symmetric 2-tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymTensor2(_Tensor):
    """Symmetric n x n tensor (Ric, traceless Ric, the metric, Hessians)."""

    comp: np.ndarray
    ORDER, MIN_N = 2, 1

    @classmethod
    def identity(cls, n, mode):
        a = zeros((n, n), mode)
        one = Fraction(1) if mode == RATIONAL else 1.0
        for i in range(n):
            a[i, i] = one
        return cls(a)

    def trace(self):
        return self.comp.trace()

    def norm_sq(self):
        return np.einsum("ij,ij", self.comp, self.comp)


@cache   # immutable (frozen, read-only comp), so one instance serves every caller
def identity_metric(n, mode):
    return SymTensor2.identity(n, mode)


# ---------------------------------------------------------------------------
# Algebraic curvature tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgCurvTensor(_Tensor):
    """Pointwise algebraic curvature tensor R_ijkl, dense over {0..n-1}^4.

    Invariants (enforced on construction): antisymmetry in the first and the
    last index pair, pair symmetry R_ijkl = R_klij, and the first Bianchi
    identity R_ijkl + R_iklj + R_iljk = 0.
    """

    comp: np.ndarray
    ORDER, MIN_N = 4, 3

    # -- serialization ------------------------------------------------------

    def generating_entries(self):
        """Canonical nonzero entries with i<j, k<l, (i,j) <= (k,l)."""
        i, j, _ = pair_basis(self.n)
        P = self.comp[i[:, None], j[:, None], i, j]
        pairs = list(zip(i.tolist(), j.tolist()))
        return [[*pairs[a], *pairs[b], P[a, b]]
                for a in range(len(pairs)) for b in range(a, len(pairs)) if P[a, b] != 0]

    def to_json(self):
        entries = [[i, j, k, l, scalar_to_json(v)]
                   for i, j, k, l, v in self.generating_entries()]
        return json.dumps({"n": self.n, "mode": self.mode, "entries": entries})

    @classmethod
    def from_json(cls, text):
        """The tensor of to_json's generating entries, each symmetric entry
        rebuilt from its generating one as tensor_from_pair_operator does.
        Raises ValueError naming an entry whose pairs are not i < j and
        k < l within 0..n-1."""
        data = json.loads(text)
        n, mode = data["n"], check_mode(data["mode"])
        first, _, position = pair_basis(n)
        P = zeros((len(first),) * 2, mode)
        for entry in data["entries"]:
            i, j, k, l, raw = entry
            if not all(type(v) is int for v in (i, j, k, l)) or not (
                    0 <= i < j < n and 0 <= k < l < n):
                raise ValueError(f"entry {entry}: its index pairs must be i < j and "
                                 f"k < l within 0..{n - 1}")
            a, b = position[i, j], position[k, l]
            P[a, b] = P[b, a] = Fraction(raw) if mode == RATIONAL else float(raw)
        return cls(_from_pairs(P, n))


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------

def kulkarni_nomizu(h: SymTensor2, k: SymTensor2) -> AlgCurvTensor:
    """(h ^ k)_ijkl = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il."""
    if h.n != k.n:
        raise ValueError("dimension mismatch in Kulkarni-Nomizu product")
    join_modes(h.mode, k.mode)
    a, b = h.comp, k.comp
    comp = (np.einsum("ik,jl->ijkl", a, b) + np.einsum("jl,ik->ijkl", a, b)
            - np.einsum("il,jk->ijkl", a, b) - np.einsum("jk,il->ijkl", a, b))
    return AlgCurvTensor(comp)


def constant_curvature(n, kappa, mode) -> AlgCurvTensor:
    """Space form of sectional curvature kappa: kappa times the identity on
    bivectors, R_ijij = -R_ijji = kappa for i != j and every other entry 0,
    which is (kappa/2) g ^ g."""
    i, j, _ = pair_basis(n)
    unit = zeros((n,) * 4, mode)
    one = Fraction(1) if mode == RATIONAL else 1.0
    unit[i, j, i, j] = unit[j, i, j, i] = one
    unit[i, j, j, i] = unit[j, i, i, j] = -one
    return AlgCurvTensor((Fraction(kappa) if mode == RATIONAL else float(kappa)) * unit)


def ricci_stack(comp):
    """R_ik = sum_j R_ijkj (orthonormal frame) of each tensor of the stack
    comp (k, n, n, n, n): an array (k, n, n)."""
    return np.einsum("aijkj->aik", comp)


def ricci(Rm: AlgCurvTensor) -> SymTensor2:
    return SymTensor2(ricci_stack(Rm.comp[None])[0])


def scalar_stack(comp):
    """The scalar curvature of each tensor of the stack comp (k, n, n, n, n)."""
    return np.trace(ricci_stack(comp), axis1=1, axis2=2)


def scalar(Rm: AlgCurvTensor):
    return scalar_stack(Rm.comp[None])[0]


def traceless_ricci_stack(comp):
    """Ric - (R/n) g of each tensor of the stack comp (k, n, n, n, n), exact
    for a rational stack: an array (k, n, n)."""
    n = comp.shape[-1]
    oric = ricci_stack(comp)
    d = np.arange(n)
    oric[:, d, d] -= (np.trace(oric, axis1=1, axis2=2) / n)[:, None]
    return oric


def traceless_ricci(Rm: AlgCurvTensor) -> SymTensor2:
    return SymTensor2(traceless_ricci_stack(Rm.comp[None])[0])


@dataclass(frozen=True)
class CurvatureInvariants:
    """The three scalars the soliton identities are built from."""

    R: object            # scalar curvature
    ricNormSq: object    # |traceless Ric|^2
    lhs: object          # R_ijkl oR_ik oR_jl


def invariants(Rm: AlgCurvTensor) -> CurvatureInvariants:
    t = traceless_ricci(Rm).comp
    return CurvatureInvariants(
        R=scalar(Rm),
        ricNormSq=np.einsum("ij,ij", t, t),
        lhs=np.einsum("ijkl,ik,jl", Rm.comp, t, t),
    )


# ---------------------------------------------------------------------------
# Planes and sectional curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plane:
    """Oriented 2-plane spanned by an orthonormal pair (x, y)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = self.x, self.y
        if x.shape != y.shape or x.ndim != 1:
            raise PlaneError("plane vectors must be n-vectors of equal length")
        for label, val in (("|x|^2 - 1", np.dot(x, x) - 1),
                           ("|y|^2 - 1", np.dot(y, y) - 1),
                           ("<x, y>", np.dot(x, y))):
            if abs(val) > PLANE_TOL:
                raise PlaneError(f"plane not orthonormal: {label} = {val}")
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n(self):
        return self.x.shape[0]


def coordinate_plane(n, i, j, mode=FLOAT) -> Plane:
    x, y = zeros(n, mode), zeros(n, mode)
    one = Fraction(1) if mode == RATIONAL else 1.0
    x[i] = one
    y[j] = one
    return Plane(x, y)


def sectional(Rm: AlgCurvTensor, p: Plane):
    """R(x, y, x, y); equals sigma_ij for the coordinate plane (e_i, e_j)."""
    if p.n != Rm.n:
        raise ValueError("plane dimension mismatch")
    return np.einsum("ijkl,i,j,k,l", Rm.comp, p.x, p.y, p.x, p.y)


# ---------------------------------------------------------------------------
# Modified curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModifiedCurvature:
    """Curvature shifted by the pinching parameter: Rm - (eps/2) R g^g.

    Its sectional curvatures are sigma(p) - eps*R, which the pinching
    hypothesis makes non-negative.
    """

    epsilon: object
    rmBar: AlgCurvTensor
    rBar: object


def modified_curvature(Rm: AlgCurvTensor, eps) -> ModifiedCurvature:
    n, mode = Rm.n, Rm.mode
    R = scalar(Rm)
    if mode == RATIONAL:
        eps = eps if isinstance(eps, Fraction) else Fraction(eps)
        shift = eps * R
    else:
        shift = float(eps) * R
    rm_bar = AlgCurvTensor(Rm.comp - shift * constant_curvature(n, 1, mode).comp)
    r_bar = (1 - n * (n - 1) * eps) * R
    return ModifiedCurvature(eps, rm_bar, r_bar)


# ---------------------------------------------------------------------------
# Bivectors and random curvature tensors
# ---------------------------------------------------------------------------

@cache   # read-only, so one copy serves every caller
def pair_basis(n):
    """The basis e_i ^ e_j, i < j, of the bivectors of R^n, in lexicographic
    order: arrays (i, j, position) with i[a], j[a] the pair of basis vector
    a and position (n, n) its inverse, position[i, j] = position[j, i] = a
    (0 on the diagonal, which belongs to no pair)."""
    i, j = np.triu_indices(n, 1)
    position = np.zeros((n, n), dtype=np.intp)
    position[i, j] = position[j, i] = np.arange(len(i))
    for a in (i, j, position):
        a.setflags(write=False)
    return i, j, position


@cache   # read-only, so one copy serves every caller
def _pair_map(n):
    """(index, sign) over the entries ijkl of an n^4 tensor: index is the
    position, in a flattened m x m operator on bivectors, of the entry
    (min(p_ij, p_kl), max(p_ij, p_kl)) and sign is s_ij s_kl, where p_ij is
    the position of the pair {i, j} in pair_basis(n) and s_ij = sign(j - i)."""
    first, _, p = pair_basis(n)   # p[i, i] = 0 is read only with s_ii = 0
    i, j = np.ogrid[:n, :n]
    s = np.sign(j - i)
    a, b = p[:, :, None, None], p
    index = np.minimum(a, b) * len(first) + np.maximum(a, b)
    sign = s[:, :, None, None] * s
    for x in (index, sign):
        x.setflags(write=False)
    return index, sign


def _from_pairs(M, n):
    """T_ijkl = s_ij s_kl M[p_ij, p_kl] (see _pair_map) for a symmetric
    operator M on bivectors, read from its upper triangle; M may be a stack
    (..., m, m) of them."""
    index, sign = _pair_map(n)
    return sign * M.reshape(*M.shape[:-2], M.shape[-2] * M.shape[-1])[..., index]


def _bianchi_projection(M, n):
    """The components of tensor_from_pair_operator for each operator of the
    stack M (k, m, m), in M's arithmetic, unvalidated; every entry is
    computed as for a stack of one."""
    T = _from_pairs(M, n)
    cyc = T + T.transpose(0, 1, 3, 4, 2) + T.transpose(0, 1, 4, 2, 3)
    comp = T - (cyc * Fraction(1, 3) if mode_of(M) == RATIONAL else cyc / 3.0)
    i, j, _ = pair_basis(n)
    return _from_pairs(comp[:, i[:, None], j[:, None], i, j], n)


def tensor_from_pair_operator(M, n, mode) -> AlgCurvTensor:
    """Symmetric operator on bivectors -> curvature tensor (Bianchi-projected).

    The 4-index tensor induced by M has all curvature symmetries except the
    first Bianchi identity; subtracting its totally antisymmetric part (the
    cyclic average) restores Bianchi exactly while preserving the others.
    In float that projection rounds each entry on its own, so the result is
    rebuilt, as from_json rebuilds it, from its generating entries: every
    entry is exactly plus or minus one of them.
    """
    return AlgCurvTensor(_bianchi_projection(as_mode_array(M, mode)[None], n)[0])


def diagonal_tensor(sigma, n, mode) -> AlgCurvTensor:
    """The tensor whose only generating entries are R_ijij = sigma_ij over
    the pairs of pair_basis(n): a diagonal operator on bivectors, which
    satisfies the Bianchi identity as it stands."""
    return AlgCurvTensor(_from_pairs(as_mode_array(np.diag(sigma), mode), n))


def _random_operator(n, seed, mode, scale):
    """random_curvature's seeded symmetric operator on bivectors."""
    rng = np.random.default_rng(seed)
    m = n * (n - 1) // 2
    if mode == RATIONAL:
        raw = rng.integers(-scale, scale + 1, size=(m, m))
        M = np.empty((m, m), dtype=object)
        for a in range(m):
            for b in range(m):
                M[a, b] = Fraction(int(raw[a, b]) + int(raw[b, a]), 2)
        return M
    raw = rng.standard_normal((m, m))
    return (raw + raw.T) / 2.0


def random_curvature(n, seed, mode=FLOAT, scale=10) -> AlgCurvTensor:
    """Seeded random curvature tensor with exact first Bianchi identity.

    Rational mode draws integer operator entries in [-scale, scale]; float
    mode draws standard normals.  Same seed, same tensor.
    """
    check_mode(mode)
    return tensor_from_pair_operator(_random_operator(n, seed, mode, scale), n, mode)


def random_curvature_stack(n, seeds):
    """The components of random_curvature(n, seed) (float) for each of seeds,
    as one validated stack (len(seeds), n, n, n, n): one seeded draw per
    tensor, then one Bianchi projection over the stack."""
    m = n * (n - 1) // 2
    M = np.empty((len(seeds), m, m))
    for k, seed in enumerate(seeds):
        M[k] = _random_operator(n, seed, FLOAT, 10)
    comp = _bianchi_projection(M, n)
    check_symmetries(comp)
    return comp
