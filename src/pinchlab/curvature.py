"""Algebra of pointwise algebraic curvature tensors in an orthonormal frame.

Everything here is pointwise linear algebra: the frame is orthonormal, so the
metric is the identity and no index raising/lowering ever happens.  The sign
convention is fixed so that the constant-curvature-kappa tensor has sectional
curvature kappa on every plane and sigma_ij = R_ijij on coordinate planes;
the round sphere is positively curved.

A curvature tensor is stored as its curvature operator on bivectors: the
symmetric (m, m) matrix rhat, m = n(n-1)/2, with rhat[a, b] = R_ijkl for the
pairs a = (i, j), b = (k, l) of pair_basis(n).  A symmetric operator is a
curvature operator exactly when it is orthogonal to Lambda^4 (A. Besse,
Einstein Manifolds, 1987, ch. 1), so the first Bianchi identity is its one
check besides symmetry; the antisymmetries and pair symmetry of R_ijkl hold
by construction.

Two arithmetic modes are supported: exact Fractions ("rational") for identity
checks and float64 ("float") for sampling and optimization campaigns.  A
tensor's dimension and mode are those of its array (mode_of).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations

import numpy as np

from .scalars import FLOAT, RATIONAL, check_mode, mode_of, scalar_to_json

SYMMETRY_RTOL = 1e-14   # float mode; rational mode symmetries must hold exactly
PLANE_TOL = 1e-12


class SymmetryError(ValueError):
    """An array violates a symmetry of its kind of tensor."""


class PlaneError(ValueError):
    """Plane vectors are not orthonormal within tolerance."""


def zeros(shape, mode):
    if check_mode(mode) == RATIONAL:
        return np.full(shape, Fraction(0), dtype=object)
    return np.zeros(shape)


def eye(size, mode):
    """The size x size identity in the arithmetic of mode."""
    a = zeros((size, size), mode)
    np.fill_diagonal(a, Fraction(1) if mode == RATIONAL else 1.0)
    return a


def as_mode_array(values, mode):
    if check_mode(mode) == RATIONAL:
        return np.vectorize(Fraction, otypes=[object])(np.asarray(values, dtype=object))
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# Bivectors
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


def pair_dimension(m):
    """The n with m = n(n-1)/2 pairs; ValueError for any other m."""
    n = (1 + math.isqrt(1 + 8 * m)) // 2
    if n * (n - 1) // 2 != m:
        raise ValueError(f"m = {m} is not n(n-1)/2 for any n")
    return n


def bivector(x, y):
    """x ^ y in the pair basis, over the last axis of x and y.  take, unlike
    x[..., i], returns a C-contiguous array, and einsum sums a strided row
    in another order."""
    i, j, _ = pair_basis(x.shape[-1])
    return x.take(i, -1) * y.take(j, -1) - x.take(j, -1) * y.take(i, -1)


def wedge_map(x):
    """A_x, the (m, n) matrix of y -> x ^ y in the pair basis, in x's dtype:
    A_x^T rhat A_x is the matrix R(x, ., x, .)."""
    i, j, _ = pair_basis(len(x))
    a = np.arange(len(i))
    A = np.zeros((len(i), len(x)), dtype=x.dtype)
    A[a, j], A[a, i] = x[i], -x[j]
    return A


@cache   # read-only, so one copy serves every caller
def _pairings(n):
    """The three pairings (pq, rs), (pr, qs), (ps, qr) of each 4-subset
    p < q < r < s of range(n), in combinations order, as positions in
    pair_basis(n): read-only arrays (rows, cols), each (3, C(n, 4)), with
    rows < cols.  No two pairings of any subsets share an entry."""
    p, q, r, s = np.array(list(combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4).T
    _, _, position = pair_basis(n)
    rows = np.stack([position[p, q], position[p, r], position[p, s]])
    cols = np.stack([position[r, s], position[q, s], position[q, r]])
    for a in (rows, cols):
        a.setflags(write=False)
    return rows, cols


@cache
def four_form_basis(n):
    """Lambda^4 acting on bivectors, one read-only (m, m) matrix per 4-subset
    p < q < r < s of the pair_basis: M[ab, cd] = sign of the permutation
    (a, b, c, d) of (p, q, r, s), that is +1, -1, +1 on the pairings
    (pq, rs), (pr, qs), (ps, qr) of _pairings and their transposes.
    <w, M w> is twice the Pluecker quadric w_pq w_rs - w_pr w_qs + w_ps w_qr,
    which vanishes on planes.  Shape (C(n, 4), m, m); none for n <= 3."""
    rows, cols = _pairings(n)
    m = n * (n - 1) // 2
    q = np.arange(rows.shape[1])
    basis = np.zeros((len(q), m, m))
    for a, b, sign in zip(rows, cols, (1, -1, 1)):
        basis[q, a, b] = basis[q, b, a] = sign
    basis.setflags(write=False)
    return basis


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def first_nonfinite(values):
    """The index tuple of the first entry of a float array that is NaN or an
    infinity, or None.  Such an entry passes every tolerance test (NaN
    compares false) and belongs to no real tensor; Fractions are finite."""
    if values.dtype.kind != "f" or np.isfinite(values).all():
        return None
    return tuple(int(v) for v in np.argwhere(~np.isfinite(values))[0])


def _require_small(stack, residual, what):
    """Raise SymmetryError naming the first matrix k of the stack (k, n, n)
    whose residual (k, ...) is not zero: exactly in rational mode, else up to
    SYMMETRY_RTOL times max(1, the matrix's largest entry)."""
    tol = (np.zeros(len(stack), dtype=object) if mode_of(stack) == RATIONAL
           else SYMMETRY_RTOL * np.maximum(1.0, np.abs(stack).max(axis=(1, 2), initial=0)))
    worst = np.abs(residual).max(axis=tuple(range(1, residual.ndim)), initial=0)
    bad = np.nonzero(worst > tol)[0]
    if len(bad):
        k = bad[0]
        raise SymmetryError(f"tensor {k}: {what} violated: residual {worst[k]} "
                            f"> tol {tol[k]}")


def bianchi_sums(rhat):
    """R_pqrs + R_prsq + R_psqr = A - B + C over the 4-subsets of _pairings,
    A, B, C the entries of its three pairings, for each operator of the stack
    rhat (k, m, m): an array (k, C(n, 4)).  It is <rhat, M>/2 for the
    subset's four_form_basis matrix M and vanishes, for every subset, exactly
    when a symmetric rhat satisfies the first Bianchi identity."""
    rows, cols = _pairings(pair_dimension(rhat.shape[-1]))
    A, B, C = (rhat[:, a, b] for a, b in zip(rows, cols))
    return A - B + C


def check_curvature_operators(rhat):
    """Raise SymmetryError unless every operator of the stack rhat (k, m, m)
    is symmetric and satisfies the first Bianchi identity (bianchi_sums),
    the only symmetries a curvature operator does not have by construction.
    The error names the first failing operator's index; a float entry that
    is not finite fails too, named with its operator and position."""
    bad = first_nonfinite(rhat)
    if bad is not None:
        k, a, b = bad
        raise ValueError(f"tensor {k}: entry ({a}, {b}) is non-finite: {rhat[bad]}")
    _require_small(rhat, rhat - rhat.transpose(0, 2, 1), "operator symmetry")
    _require_small(rhat, bianchi_sums(rhat), "first Bianchi identity")


# ---------------------------------------------------------------------------
# Algebraic curvature tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgCurvTensor:
    """Pointwise algebraic curvature tensor, stored as its curvature operator
    rhat on bivectors (module docstring), whose dimension n and mode are read
    from rhat.  Construction enforces that rhat is symmetric and satisfies
    the first Bianchi identity (check_curvature_operators)."""

    rhat: np.ndarray

    @property
    def n(self):
        return pair_dimension(self.rhat.shape[0])

    @property
    def mode(self):
        return mode_of(self.rhat)

    def __post_init__(self):
        shape = self.rhat.shape
        if len(shape) != 2 or shape[0] != shape[1] or pair_dimension(shape[0]) < 3:
            raise ValueError(f"operator shape {shape} is not (m, m), "
                             "m = n(n-1)/2 with n >= 3")
        check_curvature_operators(self.rhat[None])
        self.rhat.setflags(write=False)

    def components(self):
        """The n^4 components R_ijkl = s_ij s_kl rhat[p_ij, p_kl] in the
        tensor's arithmetic, with p = pair_basis(n)[2] and s_ij = sign(j - i),
        for the contractions over all four indices: the soliton drift
        R_ijkl Ric_jl, the search oracle and the tests."""
        _, _, p = pair_basis(self.n)
        r = np.arange(self.n)
        s = np.sign(r - r[:, None])
        return s[:, :, None, None] * s * self.rhat[p[:, :, None, None], p]

    def to_json(self):
        """The generating entries [i, j, k, l, R_ijkl]: the nonzero operator
        entries on and above the diagonal, with i < j, k < l."""
        i, j, _ = pair_basis(self.n)
        entries = [[int(i[a]), int(j[a]), int(i[b]), int(j[b]), scalar_to_json(self.rhat[a, b])]
                   for a, b in zip(*np.triu_indices(len(i))) if self.rhat[a, b] != 0]
        return json.dumps({"n": self.n, "mode": self.mode, "entries": entries})

    @classmethod
    def from_json(cls, text):
        """The tensor of to_json's generating entries, each of which fills an
        operator entry and its transpose.  Raises ValueError naming an entry
        whose pairs are not i < j and k < l within 0..n-1."""
        data = json.loads(text)
        n, mode = data["n"], check_mode(data["mode"])
        first, _, position = pair_basis(n)
        rhat = zeros((len(first),) * 2, mode)
        for entry in data["entries"]:
            i, j, k, l, raw = entry
            if not all(type(v) is int for v in (i, j, k, l)) or not (
                    0 <= i < j < n and 0 <= k < l < n):
                raise ValueError(f"entry {entry}: its index pairs must be i < j and "
                                 f"k < l within 0..{n - 1}")
            a, b = position[i, j], position[k, l]
            rhat[a, b] = rhat[b, a] = Fraction(raw) if mode == RATIONAL else float(raw)
        return cls(rhat)


# ---------------------------------------------------------------------------
# Contractions
# ---------------------------------------------------------------------------

def constant_curvature(n, kappa, mode) -> AlgCurvTensor:
    """Space form of sectional curvature kappa: kappa times the identity on
    bivectors, which is (kappa/2) g ^ g."""
    kappa = Fraction(kappa) if mode == RATIONAL else float(kappa)
    return AlgCurvTensor(kappa * eye(n * (n - 1) // 2, mode))


def ricci_stack(rhat):
    """R_ik = sum_j R_ijkj = sum_j s_ij s_kj rhat[p_ij, p_kj] (orthonormal
    frame, AlgCurvTensor.components) of each operator of the stack rhat
    (k, m, m): an array (k, n, n), summed over j in order."""
    n = pair_dimension(rhat.shape[-1])
    _, _, p = pair_basis(n)
    i, k, j = np.indices((n,) * 3)
    return (np.sign(j - i) * np.sign(j - k) * rhat[:, p[i, j], p[k, j]]).sum(axis=-1)


def ricci(Rm: AlgCurvTensor):
    return ricci_stack(Rm.rhat[None])[0]


def scalar_stack(rhat):
    """The scalar curvature 2 tr(rhat) of each operator of the stack rhat."""
    return 2 * np.trace(rhat, axis1=1, axis2=2)


def scalar(Rm: AlgCurvTensor):
    return scalar_stack(Rm.rhat[None])[0]


def traceless_ricci_stack(rhat):
    """Ric - (tr Ric / n) g of each operator of the stack rhat (k, m, m),
    exact for a rational stack: an array (k, n, n)."""
    oric = ricci_stack(rhat)
    n = oric.shape[-1]
    d = np.arange(n)
    oric[:, d, d] -= (np.trace(oric, axis1=1, axis2=2) / n)[:, None]
    return oric


def traceless_ricci(Rm: AlgCurvTensor):
    return traceless_ricci_stack(Rm.rhat[None])[0]


def compound(S):
    """The action S x ^ S y = compound(S) (x ^ y) of an n x n matrix S on
    bivectors: compound(S)[a, b] = S_ik S_jl - S_il S_jk for the pairs
    a = (i, j), b = (k, l) of pair_basis(n)."""
    i, j, _ = pair_basis(len(S))
    return (S[i[:, None], i] * S[j[:, None], j]) - (S[i[:, None], j] * S[j[:, None], i])


@dataclass(frozen=True)
class CurvatureInvariants:
    """The three scalars the soliton identities are built from."""

    R: object            # scalar curvature
    ricNormSq: object    # |traceless Ric|^2
    lhs: object          # R_ijkl oR_ik oR_jl


def invariants(Rm: AlgCurvTensor) -> CurvatureInvariants:
    """R, |oRic|^2 and R_ijkl oR_ik oR_jl = 2 <rhat, compound(oRic)>: each
    unordered pair of the four-index sum appears in its two orders."""
    t = traceless_ricci(Rm)
    return CurvatureInvariants(
        R=scalar(Rm),
        ricNormSq=np.einsum("ij,ij", t, t),
        lhs=2 * np.einsum("ab,ab", Rm.rhat, compound(t)),
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


def plane_sectionals_stack(rhat, x, y):
    """Sectional curvatures w^T Rhat w, w = x ^ y, of the planes spanned by
    the orthonormal rows of x, y (k, p, n), for each operator of the stack
    rhat (k, m, m): (k, p), C-contiguous (einsum may lay its output out
    otherwise, and numpy sums a strided row in another order).  Exact on
    Fraction operands."""
    w = bivector(x, y)
    return np.ascontiguousarray(np.einsum("kpa,kab,kpb->kp", w, rhat, w))


def sectional(Rm: AlgCurvTensor, p: Plane):
    """R(x, y, x, y), sigma_ij for the coordinate plane (e_i, e_j): the
    stack of one of plane_sectionals_stack."""
    if p.n != Rm.n:
        raise ValueError("plane dimension mismatch")
    return plane_sectionals_stack(Rm.rhat[None], p.x[None, None], p.y[None, None])[0, 0]


# ---------------------------------------------------------------------------
# Random curvature tensors
# ---------------------------------------------------------------------------

def _bianchi_projection(rhat):
    """rhat - sum_k <rhat, M_k> M_k / 6 over four_form_basis for each
    symmetric operator of the stack rhat (k, m, m), in its arithmetic,
    unvalidated: the orthogonal projection onto the curvature operators.

    The M_k have disjoint supports, so for a 4-subset whose pairings hold
    A, B, C (_pairings) the projection subtracts (A - B + C)/3 from A, adds
    it to B and subtracts it from C, and leaves every other entry.  In float
    each entry's sum is taken in the order of the cyclic sum
    R_ijkl + R_iljk + R_iklj from that entry: (A + C) - B for A and
    (C - B) + A for B and C.  Doubling is exact, so each entry rounds as the
    projection of the n^4 tensor onto the Bianchi identity rounds it.
    """
    rows, cols = _pairings(pair_dimension(rhat.shape[-1]))
    A, B, C = (rhat[:, a, b] for a, b in zip(rows, cols))
    shared = (C - B + A) / 3
    out = rhat.copy()
    for a, b, value in zip(rows, cols, (A - (A + C - B) / 3, B + shared, C - shared)):
        out[:, a, b] = out[:, b, a] = value
    return out


def diagonal_tensor(sigma, n, mode) -> AlgCurvTensor:
    """The tensor whose only generating entries are R_ijij = sigma_ij over
    the pairs of pair_basis(n): the diagonal operator diag(sigma), which
    satisfies the Bianchi identity as it stands."""
    m = n * (n - 1) // 2
    if len(sigma) != m:
        raise ValueError(f"{len(sigma)} curvatures for the {m} pairs of n = {n}")
    rhat = zeros((m, m), mode)
    np.fill_diagonal(rhat, as_mode_array(sigma, mode))
    return AlgCurvTensor(rhat)


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
    """Seeded random curvature tensor with the first Bianchi identity: a
    seeded symmetric operator, projected (_bianchi_projection).

    Rational mode draws integer operator entries in [-scale, scale]; float
    mode draws standard normals.  Same seed, same tensor.
    """
    check_mode(mode)
    return AlgCurvTensor(_bianchi_projection(_random_operator(n, seed, mode, scale)[None])[0])


def random_curvature_stack(n, seeds):
    """The operators of random_curvature(n, seed) (float) for each of seeds,
    as one validated stack (len(seeds), m, m): one seeded draw per tensor,
    then one Bianchi projection over the stack."""
    m = n * (n - 1) // 2
    M = np.empty((len(seeds), m, m))
    for k, seed in enumerate(seeds):
        M[k] = _random_operator(n, seed, FLOAT, 10)
    rhat = _bianchi_projection(M)
    check_curvature_operators(rhat)
    return rhat
