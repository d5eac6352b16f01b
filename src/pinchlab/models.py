"""Closed-form model geometries: curvature tensors, soliton data, and the
pinching-threshold bookkeeping for the classification's model spaces.

All models are homogeneous, so one point's curvature tensor plus closed-form
potential data (constant, Gaussian on flat space, or quadratic along the line
factor of the cylinder) is enough for every pointwise check.  Quotients are
represented by their universal covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import (
    AlgCurvTensor,
    RATIONAL,
    compound,
    constant_curvature,
    diagonal_tensor,
    eye,
    invariants,
    pair_basis,
    ricci,
    scalar,
    traceless_ricci,
    zeros,
)
from .minsec import min_sectional, pinched
from .scalars import scalar_to_json

CONSTANT = "constant"
GAUSSIAN = "gaussian"      # f = (lambda/2)|x|^2 on the flat model
CYLINDRICAL = "cylindrical"  # f = lambda * t^2 / 2 along the line factor


@dataclass(frozen=True)
class ModelGeometry:
    name: str
    Rm: AlgCurvTensor
    solitonConstant: object          # None when no closed-form potential exists
    potentialKind: str | None
    hessian: np.ndarray | None       # closed-form (n, n) Hessian of the potential
    minSecClosedForm: object         # exact minimal sectional curvature

    @property
    def n(self):
        return self.Rm.n

    @property
    def einstein(self):
        """Whether Rm is Einstein: its traceless Ricci tensor vanishes."""
        return not traceless_ricci(self.Rm).any()


def sphere(n=4, kappa=Fraction(1)):
    """Round sphere of constant sectional curvature kappa (Einstein shrinker
    with constant potential and lambda = (n-1) kappa)."""
    kappa = Fraction(kappa)
    lam = (n - 1) * kappa
    return ModelGeometry(
        name=f"sphere({n},{kappa})",
        Rm=constant_curvature(n, kappa, RATIONAL),
        solitonConstant=lam, potentialKind=CONSTANT,
        hessian=zeros((n, n), RATIONAL), minSecClosedForm=kappa)


def flat(n=4, lam=Fraction(1, 2)):
    """Flat space with the Gaussian shrinker potential f = (lam/2)|x|^2."""
    lam = Fraction(lam)
    return ModelGeometry(
        name=f"flat({n})", Rm=constant_curvature(n, 0, RATIONAL),
        solitonConstant=lam, potentialKind=GAUSSIAN,
        hessian=lam * eye(n, RATIONAL), minSecClosedForm=Fraction(0))


def product_spheres(kappa1=Fraction(1), kappa2=Fraction(1)):
    """S^2(kappa1) x S^2(kappa2): block tensor, flat mixed planes.

    Einstein (with constant potential, lambda = kappa) only when the factors
    match; otherwise no closed-form potential is attached.
    """
    kappa1, kappa2 = Fraction(kappa1), Fraction(kappa2)
    einstein = kappa1 == kappa2
    return ModelGeometry(
        name=f"product_spheres({kappa1},{kappa2})",
        Rm=diagonal_tensor([kappa1, 0, 0, 0, 0, kappa2], 4, RATIONAL),   # pairs 01 and 23
        solitonConstant=kappa1 if einstein else None,
        potentialKind=CONSTANT if einstein else None,
        hessian=zeros((4, 4), RATIONAL) if einstein else None,
        minSecClosedForm=min(Fraction(0), kappa1, kappa2))  # mixed planes are flat


def fubini_study_cp2():
    """Complex projective plane, holomorphic sectional curvature 4.

    Components from the complex-space-form formula
        R_ijkl = (c/4)(d_ik d_jl - d_il d_jk + J_ik J_jl - J_il J_jk + 2 J_ij J_kl)
    with c = 4, so Sec ranges over [1, 4], Ric = 6 g, R = 24.  On bivectors
    that is I + compound(J) + 2 j j^T, j the pair entries of J.
    """
    J = zeros((4, 4), RATIONAL)
    J[0, 1], J[1, 0] = Fraction(-1), Fraction(1)
    J[2, 3], J[3, 2] = Fraction(-1), Fraction(1)
    i, j, _ = pair_basis(4)
    rhat = eye(6, RATIONAL) + compound(J) + 2 * np.outer(J[i, j], J[i, j])
    return ModelGeometry(
        name="fubini_study_cp2", Rm=AlgCurvTensor(rhat),
        solitonConstant=Fraction(6), potentialKind=CONSTANT,
        hessian=zeros((4, 4), RATIONAL), minSecClosedForm=Fraction(1))


def round_cylinder_s3xr():
    """S^3(1) x R: shrinker with f = t^2 along the line, lambda = 2."""
    hess = zeros((4, 4), RATIONAL)
    hess[3, 3] = Fraction(2)
    return ModelGeometry(
        name="round_cylinder_s3xr",
        Rm=diagonal_tensor([1, 1, 0, 1, 0, 0], 4, RATIONAL),   # the planes 01, 02, 12 of S^3
        solitonConstant=Fraction(2), potentialKind=CYLINDRICAL,
        hessian=hess, minSecClosedForm=Fraction(0))


_REGISTRY = {
    "sphere": sphere,
    "flat": flat,
    "product_spheres": product_spheres,
    "fubini_study_cp2": fubini_study_cp2,
    "round_cylinder_s3xr": round_cylinder_s3xr,
}


def model(name, **kwargs) -> ModelGeometry:
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


def model_names():
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Pinching thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    name: str
    minSec: object
    R: object
    ratio: object        # minSec / R, None when R = 0 (flat branch); reported only
    passes124: bool      # minSec >= R/24, decided by pinched

    def as_dict(self):
        return {"name": self.name, "minSec": scalar_to_json(self.minSec),
                "R": scalar_to_json(self.R),
                "ratio": None if self.ratio is None else scalar_to_json(self.ratio),
                "passes124": self.passes124}


def pinching_threshold(m: ModelGeometry, use_search=False) -> ThresholdReport:
    """minSec / R for the model; exact via the stored closed form by default,
    and via min_sectional, the 4-form dual (exact at n = 4), when use_search
    is set.  The name use_search stays because the benchmark passes it
    (ROADMAP item 1)."""
    R = scalar(m.Rm)
    if use_search:
        min_sec = min_sectional(m.Rm)[0]
    else:
        min_sec = m.minSecClosedForm
    ratio = None
    if R != 0:
        ratio = Fraction(min_sec) / R if isinstance(min_sec, Fraction) else float(min_sec) / float(R)
    return ThresholdReport(m.name, min_sec, R, ratio, pinched(min_sec, Fraction(1, 24), R))


# ---------------------------------------------------------------------------
# Soliton identities
# ---------------------------------------------------------------------------

def soliton_identity_check(m: ModelGeometry):
    """Residuals of the closed-form soliton identities; all exactly zero.

    On the shipped homogeneous models the curvature is parallel and R is
    constant, so every gradient-of-curvature term vanishes and the identities
    reduce to pointwise contractions:

        soliton equation   Ric + Hess f - lambda g = 0
        trace              Delta f = n lambda - R
        drift of R         0 = 2 lambda R - 2 |Ric|^2
        drift of Ric       0 = 2 lambda R_ik - 2 R_ijkl R_jl
        drift of |oRic|^2  0 = |grad oRic|^2 + 2 lambda |oRic|^2
                                - 2 R_ijkl oR_ik oR_jl - (2/n) R |oRic|^2

    The dimension-four integral identity (|grad R|^2 vs R |oRic|^2) reduces to
    0 = 0 on Einstein/flat models and is reported as trivially satisfied.
    """
    if m.solitonConstant is None or m.potentialKind is None:
        raise ValueError(f"{m.name}: no closed-form potential")
    n, lam = m.n, m.solitonConstant
    ric = ricci(m.Rm)
    inv = invariants(m.Rm)
    R = inv.R

    soliton_eq = ric + m.hessian - lam * eye(n, RATIONAL)
    laplacian_f = m.hessian.trace()
    ric_norm_sq = np.einsum("ij,ij", ric, ric)
    drift_R = 2 * lam * R - 2 * ric_norm_sq
    drift_ric = 2 * lam * ric - 2 * np.einsum("ijkl,jl->ik", m.Rm.components(), ric)
    # |grad oRic|^2 = 0 on every shipped model (parallel curvature)
    drift_oric = (2 * lam * inv.ricNormSq - 2 * inv.lhs
                  - Fraction(2, n) * R * inv.ricNormSq)
    trivially_einstein = m.einstein or R == 0
    residuals = {
        "solitonEquation": max(abs(v) for v in soliton_eq.reshape(-1)),
        "traceEquation": abs(laplacian_f - (n * lam - R)),
        "driftScalar": abs(drift_R),
        "driftRicci": max(abs(v) for v in drift_ric.reshape(-1)),
        "driftTracelessNormSq": abs(drift_oric),
    }
    return {
        "name": m.name,
        "lambda": scalar_to_json(lam),
        "potentialKind": m.potentialKind,
        "residuals": {k: scalar_to_json(v) for k, v in residuals.items()},
        "allZero": all(v == 0 for v in residuals.values()),
        "integralIdentityTrivial": trivially_einstein,
    }


# ---------------------------------------------------------------------------
# Literature comparison
# ---------------------------------------------------------------------------

def literature_constants():
    """Known Einstein-theorem pinching constants and this work's threshold."""
    return {
        "Yang": {"exact": "(sqrt(1249)-23)/480",
                 "value": (np.sqrt(1249.0) - 23.0) / 480.0},
        "Costa": {"exact": "(2-sqrt(2))/24", "value": (2.0 - np.sqrt(2.0)) / 24.0},
        "Ribeiro": {"exact": "1/48", "value": 1.0 / 48.0},
        "soliton(1/24)": {"exact": "1/24", "value": 1.0 / 24.0},
    }


def default_models():
    return [sphere(4, 1), flat(4), product_spheres(1, 1), fubini_study_cp2(),
            round_cylinder_s3xr()]


def literature_table(models=None):
    """Per-model threshold ratios against each literature constant."""
    consts = literature_constants()
    rows = []
    for m in models if models is not None else default_models():
        rep = pinching_threshold(m)
        row = {"model": m.name, "ratio": None if rep.ratio is None
               else scalar_to_json(rep.ratio), "einstein": m.einstein}
        for cname, c in consts.items():
            row[f"meets[{cname}]"] = pinched(rep.minSec, c["value"], rep.R)
        rows.append(row)
    return {"constants": {k: dict(v) for k, v in consts.items()}, "models": rows}
