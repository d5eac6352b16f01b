import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from pinchlab.curvature import invariants, ricci, scalar, traceless_ricci
from pinchlab.models import (
    default_models,
    flat,
    fubini_study_cp2,
    literature_constants,
    literature_table,
    model,
    model_names,
    pinching_threshold,
    product_spheres,
    round_cylinder_s3xr,
    soliton_identity_check,
    sphere,
)
from reference import oracle_min_sectional


def test_registry():
    assert model_names() == sorted(["sphere", "flat", "product_spheres",
                                    "fubini_study_cp2", "round_cylinder_s3xr"])
    assert model("sphere", n=4, kappa=Fraction(2)).minSecClosedForm == 2
    with pytest.raises(KeyError):
        model("nope")


def test_sphere_invariants():
    m = sphere(4, 1)
    assert scalar(m.Rm) == 12
    assert not traceless_ricci(m.Rm).any()
    assert m.solitonConstant == 3


def test_cp2_invariants():
    m = fubini_study_cp2()
    assert scalar(m.Rm) == 24
    ric = ricci(m.Rm)
    assert all(ric[i, i] == 6 for i in range(4))
    assert not traceless_ricci(m.Rm).any()
    # holomorphic plane has curvature 4, the totally real one curvature 1
    assert m.Rm.components()[0, 1, 0, 1] == 4
    assert m.Rm.components()[0, 2, 0, 2] == 1


def test_product_spheres_invariants():
    m = product_spheres(1, 1)
    assert scalar(m.Rm) == 4
    assert m.einstein
    uneven = product_spheres(1, 2)
    assert not uneven.einstein
    assert uneven.solitonConstant is None


def test_cylinder_invariants():
    m = round_cylinder_s3xr()
    assert scalar(m.Rm) == 6
    ric = ricci(m.Rm)
    assert [ric[i, i] for i in range(4)] == [2, 2, 2, 0]
    assert not m.einstein


def test_threshold_ratios_closed_form():
    assert pinching_threshold(sphere(4, 1)).ratio == Fraction(1, 12)
    assert pinching_threshold(fubini_study_cp2()).ratio == Fraction(1, 24)
    assert pinching_threshold(product_spheres(1, 1)).ratio == 0
    assert pinching_threshold(round_cylinder_s3xr()).ratio == 0
    rep = pinching_threshold(flat(4))
    assert rep.ratio is None and rep.passes124


def test_threshold_search_agrees_with_closed_form():
    rep = pinching_threshold(fubini_study_cp2(), use_search=True)
    assert float(rep.ratio) == pytest.approx(1.0 / 24.0, abs=1e-7)
    # n = 4 is solved exactly by the dual, so the models match to roundoff
    for m in (fubini_study_cp2(), product_spheres(1, 1), round_cylinder_s3xr()):
        rep = pinching_threshold(m, use_search=True)
        assert abs(float(rep.ratio) - float(pinching_threshold(m).ratio)) <= 1e-12


def test_oracle_upper_bounds_closed_form():
    m = fubini_study_cp2()
    est = oracle_min_sectional(m, count=200_000, seed=1)
    assert est >= 1.0 - 1e-12
    assert est == pytest.approx(1.0, abs=5e-3)


def test_soliton_identities_all_models():
    for m in default_models():
        rep = soliton_identity_check(m)
        assert rep["allZero"], rep
        assert all(v in ("0", 0) for v in rep["residuals"].values())


def test_cylinder_identity_is_nontrivial():
    assert not soliton_identity_check(round_cylinder_s3xr())["integralIdentityTrivial"]
    assert soliton_identity_check(sphere(4, 1))["integralIdentityTrivial"]
    assert soliton_identity_check(flat(4))["integralIdentityTrivial"]


def test_identity_check_requires_potential():
    with pytest.raises(ValueError):
        soliton_identity_check(product_spheres(1, 2))


def test_pinched_models_are_einstein():
    for m in default_models():
        rep = pinching_threshold(m)
        if scalar(m.Rm) != 0 and rep.passes124:
            assert m.einstein


def test_literature_table():
    consts = literature_constants()
    assert consts["Ribeiro"]["value"] == pytest.approx(1 / 48)
    assert consts["Costa"]["value"] < consts["Yang"]["value"] < \
        consts["soliton(1/24)"]["value"]
    table = literature_table()
    rows = {r["model"]: r for r in table["models"]}
    assert rows["fubini_study_cp2"]["meets[soliton(1/24)]"]
    assert rows["sphere(4,1)"]["meets[Yang]"]
    assert not rows["product_spheres(1,1)"]["meets[Ribeiro]"]
    assert rows["flat(4)"]["meets[soliton(1/24)]"]   # vacuous: R = 0


def test_thresholds_compare_min_sec_with_eps_R_for_negative_R():
    # sphere(4, -1): the ratio minSec / R = 1/12 exceeds every constant, but
    # minSec = -1 < R/24 = -1/2, so the model is not pinched
    m = sphere(4, -1)
    rep = pinching_threshold(m)
    assert rep.ratio == Fraction(1, 12) and rep.passes124 is False
    (row,) = literature_table([m])["models"]
    assert [row[k] for k in row if k.startswith("meets[")] == [False] * 4


def test_einstein_is_read_from_the_curvature():
    for m in default_models() + [product_spheres(1, 2)]:
        t = traceless_ricci(m.Rm)
        assert m.einstein == (np.einsum("ij,ij", t, t) == 0)
        assert m.n == m.Rm.n == 4
    assert [m.einstein for m in default_models()] == [True] * 4 + [False]
    cylinder = round_cylinder_s3xr()
    assert dataclasses.replace(cylinder, Rm=sphere(4, 1).Rm).einstein
    assert not dataclasses.replace(sphere(4, 1), Rm=cylinder.Rm).einstein
