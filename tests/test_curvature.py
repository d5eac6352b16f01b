import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchlab.curvature import (
    AlgCurvTensor,
    FLOAT,
    RATIONAL,
    PlaneError,
    Plane,
    SymmetryError,
    SymTensor2,
    constant_curvature,
    coordinate_plane,
    identity_metric,
    invariants,
    kulkarni_nomizu,
    modified_curvature,
    random_curvature,
    ricci,
    scalar,
    sectional,
    traceless_ricci,
)
from pinchlab.scalars import ArithmeticModeError


def random_plane(n, rng):
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    y = rng.standard_normal(n)
    y -= (y @ x) * x
    y /= np.linalg.norm(y)
    return Plane(x, y)


def _bianchi_residual(c):
    """max |R_ijkl + R_iljk + R_iklj|, computed apart from the validator."""
    return np.abs(c + c.transpose(0, 2, 3, 1) + c.transpose(0, 3, 1, 2)).max()


def test_constant_curvature_sectional_is_kappa_everywhere():
    rng = np.random.default_rng(7)
    Rm = constant_curvature(4, 2.5, FLOAT)
    for _ in range(20):
        assert sectional(Rm, random_plane(4, rng)) == pytest.approx(2.5, abs=1e-12)


def test_constant_curvature_rational_exact():
    Rm = constant_curvature(5, Fraction(3), RATIONAL)
    for i in range(5):
        for j in range(i + 1, 5):
            assert Rm.comp[i, j, i, j] == Fraction(3)
    assert ricci(Rm).comp[0, 0] == 4 * Fraction(3)
    assert scalar(Rm) == 5 * 4 * Fraction(3)
    assert traceless_ricci(Rm).norm_sq() == 0


@pytest.mark.parametrize("n", range(3, 9))
def test_constant_curvature_is_half_kulkarni_nomizu_of_the_metric(n):
    for kappa in (1, -1, 0, 3, Fraction(-2, 7)):
        for mode in (FLOAT, RATIONAL):
            g = identity_metric(n, mode)
            half = Fraction(kappa, 2) if mode == RATIONAL else float(kappa) / 2.0
            want = kulkarni_nomizu(g, g).comp * half
            got = constant_curvature(n, kappa, mode).comp
            assert got.dtype == want.dtype
            if mode == FLOAT:   # bit for bit, the sign of every zero included
                assert got.tobytes() == want.tobytes(), kappa
            else:
                assert all(type(a) is Fraction and a == b
                           for a, b in zip(got.ravel(), want.ravel())), kappa


def test_kulkarni_nomizu_has_all_symmetries():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    h = SymTensor2.from_components((a + a.T) / 2, FLOAT)
    b = rng.standard_normal((4, 4))
    k = SymTensor2.from_components((b + b.T) / 2, FLOAT)
    Rm = kulkarni_nomizu(h, k)   # constructor enforces the symmetries
    assert _bianchi_residual(Rm.comp) < 1e-13


def test_mixed_mode_rejected():
    h = identity_metric(4, RATIONAL)
    k = identity_metric(4, FLOAT)
    with pytest.raises(ArithmeticModeError):
        kulkarni_nomizu(h, k)


def test_symmetry_violation_detected():
    comp = np.zeros((4, 4, 4, 4))
    comp[0, 1, 0, 1] = 1.0   # missing the antisymmetric partners
    with pytest.raises(SymmetryError):
        AlgCurvTensor(comp)


def test_mode_and_dimension_are_read_from_the_components():
    Rm = AlgCurvTensor(np.array(random_curvature(4, 3, FLOAT).comp))
    assert (Rm.n, Rm.mode) == (4, FLOAT)
    assert json.loads(Rm.to_json())["mode"] == FLOAT
    exact = AlgCurvTensor(np.array(random_curvature(3, 3, RATIONAL).comp))
    assert (exact.n, exact.mode) == (3, RATIONAL)
    assert json.loads(exact.to_json())["mode"] == RATIONAL
    assert isinstance(scalar(exact), Fraction)
    assert ricci(exact).mode == RATIONAL and ricci(Rm).mode == FLOAT


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_components_of_no_arithmetic_mode_rejected(dtype):
    with pytest.raises(ArithmeticModeError):
        AlgCurvTensor(np.zeros((4,) * 4, dtype=dtype))
    with pytest.raises(ArithmeticModeError):
        SymTensor2(np.eye(3, dtype=dtype))


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (4, 4, 4, 3), (4, 4, 4), (4, 3), (4,)])
def test_components_of_wrong_shape_rejected(shape):
    with pytest.raises(ValueError, match="is not \\(n,\\) \\* "):
        (AlgCurvTensor if len(shape) > 2 else SymTensor2)(np.zeros(shape))


def test_symtensor_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        SymTensor2.from_components([[0.0, 1.0], [0.0, 0.0]], FLOAT)
    with pytest.raises(SymmetryError, match="^tensor 0: symmetry S_ij = S_ji"):
        SymTensor2.from_components([[0, Fraction(1, 10 ** 30)], [0, 0]], RATIONAL)
    # float tolerance scales with the largest component: 1e-8 < 1e-14 * 1e9
    SymTensor2.from_components([[1e9, 1e-6], [1e-6 + 1e-8, 0.0]], FLOAT)


def test_plane_rejects_non_orthonormal():
    with pytest.raises(PlaneError):
        Plane(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(PlaneError):
        Plane(np.array([2.0, 0.0]), np.array([0.0, 1.0]))


def test_sectional_on_coordinate_plane_reads_component():
    Rm = random_curvature(4, 11, FLOAT)
    for i in range(4):
        for j in range(4):
            if i != j:
                p = coordinate_plane(4, i, j)
                assert sectional(Rm, p) == pytest.approx(Rm.comp[i, j, i, j])


@given(seed=st.integers(0, 10_000), n=st.sampled_from([3, 4, 5]))
@settings(max_examples=25, deadline=None)
def test_random_curvature_rational_bianchi_exact(seed, n):
    Rm = random_curvature(n, seed, RATIONAL, scale=5)
    assert _bianchi_residual(Rm.comp) == 0


def test_random_curvature_deterministic():
    a = random_curvature(4, 123, FLOAT)
    b = random_curvature(4, 123, FLOAT)
    assert np.array_equal(a.comp, b.comp)


def test_json_round_trip_rational():
    Rm = random_curvature(4, 5, RATIONAL)
    back = AlgCurvTensor.from_json(Rm.to_json())
    assert (back.comp == Rm.comp).all()
    assert back.mode == RATIONAL


@pytest.mark.parametrize("pairs", [(1, 0, 2, 3), (0, 1, 0, 4), (0, 4, 1, 2),
                                   (-1, 2, 0, 1), (0, 1, -3, -1), (0, 0, 1, 2)])
def test_from_json_rejects_pairs_outside_the_basis(pairs):
    entry = [*pairs, "1"]
    text = json.dumps({"n": 4, "mode": RATIONAL, "entries": [[0, 1, 0, 1, "2"], entry]})
    with pytest.raises(ValueError, match=re.escape(f"entry {entry}")):
        AlgCurvTensor.from_json(text)


def test_json_round_trip_float():
    Rm = random_curvature(4, 5, FLOAT)
    back = AlgCurvTensor.from_json(Rm.to_json())
    assert np.allclose(np.asarray(back.comp, dtype=float),
                       np.asarray(Rm.comp, dtype=float), atol=0, rtol=0)


@pytest.mark.parametrize("n", range(3, 9))
def test_float_json_round_trip_is_exact(n):
    for seed in ([5, 5, 0], [5, n, 1], n):
        Rm = random_curvature(n, seed, FLOAT)
        c = Rm.comp
        assert np.array_equal(c, -c.transpose(1, 0, 2, 3))
        assert np.array_equal(c, -c.transpose(0, 1, 3, 2))
        assert np.array_equal(c, c.transpose(2, 3, 0, 1))
        assert np.array_equal(AlgCurvTensor.from_json(Rm.to_json()).comp, c)


def test_invariants_lhs_matches_loop_oracle():
    Rm = random_curvature(4, 21, FLOAT)
    inv = invariants(Rm)
    t = traceless_ricci(Rm).comp
    acc = 0.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    acc += Rm.comp[i, j, k, l] * t[i, k] * t[j, l]
    assert inv.lhs == pytest.approx(acc, rel=1e-12)
    assert inv.ricNormSq == pytest.approx(float((np.asarray(t) ** 2).sum()))


def test_modified_curvature_shifts_sectional_by_eps_R():
    rng = np.random.default_rng(2)
    Rm = random_curvature(4, 9, FLOAT)
    eps = 0.03
    mod = modified_curvature(Rm, eps)
    R = scalar(Rm)
    for _ in range(10):
        p = random_plane(4, rng)
        assert sectional(mod.rmBar, p) == pytest.approx(
            sectional(Rm, p) - eps * R, rel=1e-10, abs=1e-10)
    assert mod.rBar == pytest.approx((1 - 12 * eps) * R)


def test_modified_curvature_rational_exact():
    Rm = constant_curvature(4, Fraction(1), RATIONAL)
    mod = modified_curvature(Rm, Fraction(1, 24))
    # sigma - eps*R = 1 - 12/24 = 1/2 on every coordinate plane
    assert mod.rmBar.comp[0, 1, 0, 1] == Fraction(1, 2)
    assert mod.rBar == (1 - Fraction(12, 24)) * 12


def test_symmetry_validator_names_the_corrupted_tensor():
    from pinchlab.curvature import check_symmetries, random_curvature_stack
    comp = random_curvature_stack(4, [[31, 4, idx] for idx in range(6)])
    check_symmetries(comp)
    for idx, seed in enumerate([[31, 4, idx] for idx in range(6)]):
        assert np.array_equal(comp[idx], random_curvature(4, seed, FLOAT).comp)
    comp[3, 0, 1, 2, 3] += 1e-6   # breaks the symmetries of tensor 3 only
    with pytest.raises(SymmetryError, match="^tensor 3: "):
        check_symmetries(comp)
    # the per-tensor scale: a residual far below one tensor's tolerance is
    # caught in a smaller tensor of the same stack
    comp[3, 0, 1, 2, 3] -= 1e-6
    comp[0] *= 1e9
    comp[5, 0, 1, 0, 1] += 1e-10
    with pytest.raises(SymmetryError, match="^tensor 5: antisymmetry"):
        check_symmetries(comp)
    with pytest.raises(SymmetryError, match="^tensor 0: antisymmetry"):
        AlgCurvTensor(np.array(comp[5]))


def test_symmetry_validator_is_exact_in_rational_mode():
    from pinchlab.curvature import check_symmetries
    comp = np.stack([random_curvature(3, seed, RATIONAL).comp for seed in range(3)])
    check_symmetries(comp)
    comp[1, 0, 1, 0, 1] += Fraction(1, 10 ** 30)
    with pytest.raises(SymmetryError, match="^tensor 1: antisymmetry"):
        check_symmetries(comp)
