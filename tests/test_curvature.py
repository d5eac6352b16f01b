import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchlab import curvature
from pinchlab.curvature import (
    AlgCurvTensor,
    FLOAT,
    RATIONAL,
    PlaneError,
    Plane,
    SymmetryError,
    bianchi_sums,
    check_curvature_operators,
    constant_curvature,
    eye,
    four_form_basis,
    invariants,
    pair_dimension,
    random_curvature,
    random_curvature_stack,
    ricci,
    scalar,
    sectional,
    traceless_ricci,
    wedge_map,
)
from pinchlab.models import default_models
from pinchlab.scalars import ArithmeticModeError, mode_of
from reference import kulkarni_nomizu, n4_bianchi_projection, n4_residuals, operator_of


def random_plane(n, rng):
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    y = rng.standard_normal(n)
    y -= (y @ x) * x
    y /= np.linalg.norm(y)
    return Plane(x, y)


def coordinate_plane(n, i, j, mode=FLOAT):
    e = eye(n, mode)
    return Plane(e[i], e[j])


def test_constant_curvature_sectional_is_kappa_everywhere():
    rng = np.random.default_rng(7)
    Rm = constant_curvature(4, 2.5, FLOAT)
    for _ in range(20):
        assert sectional(Rm, random_plane(4, rng)) == pytest.approx(2.5, abs=1e-12)


def test_constant_curvature_rational_exact():
    Rm = constant_curvature(5, Fraction(3), RATIONAL)
    for i in range(5):
        for j in range(i + 1, 5):
            assert sectional(Rm, coordinate_plane(5, i, j, RATIONAL)) == Fraction(3)
    assert ricci(Rm)[0, 0] == 4 * Fraction(3)
    assert scalar(Rm) == 5 * 4 * Fraction(3)
    assert not traceless_ricci(Rm).any()


@pytest.mark.parametrize("n", range(3, 9))
def test_constant_curvature_is_half_kulkarni_nomizu_of_the_metric(n):
    for kappa in (1, -1, 0, 3, Fraction(-2, 7)):
        for mode in (FLOAT, RATIONAL):
            g = eye(n, mode)
            half = Fraction(kappa, 2) if mode == RATIONAL else float(kappa) / 2.0
            want = operator_of(kulkarni_nomizu(g, g)) * half
            got = constant_curvature(n, kappa, mode).rhat
            assert got.dtype == want.dtype
            if mode == FLOAT:   # bit for bit, the sign of every zero included
                assert got.tobytes() == want.tobytes(), kappa
            else:
                assert all(type(a) is Fraction and a == b
                           for a, b in zip(got.ravel(), want.ravel())), kappa


def test_kulkarni_nomizu_has_all_symmetries():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    comp = kulkarni_nomizu((a + a.T) / 2, (b + b.T) / 2)
    assert max(n4_residuals(comp).values()) < 1e-13
    AlgCurvTensor(operator_of(comp))   # the constructor enforces the symmetries


def test_mixed_mode_rejected():
    with pytest.raises(ArithmeticModeError):
        kulkarni_nomizu(eye(4, RATIONAL), eye(4, FLOAT))


def test_symmetry_violation_detected():
    rhat = np.zeros((6, 6))
    rhat[0, 1] = 1.0   # missing its transpose
    with pytest.raises(SymmetryError, match="^tensor 0: operator symmetry"):
        AlgCurvTensor(rhat)


def test_mode_and_dimension_are_read_from_the_components():
    Rm = AlgCurvTensor(np.array(random_curvature(4, 3, FLOAT).rhat))
    assert (Rm.n, Rm.mode) == (4, FLOAT)
    assert json.loads(Rm.to_json())["mode"] == FLOAT
    exact = AlgCurvTensor(np.array(random_curvature(3, 3, RATIONAL).rhat))
    assert (exact.n, exact.mode) == (3, RATIONAL)
    assert json.loads(exact.to_json())["mode"] == RATIONAL
    assert isinstance(scalar(exact), Fraction)
    assert mode_of(ricci(exact)) == RATIONAL and mode_of(ricci(Rm)) == FLOAT


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_components_of_no_arithmetic_mode_rejected(dtype):
    with pytest.raises(ArithmeticModeError):
        AlgCurvTensor(np.zeros((6, 6), dtype=dtype))


@pytest.mark.parametrize("shape", [(1, 1), (6, 5), (6, 6, 6), (3, 3, 3, 3), (6,)])
def test_components_of_wrong_shape_rejected(shape):
    # (1, 1) is the operator of n = 2
    with pytest.raises(ValueError, match="operator shape .* is not \\(m, m\\), m = n"):
        AlgCurvTensor(np.zeros(shape))


@pytest.mark.parametrize("m", [2, 4, 5, 7, 8, 9, 27])
def test_operator_of_no_dimension_rejected(m):
    with pytest.raises(ValueError, match=f"m = {m} is not n\\(n-1\\)/2"):
        AlgCurvTensor(np.zeros((m, m)))
    assert [pair_dimension(n * (n - 1) // 2) for n in range(1, 10)] == list(range(1, 10))


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
                assert sectional(Rm, p) == pytest.approx(Rm.components()[i, j, i, j])


@given(seed=st.integers(0, 10_000), n=st.sampled_from([3, 4, 5]))
@settings(max_examples=25, deadline=None)
def test_random_curvature_rational_bianchi_exact(seed, n):
    Rm = random_curvature(n, seed, RATIONAL, scale=5)
    assert n4_residuals(Rm.components())["first Bianchi identity"] == 0
    assert not bianchi_sums(Rm.rhat[None]).any()


def test_random_curvature_deterministic():
    a = random_curvature(4, 123, FLOAT)
    b = random_curvature(4, 123, FLOAT)
    assert np.array_equal(a.rhat, b.rhat)


def test_json_round_trip_rational():
    Rm = random_curvature(4, 5, RATIONAL)
    back = AlgCurvTensor.from_json(Rm.to_json())
    assert (back.rhat == Rm.rhat).all()
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
    assert np.array_equal(back.rhat, Rm.rhat)


@pytest.mark.parametrize("n", range(3, 9))
def test_float_json_round_trip_is_exact(n):
    for seed in ([5, 5, 0], [5, n, 1], n):
        Rm = random_curvature(n, seed, FLOAT)
        assert np.array_equal(Rm.rhat, Rm.rhat.T)
        assert np.array_equal(AlgCurvTensor.from_json(Rm.to_json()).rhat, Rm.rhat)


def test_invariants_lhs_matches_loop_oracle():
    Rm = random_curvature(4, 21, FLOAT)
    inv = invariants(Rm)
    t = traceless_ricci(Rm)
    comp = Rm.components()
    acc = 0.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    acc += comp[i, j, k, l] * t[i, k] * t[j, l]
    assert inv.lhs == pytest.approx(acc, rel=1e-12)
    assert inv.ricNormSq == pytest.approx(float((np.asarray(t) ** 2).sum()))


def test_symmetry_validator_names_the_corrupted_tensor():
    seeds = [[31, 4, idx] for idx in range(6)]
    rhat = random_curvature_stack(4, seeds)
    check_curvature_operators(rhat)
    for idx, seed in enumerate(seeds):
        assert np.array_equal(rhat[idx], random_curvature(4, seed, FLOAT).rhat)
    rhat[3, 0, 5] += 1e-6   # (01, 23): breaks the Bianchi identity of tensor 3 only
    rhat[3, 5, 0] += 1e-6
    with pytest.raises(SymmetryError, match="^tensor 3: first Bianchi identity"):
        check_curvature_operators(rhat)
    # the per-tensor scale: a residual far below one tensor's tolerance is
    # caught in a smaller tensor of the same stack
    rhat[3] = random_curvature(4, seeds[3], FLOAT).rhat
    rhat[0] *= 1e9
    rhat[5, 0, 1] += 1e-10
    with pytest.raises(SymmetryError, match="^tensor 5: operator symmetry"):
        check_curvature_operators(rhat)
    with pytest.raises(SymmetryError, match="^tensor 0: operator symmetry"):
        AlgCurvTensor(np.array(rhat[5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected(bad):
    # NaN passes every tolerance test (it compares false), so it is refused
    # before them, with the tensor and entry that hold it
    rhat = random_curvature_stack(4, [[3, 4, idx] for idx in range(3)])
    rhat[2, 1, 4] = rhat[2, 4, 1] = bad
    with pytest.raises(ValueError, match="^tensor 2: entry \\(1, 4\\) is non-finite"):
        check_curvature_operators(rhat)
    with pytest.raises(ValueError, match="^tensor 0: entry \\(1, 4\\) is non-finite"):
        AlgCurvTensor(np.array(rhat[2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_json_rejects_a_non_finite_entry(bad):
    data = json.loads(random_curvature(4, 0, FLOAT).to_json())
    data["entries"][3][4] = bad
    text = json.dumps(data)   # a bare NaN or Infinity, which json reads back
    assert ("NaN" if np.isnan(bad) else "Infinity") in text
    with pytest.raises(ValueError, match="non-finite"):
        AlgCurvTensor.from_json(text)


def test_symmetry_validator_is_exact_in_rational_mode():
    rhat = np.stack([random_curvature(4, seed, RATIONAL).rhat for seed in range(3)])
    check_curvature_operators(rhat)
    rhat[1, 0, 5] += Fraction(1, 10 ** 30)
    with pytest.raises(SymmetryError, match="^tensor 1: operator symmetry"):
        check_curvature_operators(rhat)
    rhat[1, 5, 0] += Fraction(1, 10 ** 30)
    with pytest.raises(SymmetryError, match="^tensor 1: first Bianchi identity"):
        check_curvature_operators(rhat)


@pytest.mark.parametrize("n", range(4, 9))
def test_lambda4_projection_matches_the_n4_projection(n):
    # exactly in Fractions, and bit for bit in float
    for seed in range(3):
        for mode in (RATIONAL, FLOAT):
            M = curvature._random_operator(n, [seed, n], mode, 10)[None]
            want = n4_bianchi_projection(M, n)
            got = curvature._bianchi_projection(M)
            if mode == RATIONAL:
                assert (got == want).all(), seed
            else:
                assert got.tobytes() == want.tobytes(), seed


@pytest.mark.parametrize("n", range(4, 9))
def test_operator_with_a_lambda4_component_rejected(n):
    rhat = np.stack([random_curvature(n, [seed, n], RATIONAL).rhat for seed in range(3)])
    check_curvature_operators(rhat)
    omega = four_form_basis(n)[-1].astype(int)
    rhat[2] = rhat[2] + omega * Fraction(1, 7)
    with pytest.raises(SymmetryError, match="^tensor 2: first Bianchi identity"):
        check_curvature_operators(rhat)
    with pytest.raises(SymmetryError, match="^tensor 0: first Bianchi identity"):
        AlgCurvTensor(random_curvature(n, 0, FLOAT).rhat + 1e-9 * four_form_basis(n)[0])


@pytest.mark.parametrize("n", range(3, 9))
def test_components_have_every_symmetry(n):
    exact = random_curvature(n, [n, 1], RATIONAL, scale=5)
    assert set(n4_residuals(exact.components()).values()) == {0}
    Rm = random_curvature(n, [n, 1], FLOAT)
    comp = Rm.components()
    residuals = n4_residuals(comp)
    assert residuals.pop("first Bianchi identity") <= 1e-14 * np.abs(comp).max()
    assert set(residuals.values()) == {0.0}
    for T in (Rm, exact):
        assert np.array_equal(operator_of(T.components()), T.rhat)


@pytest.mark.parametrize("n", range(3, 9))
def test_ricci_and_scalar_match_the_components(n):
    Rm = random_curvature(n, [n, 2], RATIONAL, scale=5)
    ric = np.einsum("ijkj->ik", Rm.components())
    assert (ricci(Rm) == ric).all()
    assert scalar(Rm) == np.trace(ric)


@pytest.mark.parametrize("n", range(3, 7))
def test_wedge_map_gives_the_partner_matrix(n):
    # A_x^T Rhat A_x is R(x, ., x, .), and A_x y is x ^ y, exactly
    rng = np.random.default_rng(n)
    Rm = random_curvature(n, [n, 3], RATIONAL, scale=5)
    x = np.array([Fraction(int(v), 7) for v in rng.integers(-9, 10, n)], dtype=object)
    y = np.array([Fraction(int(v), 5) for v in rng.integers(-9, 10, n)], dtype=object)
    A = wedge_map(x)
    assert (A.T @ Rm.rhat @ A == np.einsum("ijkl,i,k->jl", Rm.components(), x, x)).all()
    assert (A @ y == curvature.bivector(x, y)).all()


# sha256 over to_json() of the five models, then of random_curvature(n, seed,
# mode) for n = 3..8, seed 0..2, float then rational, taken with the n^4
# components and their projection before the operator became the stored form
PINNED_JSON_DIGEST = "9207c6dc9a0d22d90cab573d54bfed9242e2b3a27f87484caef540aa01152052"


def test_to_json_is_unchanged():
    h = hashlib.sha256()
    for m in default_models():
        h.update(m.Rm.to_json().encode())
    for n in range(3, 9):
        for seed in range(3):
            for mode in (FLOAT, RATIONAL):
                h.update(random_curvature(n, seed, mode).to_json().encode())
    assert h.hexdigest() == PINNED_JSON_DIGEST
