from fractions import Fraction

import numpy as np
import pytest

from pinchlab.curvature import (
    FLOAT,
    AlgCurvTensor,
    RATIONAL,
    constant_curvature,
    pair_index,
    random_curvature,
    scalar,
    sectional,
)
from pinchlab.minsec import (
    HODGE_STAR,
    DegenerateEpsError,
    SearchOptions,
    dual_min_sectional,
    grid_sectionals,
    min_sectional,
    min_sectional_bracket,
    pair_operator,
    sample_sectionals,
    search_min_sectional,
    shift_to_pinching,
)
from pinchlab.models import (
    default_models,
    fubini_study_cp2,
    product_spheres,
    round_cylinder_s3xr,
)

FAST = SearchOptions(grid_points=20_000, refine_starts=8)

# min_sectional is exact at n = 4; the search it runs in other dimensions is
# checked against the same closed forms and oracles at n = 4 too.
FINDERS = (min_sectional, search_min_sectional)


def test_grid_default_cap():
    assert SearchOptions().grid_for(4) == 160_000
    assert SearchOptions().grid_for(3) == 400
    assert SearchOptions(grid_points=77).grid_for(6) == 77


def test_pair_operator_entries():
    Rm = random_curvature(4, 1, FLOAT)
    rhat = pair_operator(Rm)
    # first basis pair is (0,1), third is (1,2) in lexicographic order
    assert rhat[0, 0] == pytest.approx(Rm.comp[0, 1, 0, 1])
    assert np.allclose(rhat, rhat.T)


def test_min_sectional_constant_curvature():
    for find in FINDERS:
        val, plane = find(constant_curvature(4, Fraction(2), RATIONAL), FAST)
        assert val == pytest.approx(2.0, abs=1e-9), find.__name__
        assert plane.n == 4


def test_min_sectional_cp2():
    for find in FINDERS:
        val, _ = find(fubini_study_cp2().Rm)
        assert val == pytest.approx(1.0, abs=1e-6), find.__name__


def test_min_sectional_products_are_zero():
    for find in FINDERS:
        for m in (product_spheres(1, 1), round_cylinder_s3xr()):
            val, _ = find(m.Rm, FAST)
            assert val == pytest.approx(0.0, abs=1e-8), (find.__name__, m.name)


def test_min_sectional_below_sampling_oracle():
    cases = [(4, seed) for seed in range(5)] + [(5, 2)]
    for find in FINDERS:
        for n, seed in cases:
            Rm = random_curvature(n, seed, FLOAT)
            val, plane = find(Rm, FAST)
            oracle = sample_sectionals(Rm, 50_000, seed).min()
            assert val <= oracle + 1e-9, (find.__name__, n, seed)
            # the returned plane actually achieves the returned value
            assert sectional(Rm, plane) == pytest.approx(val, rel=1e-9, abs=1e-9)


def test_grid_is_deterministic():
    Rm = random_curvature(5, 3, FLOAT)
    v1, _, _ = grid_sectionals(Rm, 5000)
    v2, _, _ = grid_sectionals(Rm, 5000)
    assert np.array_equal(v1, v2)


@pytest.mark.parametrize("eps", [0.0, 1.0 / 24.0])
def test_shift_to_pinching_certifies(eps):
    for seed in range(3):
        Rm = random_curvature(4, seed, FLOAT)
        shifted = shift_to_pinching(Rm, eps, margin=0.05, opts=FAST)
        R = scalar(shifted)
        for find in FINDERS:
            val, _ = find(shifted, FAST)
            assert val >= eps * R - 1e-9 * max(1.0, abs(R)), (find.__name__, seed)


def test_shift_rejects_degenerate_eps():
    Rm = random_curvature(4, 0, FLOAT)
    with pytest.raises(DegenerateEpsError):
        shift_to_pinching(Rm, 1.0 / 12.0)


def test_shift_rational_mode_stays_rational():
    Rm = random_curvature(4, 2, RATIONAL, scale=3)
    shifted = shift_to_pinching(Rm, Fraction(0), margin=0, opts=FAST)
    assert shifted.mode == RATIONAL
    assert shifted.bianchi_residual() == 0


# ---------------------------------------------------------------------------
# The n = 4 dual solve, checked against the search and the sampling oracle
# ---------------------------------------------------------------------------

def _scale(Rm):
    return max(1.0, np.linalg.norm(pair_operator(Rm)))


def test_hodge_star_is_the_plucker_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        w = np.array([x[i] * y[j] - x[j] * y[i] for i, j in pair_index(4)])
        assert w @ HODGE_STAR @ w == pytest.approx(0.0, abs=1e-12)
        w = rng.standard_normal(6)
        pluecker = w[0] * w[5] - w[1] * w[4] + w[2] * w[3]
        assert w @ HODGE_STAR @ w == pytest.approx(2 * pluecker, abs=1e-12)


def test_dual_agrees_with_search_on_random_tensors():
    for seed in range(200):
        Rm = random_curvature(4, [17, seed], FLOAT)
        lower, upper, plane = dual_min_sectional(Rm)
        searched, _ = search_min_sectional(Rm, FAST)
        tol = 1e-12 * _scale(Rm)
        assert abs(upper - searched) <= tol, seed
        assert lower <= searched, seed
        assert lower <= upper <= lower + tol, seed
        assert sectional(Rm, plane) == pytest.approx(upper, abs=tol)


def test_dual_bracket_is_tight_and_below_sampling_oracle():
    for seed in range(600):
        Rm = random_curvature(4, [29, seed], FLOAT)
        lower, upper, _ = dual_min_sectional(Rm)
        assert lower <= upper <= lower + 1e-12 * _scale(Rm), seed
        if seed < 50:
            assert lower <= sample_sectionals(Rm, 20_000, seed).min(), seed


def test_dual_exact_on_models_with_degenerate_eigenspaces():
    for m in default_models():
        lower, upper, plane = dual_min_sectional(m.Rm)
        closed = float(m.minSecClosedForm)
        assert lower <= closed <= lower + 1e-12 * _scale(m.Rm), m.name
        assert upper == pytest.approx(closed, abs=1e-12), m.name
        assert float(sectional(m.Rm, plane)) == pytest.approx(upper, abs=1e-12), m.name


def test_dual_on_rational_tensor():
    Rm = random_curvature(4, 2, RATIONAL, scale=3)
    lower, upper, plane = dual_min_sectional(Rm)
    assert isinstance(lower, float) and isinstance(upper, float)
    searched, _ = search_min_sectional(Rm, FAST)
    assert lower <= upper <= lower + 1e-12 * _scale(Rm)
    assert upper == pytest.approx(searched, abs=1e-12 * _scale(Rm))
    assert float(sectional(Rm, plane)) == pytest.approx(upper, abs=1e-12 * _scale(Rm))


def test_bracket_dispatches_on_dimension():
    Rm = random_curvature(4, 8, FLOAT)
    lower, upper, plane = dual_min_sectional(Rm)
    assert min_sectional_bracket(Rm, FAST)[:2] == (lower, upper)
    val, found = min_sectional(Rm, SearchOptions(grid_points=1, refine_starts=1))
    assert val == upper
    assert np.array_equal(found.x, plane.x) and np.array_equal(found.y, plane.y)
    Rm = random_curvature(5, 2, FLOAT)
    lower, upper, _ = min_sectional_bracket(Rm, FAST)
    assert lower is None and upper == search_min_sectional(Rm, FAST)[0]


@pytest.mark.parametrize("n", [3, 5])
def test_dual_rejects_other_dimensions(n):
    with pytest.raises(ValueError):
        dual_min_sectional(random_curvature(n, 0, FLOAT))


def test_dual_rejects_non_finite_components():
    comp = np.array(random_curvature(4, 0, FLOAT).comp)
    comp[0, 1, 0, 1] = comp[1, 0, 1, 0] = np.nan
    comp[0, 1, 1, 0] = comp[1, 0, 0, 1] = np.nan
    with pytest.raises(ValueError):
        dual_min_sectional(AlgCurvTensor(4, FLOAT, comp))
