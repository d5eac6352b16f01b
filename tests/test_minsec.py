from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchlab.curvature import (
    FLOAT,
    AlgCurvTensor,
    Plane,
    RATIONAL,
    bianchi_sums,
    bivector,
    constant_curvature,
    diagonal_tensor,
    four_form_basis,
    pair_basis,
    random_curvature,
    random_curvature_stack,
    scalar,
    sectional,
)
from pinchlab.minsec import (
    HODGE_STAR,
    DegenerateEpsError,
    SearchOptions,
    dual_min_sectional,
    min_sectional,
    pinched,
    require_subcritical,
    shift_to_pinching,
)
from pinchlab import minsec
from pinchlab.models import (
    default_models,
    fubini_study_cp2,
    product_spheres,
    round_cylinder_s3xr,
)
from reference import (
    grid_sectionals,
    pair_operator,
    plane_sectionals,
    sample_sectionals,
    search_min_sectional,
)

FAST = SearchOptions(grid_points=20_000, refine_starts=8)

# min_sectional is exact at n = 4; the search it runs in other dimensions is
# checked against the same closed forms and oracles at n = 4 too.
FINDERS = (min_sectional, search_min_sectional)


def _solve(Rm):
    """(multiplier, plane) of Rm's dual: solve_dual_stack of a stack of one."""
    multipliers, x, y = minsec.solve_dual_stack(Rm.rhat[None])
    return multipliers[0], Plane(x[0], y[0])


def _bracket(Rm, multiplier, plane):
    """(lower, upper) of Rm at multiplier and plane: dual_bracket_stack of a
    stack of one."""
    lower, upper = minsec.dual_bracket_stack(Rm.rhat[None], multiplier[None],
                                             plane.x[None], plane.y[None])
    return float(lower[0]), float(upper[0])


def test_grid_default_cap():
    assert SearchOptions().grid_for(4) == 160_000
    assert SearchOptions().grid_for(3) == 400
    assert SearchOptions(grid_points=77).grid_for(6) == 77


def test_pair_operator_entries():
    Rm = random_curvature(4, 1, FLOAT)
    rhat = pair_operator(Rm)
    # first basis pair is (0,1), third is (1,2) in lexicographic order
    assert rhat[0, 0] == Rm.components()[0, 1, 0, 1]
    assert rhat[2, 3] == Rm.components()[0, 3, 1, 2]
    assert np.array_equal(rhat, rhat.T)


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
        shifted, lower, _ = shift_to_pinching(Rm, eps, margin=0.05)
        R = scalar(shifted)
        assert pinched(lower, eps, R), seed
        for find in FINDERS:
            val, _ = find(shifted, FAST)
            assert val >= eps * R - 1e-9 * max(1.0, abs(R)), (find.__name__, seed)


def test_shift_rejects_degenerate_eps():
    Rm = random_curvature(4, 0, FLOAT)
    with pytest.raises(DegenerateEpsError):
        shift_to_pinching(Rm, 1.0 / 12.0)


def test_critical_eps_is_refused_in_every_dimension():
    # decided exactly: float(1/110) * 11 * 10 rounds below 1
    for n in range(3, 200):
        critical = Fraction(1, n * (n - 1))
        with pytest.raises(DegenerateEpsError, match=f">= 1/\\(n\\(n-1\\)\\) = 1/{n * (n - 1)} "):
            require_subcritical(n, critical)
        require_subcritical(n, critical - Fraction(1, 10 ** 6))


def test_eps_whose_float_denominator_vanishes_is_refused():
    # below 1/12 exactly, but 1 - 12 * float(eps) is 0
    eps = Fraction("0.0833333333333333333")
    assert eps < Fraction(1, 12) and 1 - 12 * float(eps) == 0
    with pytest.raises(DegenerateEpsError, match="< 1/\\(n\\(n-1\\)\\) = 1/12 .* rounded to float"):
        require_subcritical(4, eps)
    for eps in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="is not finite"):
            require_subcritical(4, eps)


def test_shift_rational_mode_stays_rational():
    Rm = random_curvature(4, 2, RATIONAL, scale=3)
    shifted, _, _ = shift_to_pinching(Rm, Fraction(0), margin=0)
    assert shifted.mode == RATIONAL
    assert not bianchi_sums(shifted.rhat[None]).any()


# ---------------------------------------------------------------------------
# The n = 4 dual solve, checked against the search and the sampling oracle
# ---------------------------------------------------------------------------

def _scale(Rm):
    return max(1.0, np.linalg.norm(pair_operator(Rm)))


def test_hodge_star_is_the_plucker_form():
    # *e01 = e23, *e02 = -e13, *e03 = e12 in the basis (01, 02, 03, 12, 13, 23)
    assert np.array_equal(HODGE_STAR, np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])))
    i, j, _ = pair_basis(4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        w = x[i] * y[j] - x[j] * y[i]
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


@pytest.mark.parametrize("n", range(3, 9))
def test_sectional_is_the_brackets_kernel(n):
    # the upper end is the curvature of the plane, computed by the same
    # kernel as sectional, so the two agree bit for bit
    for seed in range(12):
        Rm = random_curvature(n, [7, n, seed], FLOAT)
        _, upper, plane = dual_min_sectional(Rm)
        assert sectional(Rm, plane) == upper, seed


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
    val, found = min_sectional(Rm, SearchOptions(grid_points=1, refine_starts=1))
    assert val == upper
    assert np.array_equal(found.x, plane.x) and np.array_equal(found.y, plane.y)
    Rm = random_curvature(5, 2, FLOAT)
    lower, upper, _ = dual_min_sectional(Rm)
    searched = search_min_sectional(Rm, FAST)[0]
    assert lower <= searched
    assert upper == pytest.approx(searched, abs=1e-12 * _scale(Rm))


@pytest.mark.parametrize("n", [9, 10])
def test_dual_rejects_other_dimensions(n):
    with pytest.raises(ValueError):
        dual_min_sectional(random_curvature(n, 0, FLOAT))


def test_dual_rejects_non_finite_components():
    rhat = np.array(random_curvature(4, 0, FLOAT).rhat)
    rhat[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        dual_min_sectional(AlgCurvTensor(rhat))
    # the tensor refuses the entry; the dual's stack refuses it on its own
    with pytest.raises(ValueError, match="non-finite"):
        minsec.solve_dual_stack(rhat[None])


# ---------------------------------------------------------------------------
# The 4-form dual in other dimensions
# ---------------------------------------------------------------------------

def _relative_width(lower, upper):
    return (upper - lower) / max(1.0, abs(upper))


def _relaxation_is_inexact(Rm, multiplier, upper):
    """A primal certificate that no 4-form closes the bracket: a density
    Z = V C V^T on the bottom eigenvectors V at the multiplier, C >= 0,
    tr Z = 1 and <Z, M_j> = 0 for every basis 4-form, so that every
    multiplier's lambda_min is at most <Rhat, Z> = lambda_min here, which
    lies below upper."""
    basis = four_form_basis(Rm.n)
    lam, vecs = np.linalg.eigh(pair_operator(Rm) + np.tensordot(multiplier, basis, 1))
    V = vecs[:, lam <= lam[0] + 1e-8 * max(1.0, abs(lam[0]))]
    r = V.shape[1]
    iu = np.triu_indices(r)
    units = []
    for a, b in zip(*iu):
        C = np.zeros((r, r))
        C[a, b] = C[b, a] = 1.0
        units.append(C)
    rows = [[np.sum(V.T @ M @ V * C) for C in units] for M in basis]
    rows.append([np.trace(C) for C in units])
    rhs = np.zeros(len(rows))
    rhs[-1] = 1.0
    coef = np.linalg.lstsq(np.array(rows), rhs, rcond=None)[0]
    C = sum(c * U for c, U in zip(coef, units))
    Z = V @ C @ V.T
    residual = max([abs(np.sum(Z * M)) for M in basis] + [abs(np.trace(Z) - 1)])
    return (residual <= 1e-9 and np.linalg.eigvalsh(C)[0] >= -1e-9
            and lam[0] + 1e-9 * max(1.0, abs(upper)) < upper)


@pytest.mark.parametrize("n", range(3, 9))
def test_pair_basis_indexes_the_pair_operator(n):
    i, j, position = pair_basis(n)
    rng = np.random.default_rng(n)
    sigma = rng.standard_normal(len(i))
    for mode in (FLOAT, RATIONAL):
        Rm = diagonal_tensor(sigma, n, mode)
        assert np.array_equal(pair_operator(Rm), np.diag(sigma))
    for a in range(len(i)):
        x, y = np.eye(n)[i[a]], np.eye(n)[j[a]]
        assert position[i[a], j[a]] == position[j[a], i[a]] == a
        assert np.array_equal(bivector(x, y), np.eye(len(i))[a])
        assert np.array_equal(bivector(y, x), -np.eye(len(i))[a])


def test_four_form_basis_vanishes_on_planes():
    assert np.array_equal(four_form_basis(4), HODGE_STAR[None])
    assert four_form_basis(3).shape == (0, 3, 3)
    rng = np.random.default_rng(4)
    for n in range(4, 9):
        basis = four_form_basis(n)
        m = n * (n - 1) // 2
        assert basis.shape == (n * (n - 1) * (n - 2) * (n - 3) // 24, m, m)
        assert not basis.flags.writeable
        assert np.array_equal(basis, basis.transpose(0, 2, 1))
        x, y = rng.standard_normal((2, 20, n))
        i, j, _ = pair_basis(n)
        w = x[:, i] * y[:, j] - x[:, j] * y[:, i]
        assert np.abs(np.einsum("pa,kab,pb->pk", w, basis, w)).max() <= 1e-12 * n


def test_dual_in_dimension_three_is_the_bottom_eigenvalue():
    for seed in range(20):
        Rm = random_curvature(3, [31, seed], FLOAT)
        lower, upper, plane = dual_min_sectional(Rm)
        closed = np.linalg.eigvalsh(pair_operator(Rm))[0]
        tol = 1e-12 * _scale(Rm)
        assert lower <= closed <= lower + tol, seed
        assert upper == pytest.approx(closed, abs=tol), seed
        assert sectional(Rm, plane) == pytest.approx(upper, abs=tol), seed


@pytest.mark.parametrize("n", [5, 6])
def test_dual_bracket_below_sampling_oracle(n):
    open_brackets = 0
    for seed in range(200):
        Rm = random_curvature(n, [37, n, seed], FLOAT)
        multiplier, plane = _solve(Rm)
        lower, upper = _bracket(Rm, multiplier, plane)
        assert lower <= upper, seed
        assert lower <= sample_sectionals(Rm, 2_000, seed).min(), seed
        assert sectional(Rm, plane) == pytest.approx(upper, abs=1e-12 * _scale(Rm))
        if _relative_width(lower, upper) > 1e-8:
            open_brackets += 1
            assert _relaxation_is_inexact(Rm, multiplier, upper), seed
    assert open_brackets <= 4


@pytest.mark.parametrize("n", [5, 6, 7])
def test_dual_matches_search(n):
    # the upper end is a polish from the bottom eigenspace; one stuck in a
    # local minimum would show as upper above the multi-start search
    count, opts = {5: (40, FAST), 6: (20, FAST),
                   7: (8, SearchOptions(grid_points=10_000, refine_starts=8))}[n]
    for seed in range(count):
        Rm = random_curvature(n, [41, seed] if n == 5 else [41, n, seed], FLOAT)
        multiplier, plane = _solve(Rm)
        lower, upper = _bracket(Rm, multiplier, plane)
        searched, _ = search_min_sectional(Rm, opts)
        assert upper <= searched + 1e-9, seed
        assert lower <= searched, seed
        assert (_relative_width(lower, upper) <= 1e-8
                or _relaxation_is_inexact(Rm, multiplier, upper)), seed


def test_bottom_plane_does_not_depend_on_the_eigenbasis():
    # Where the relaxation is inexact the bottom eigenspace is multiple and
    # LAPACK's basis of it depends on roundoff (BLAS threads, say).  Polished
    # from the basis vectors alone, both tensors missed the search's minimum
    # for some of these rotated bases.
    from pinchlab.minsec import _bottom_plane
    for seed in ([97, 7, 9], [66, 5, 0]):
        Rm = random_curvature(seed[1], seed, FLOAT)
        multiplier, _ = _solve(Rm)
        A = pair_operator(Rm) + np.tensordot(multiplier, four_form_basis(Rm.n), 1)
        lam, vecs = np.linalg.eigh(A)
        V = vecs[:, lam <= lam[0] + 1e-8 * max(1.0, lam[-1] - lam[0])]
        assert V.shape[1] == 3
        searched, _ = search_min_sectional(Rm, FAST)
        rng = np.random.default_rng(53)
        for _ in range(12):
            Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            plane = Plane(*_bottom_plane(pair_operator(Rm), V @ Q))
            assert sectional(Rm, plane) <= searched + 1e-9, seed


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 8), seed=st.integers(0, 2 ** 32 - 1),
       steps=st.sampled_from([0, 1, 2, None]))
def test_polish_never_raises_the_curvature(n, seed, steps):
    # from random start planes, also when stopped at a lowered step cap
    rng = np.random.default_rng(seed)
    Rm = random_curvature(n, seed, FLOAT)
    x, y = minsec._orthonormal_pairs(rng.standard_normal((1, 2 * n)), n)
    start = Plane(x[0], y[0])
    with pytest.MonkeyPatch.context() as mp:
        if steps is not None:
            mp.setattr(minsec, "POLISH_STEPS", steps)
        x, y = minsec._polish(pair_operator(Rm), x, y)
    assert x.shape == y.shape == (1, n)
    plane = Plane(x[0], y[0])
    gram = np.array([[plane.x @ plane.x, plane.x @ plane.y],
                     [plane.y @ plane.x, plane.y @ plane.y]])
    assert np.abs(gram - np.eye(2)).max() <= 1e-12
    curvature = plane_sectionals(Rm, plane.x[None, :], plane.y[None, :])[0]
    before = plane_sectionals(Rm, start.x[None, :], start.y[None, :])[0]
    assert curvature <= before
    if steps is None:   # the default cap: a stationary plane, well below a random one
        assert curvature < before


def test_inexact_relaxation_leaves_the_bracket_open():
    # one of the n = 5 tensors where no 4-form reaches min Sec
    Rm = random_curvature(5, [116, 5, 3], FLOAT)
    multiplier, plane = _solve(Rm)
    lower, upper = _bracket(Rm, multiplier, plane)
    searched, _ = search_min_sectional(Rm, FAST)
    assert upper == pytest.approx(searched, abs=1e-9)
    assert _relative_width(lower, upper) > 1e-2
    assert _relaxation_is_inexact(Rm, multiplier, upper)


def test_dual_bracket_moves_with_a_shift():
    for n in (4, 5):
        Rm = random_curvature(n, [43, n], FLOAT)
        multiplier, plane = _solve(Rm)
        lower, upper = _bracket(Rm, multiplier, plane)
        shifted, _, _ = shift_to_pinching(Rm, 0.0, margin=0.5)
        c = 0.5 - upper
        assert np.allclose(pair_operator(shifted), pair_operator(Rm) + c * np.eye(len(pair_operator(Rm))))
        assert _bracket(shifted, multiplier, plane) == pytest.approx(
            (lower + c, upper + c), abs=1e-12 * _scale(Rm))
        assert dual_min_sectional(shifted)[0] == pytest.approx(lower + c, abs=1e-12 * _scale(Rm))


def _maximize_one(rhat):
    # the safeguarded Newton iteration of _maximize_star on a single 6 x 6
    # Rhat, as a scalar loop
    spectrum = np.linalg.eigvalsh(rhat)
    spread = spectrum[-1] - spectrum[0]
    tol = np.finfo(float).eps * spread
    lo, hi, f_lo, f_hi, s_lo, s_hi = -spread, spread, spectrum[0], spectrum[0], 1.0, -1.0
    t, move, best = 0.0, 2 * spread, None
    for _ in range(minsec.STAR_STEPS):
        lam, vecs = np.linalg.eigh(rhat + t * HODGE_STAR)
        if best is None or lam[0] > best[1]:
            best = (t, lam[0], vecs)
        coupling = np.vecdot(vecs.T, vecs[:, 0] @ HODGE_STAR)
        slope = coupling[0]
        if slope > 0:
            lo, f_lo, s_lo = t, lam[0], slope
        elif slope < 0:
            hi, f_hi, s_hi = t, lam[0], slope
        meet = (f_hi - f_lo + s_lo * lo - s_hi * hi) / (s_lo - s_hi)
        if slope == 0 or hi - lo <= tol or f_lo + s_lo * (meet - lo) - best[1] <= tol:
            break
        gaps = lam[1:] - lam[0]
        if gaps[0] > minsec.KINK_GAP * spread:
            with np.errstate(divide="ignore"):   # a linear branch: f'' = 0
                point = t + slope / (2 * (coupling[1:] ** 2 / gaps).sum())
        else:
            point = meet
        if not (lo < point < hi and abs(point - t) <= move / 2):
            point = (lo + hi) / 2
        move, t = abs(point - t), point
    return best[0], best[2]


def test_lockstep_bisection_matches_one_at_a_time():
    # a constant-curvature tensor (zero spread, stops at once), a diagonal
    # one, CP^2 (kinks) and random ones, maximized in one stack and one at a
    # time
    tensors = [constant_curvature(4, 1.0, FLOAT),
               diagonal_tensor(np.array([3.0, -1.0, 2.0, 0.5, 4.0, -2.0]), 4, FLOAT),
               fubini_study_cp2().Rm]
    tensors += [random_curvature(4, [71, 4, idx], FLOAT) for idx in range(30)]
    rhat = np.stack([Rm.rhat for Rm in tensors]).astype(float)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        eigh = np.linalg.eigh
        mp.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
        t, vecs = minsec._maximize_star(rhat)
    assert calls[0] == len(tensors)
    multipliers, x, y = minsec.solve_dual_stack(rhat)
    for k, Rm in enumerate(tensors):
        t_one, vecs_one = _maximize_one(rhat[k])
        assert t[k] == t_one and np.array_equal(vecs[k], vecs_one), k
        multiplier, plane = _solve(Rm)
        assert np.array_equal(multipliers[k], multiplier), k
        assert np.array_equal(x[k], plane.x) and np.array_equal(y[k], plane.y), k
    # the same tensors in another order and stack size give the same numbers
    order = np.arange(len(tensors))[::-3]
    again = minsec.solve_dual_stack(rhat[order])
    for got, want in zip(again, (multipliers, x, y)):
        assert np.array_equal(got, want[order])


def _star_steps(rhat):
    """The number of steps, one eigh each, _maximize_star takes on rhat."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        eigh = np.linalg.eigh
        mp.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
        minsec._maximize_star(rhat)
    return len(calls)


def test_star_iteration_stops_at_the_kink_of_cp2():
    # f(t) = min(t, 2 - t): the bracket lines meet at its maximum, where a
    # bisection took 53 steps and stopped 4e-16 short of min Sec = 1
    Rm = fubini_study_cp2().Rm
    assert _star_steps(minsec._float_stack(Rm.rhat[None])) <= 6
    lower, upper, _ = dual_min_sectional(Rm)
    assert upper == 1.0 and lower <= 1.0


def test_star_iteration_closes_the_bracket_on_a_sweep():
    # 2000 random tensors in one stack: each stops before the cap, with a
    # bracket as tight as the bisection's final width allows
    rhat = random_curvature_stack(4, [[s, 4, idx] for s in range(5) for idx in range(400)])
    assert _star_steps(rhat) < minsec.STAR_STEPS
    lower, upper = minsec.dual_bracket_stack(rhat, *minsec.solve_dual_stack(rhat))
    spectrum = np.linalg.eigvalsh(rhat)
    spread = spectrum[:, -1] - spectrum[:, 0]
    assert (lower <= upper).all() and (upper - lower <= 2e-14 * spread).all()


def test_shift_stack_matches_one_at_a_time():
    for n in (4, 5):
        seeds = [[72, n, idx] for idx in range(6)]
        rhat = random_curvature_stack(n, seeds)
        shifted, lower, upper = minsec.shift_to_pinching_stack(
            rhat, 1 / 48, 0.1, minsec.solve_dual_stack(rhat))
        for k, seed in enumerate(seeds):
            one, lo, up = shift_to_pinching(random_curvature(n, seed, FLOAT), 1 / 48, 0.1)
            assert np.array_equal(shifted[k], one.rhat) and (lower[k], upper[k]) == (lo, up)


def test_polish_extrapolates_linear_convergence(monkeypatch):
    # an open-bracket tensor with a 4-dimensional bottom eigenspace, where
    # the alternating minimizations converge only linearly: its 16 polishes
    # made 4222 partner solves before the extrapolation
    calls = []
    partner = minsec._best_partner
    monkeypatch.setattr(minsec, "_best_partner", lambda *a: calls.append(1) or partner(*a))
    Rm = random_curvature(6, [7, 6, 7], FLOAT)
    lower, upper, plane = dual_min_sectional(Rm)
    assert len(calls) <= 2000
    searched, _ = search_min_sectional(Rm)
    assert upper <= searched + 1e-13 * abs(searched)
    assert _relative_width(lower, upper) > 1e-3
