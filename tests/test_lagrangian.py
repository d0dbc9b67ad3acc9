import dataclasses
import math
import re

import numpy as np
import pytest

from fiberflow.errors import PreconditionError
from fiberflow.geometry import FiberedSpace, PointSet
from fiberflow.lagrangian import (
    CONVEXITY_TOL,
    SCALING_TOL,
    Lagrangian,
    biconjugate,
    certification_grid,
    check_axioms,
    legendre_transform,
    model_quadratic,
    power_lagrangian,
    zero_lagrangian,
)
from fiberflow.scenario import paper_counterexample, random_scenario
from fiberflow.section import Section, bound_K, max_row_gaps
from test_section import segments_section, two_line_section


def test_model_normalization():
    L = model_quadratic()
    t, d = 0.7, 2.3
    assert t * float(L(d / t)) == pytest.approx(d * d / (2 * t), rel=1e-15)


def test_model_passes_axioms(paper, two_point, singleton):
    for scenario in (paper, two_point, singleton):
        report = check_axioms(scenario.lagrangian(), scenario.section(), scenario.grids.times)
        assert report.passed, scenario.name


def test_zero_lagrangian_zero_slack(two_point):
    report = check_axioms(zero_lagrangian(), two_point.section(), [0.5, 1.0, 2.0])
    assert report.convexity_worst <= 0.0
    assert report.compatibility_worst <= 0.0
    assert report.scaling_worst <= 0.0


def test_exponential_violates_compatibility(paper):
    L = Lagrangian(fn=np.exp)
    report = check_axioms(L, paper.section(), [1.0])
    assert report.compatibility_worst > 0.0
    assert not report.passed
    assert report.compatibility_witness is not None


def test_power_lagrangian_convexity_certified(two_point):
    report = check_axioms(power_lagrangian(4.0), two_point.section(), [1.0, 2.0])
    assert report.convexity_worst <= CONVEXITY_TOL
    assert report.scaling_worst <= SCALING_TOL


def test_power_needs_exponent_at_least_one():
    with pytest.raises(PreconditionError):
        power_lagrangian(0.5)


@pytest.mark.parametrize("exponent, scale", [(math.nan, 1.0), (math.inf, 1.0), (4.0, math.nan), (4.0, math.inf), (2.0, -math.inf)])
def test_power_refuses_a_non_finite_exponent_or_scale(exponent, scale):
    with pytest.raises(PreconditionError, match="power_lagrangian needs a finite"):
        power_lagrangian(exponent, scale)


# v^p by square-and-multiply, low bit first, in Python floats
CHAINS = {
    1: lambda v: v,
    2: lambda v: v * v,
    3: lambda v: v * (v * v),
    4: lambda v: (v * v) * (v * v),
    5: lambda v: v * ((v * v) * (v * v)),
    8: lambda v: ((v * v) * (v * v)) * ((v * v) * (v * v)),
}


@pytest.mark.parametrize("p", sorted(CHAINS))
def test_integer_power_penalty_is_a_multiplication_chain(p):
    v = np.random.default_rng(p).uniform(0.0, 50.0, 200_000)
    for scale in (1.0, 0.3):
        L = power_lagrangian(float(p), scale)
        expected = np.array([scale * CHAINS[p](x) / p for x in v.tolist()])
        assert L(v).tobytes() == expected.tobytes()
        assert np.array([L.fn(x) for x in v.tolist()]).tobytes() == expected.tobytes()


def test_two_point_transform_table(two_point):
    sec = two_point.section()
    L = two_point.lagrangian()
    table = legendre_transform(L, sec, 1, 1.0, xi_grid=np.linspace(0.0, 1.0, 101))
    assert np.allclose(np.sort(table.achievable_w), [0.0, math.sqrt(2.0)])
    # two-element max oracle: L*(xi) = max(0, sqrt(2) xi - 1)
    expected = np.maximum(0.0, math.sqrt(2.0) * table.xi_grid - float(L(math.sqrt(2.0))))
    assert np.allclose(table.lstar, expected, atol=1e-15)
    i0 = int(np.argmin(np.abs(table.xi_grid - 1.0)))
    assert table.lstar[i0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
    assert table.lstar[0] == 0.0  # xi = 0 with w = 0 achievable


def test_claim_column_matches_at_zero_misses_elsewhere(two_point):
    sec = two_point.section()
    table = legendre_transform(two_point.lagrangian(), sec, 1, 1.0, xi_grid=np.array([0.0, 0.1]))
    mism = table.claim_mismatch()
    assert not mism[0]  # xi = 0: claim gives 0 = L*(0)
    assert mism[1]  # xi = 0.1: claim 0.1*sqrt(2) vs computed 0
    assert table.claim_linear[1] == pytest.approx(0.1 * math.sqrt(2.0), abs=1e-12)
    assert table.lstar[1] == 0.0


def test_fenchel_young_exact(paper):
    sec = paper.section()
    L = paper.lagrangian()
    for y, t in ((0, 1.0), (40, 2.0)):
        table = legendre_transform(L, sec, y, t)
        w = table.achievable_w
        Lw = L(w)
        for i in range(table.xi_grid.size):
            # identity-level: the finite max dominates each score term exactly
            scores = table.xi_grid[i] * w - Lw
            assert np.all(table.lstar[i] - scores >= 0.0)


def test_lstar_midpoint_convex(paper, two_point):
    for scenario, y in ((paper, 40), (two_point, 1)):
        sec = scenario.section()
        table = legendre_transform(scenario.lagrangian(), sec, y, 1.0)
        ls = table.lstar
        mid = (ls[:-2] + ls[2:]) / 2.0  # uniform grid: xi[i+1] is the midpoint
        assert np.all(ls[1:-1] <= mid + 1e-12)


def test_biconjugate_one_sided(two_point):
    sec = two_point.section()
    L = two_point.lagrangian()
    w = math.sqrt(2.0)
    table = biconjugate(L, sec, 1, 1.0, w_grid=np.array([0.0, w]), xi_grid=np.linspace(0, 1, 101))
    assert np.all(table.gap >= -1e-12)  # H* <= L on achievable speeds
    assert table.hstar[0] <= 0.0 + 1e-15  # H*(0) = -min H <= 0 = L(0)


def test_biconjugate_requires_achievable_w(two_point):
    sec = two_point.section()
    w = math.sqrt(2.0)  # achievable at (y, t) = (1, 1), like 0
    for w_grid, first_bad in (([0.5], 0.5), ([0.0, math.nan], math.nan), ([w, w + 1e-9, math.nan], w + 1e-9)):
        # the message names the first refused speed; NaN is within 1e-12 of no speed
        with pytest.raises(PreconditionError, match=re.escape(f"w={np.float64(first_bad)!r} ")):
            biconjugate(two_point.lagrangian(), sec, 1, 1.0, w_grid=np.array(w_grid))


def test_refinement_monotone_exact(two_point):
    sec = two_point.section()
    L = two_point.lagrangian()
    xi_full = np.linspace(0.0, 1.0, 1001)
    w = np.array([0.0, math.sqrt(2.0)])
    g11 = biconjugate(L, sec, 1, 1.0, w, xi_grid=xi_full[::100]).gap
    g101 = biconjugate(L, sec, 1, 1.0, w, xi_grid=xi_full[::10]).gap
    g1001 = biconjugate(L, sec, 1, 1.0, w, xi_grid=xi_full).gap
    # nested grids: the finite max can only grow, the gap can only shrink
    assert np.all(g11 - g101 >= 0.0)
    assert np.all(g101 - g1001 >= 0.0)


def _dense_line_section(n: int = 101, spacing: float = 0.01) -> Section:
    pts = np.array([[spacing * i] for i in range(n)])
    fibers = tuple(PointSet(np.array([[spacing * i]])) for i in range(n))
    space = FiberedSpace(base_points=np.array([[float(i)] for i in range(n)]), fibers=fibers)
    return Section(space=space, values=pts)


def test_biconjugate_recovers_L_in_dense_classical_case():
    # achievable speeds fill [0, 1] at resolution 0.01 and xi is dense in [0, 1]:
    # the double transform returns the quadratic within grid resolution
    sec = _dense_line_section()
    L = model_quadratic()
    w = np.sort(sec.fiber_distances()[0])  # 0, 0.01, ..., 1.0
    table = biconjugate(L, sec, 0, 1.0, w_grid=w, xi_grid=np.linspace(0, 1, 1001))
    assert float(np.abs(table.gap).max()) <= 1e-3


def test_default_grid_needs_finite_ils():
    space = FiberedSpace(
        base_points=np.array([[0.0], [1.0]]),
        fibers=(PointSet(np.array([[0.0]])), PointSet(np.array([[0.0], [5.0]]))),
    )
    sec = Section(space=space, values=np.array([[0.0], [5.0]]))
    with pytest.raises(PreconditionError):
        legendre_transform(model_quadratic(), sec, 0, 1.0)


def test_negative_xi_rejected(two_point):
    for xi_grid in ([-0.1], [0.0, math.nan]):
        with pytest.raises(PreconditionError, match="xi grid must be nonnegative"):
            legendre_transform(two_point.lagrangian(), two_point.section(), 0, 1.0, xi_grid=np.array(xi_grid))


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_transform_refuses_a_nonpositive_time(two_point, t):
    with pytest.raises(PreconditionError, match="t must be positive"):
        legendre_transform(two_point.lagrangian(), two_point.section(), 1, t)


@pytest.mark.parametrize("t_list", [[], [0.0], [1.0, -1.0], [math.nan], [1.0, math.nan]])
def test_axioms_refuse_a_nonpositive_time(two_point, t_list):
    with pytest.raises(PreconditionError, match="t_list must be nonempty and positive"):
        check_axioms(two_point.lagrangian(), two_point.section(), t_list)


def test_axioms_refuse_an_infinite_time(paper):
    # an infinite time gave compatibility_worst = -inf and a passing report
    for t_list in ([math.inf], [0.01, math.inf]):
        with pytest.raises(PreconditionError, match="with every time finite"):
            check_axioms(paper.lagrangian(), paper.section(), t_list)


def test_transform_refuses_an_infinite_time_or_xi(paper):
    # an infinite t gave all-zero speeds and L*, an infinite xi a NaN row of L*
    L, sec = paper.lagrangian(), paper.section()
    with pytest.raises(PreconditionError, match="t must be positive and finite"):
        legendre_transform(L, sec, 0, math.inf)
    for xi_grid in ([0.0, math.inf], []):
        with pytest.raises(PreconditionError, match="xi grid must be nonnegative, finite and nonempty"):
            legendre_transform(L, sec, 0, 0.02, xi_grid=xi_grid)
    for xi_resolution in (0, 4097, 11.0):
        with pytest.raises(PreconditionError, match=r"xi_resolution must be an integer in \[1, 4096\]"):
            legendre_transform(L, sec, 0, 0.02, xi_resolution=xi_resolution)


def test_biconjugate_refuses_an_infinite_time(paper):
    with pytest.raises(PreconditionError, match="t must be positive and finite"):
        biconjugate(paper.lagrangian(), paper.section(), 0, math.inf, [0.0])


@pytest.mark.parametrize("y", [-1, 81, 1.0, math.nan])
def test_transforms_refuse_a_base_index_outside_the_base_set(paper, y):
    # y = -1 took the last base point, y = 81 raised IndexError
    L, sec = paper.lagrangian(), paper.section()
    with pytest.raises(PreconditionError, match=r"base index must be an integer in \[0, 81\)"):
        legendre_transform(L, sec, y, 0.02)
    with pytest.raises(PreconditionError, match=r"base index must be an integer in \[0, 81\)"):
        biconjugate(L, sec, y, 0.02, [0.0])


def test_a_penalty_is_its_function_and_its_declaration():
    assert [f.name for f in dataclasses.fields(Lagrangian)] == ["fn", "nondecreasing_convex"]
    scenario = paper_counterexample()
    scenario.section = None  # the penalty of a scenario does not read its section
    assert scenario.lagrangian().is_model_quadratic


def test_convexity_is_certified_over_the_speeds_the_scenario_reaches(paper):
    # convex on [0, 10] and concave beyond; the paper's speeds D / t reach 20 at the fast time
    def fn(v):
        return np.where(v <= 10.0, 0.5 * v * v, 50.0 + 10.0 * (v - 10.0) - (v - 10.0) ** 2)

    L = Lagrangian(fn=fn)
    sec = paper.section()
    w_max = float(sec.fiber_distances().max())
    slow, fast = [w_max / 5.0], [w_max / 20.0]
    assert certification_grid(sec, slow)[-1] == pytest.approx(5.0)
    assert certification_grid(sec, fast)[-1] == pytest.approx(20.0)
    assert check_axioms(L, sec, slow).convexity_worst <= CONVEXITY_TOL
    report = check_axioms(L, sec, fast)
    assert report.convexity_worst > CONVEXITY_TOL and not report.passed


def reference_compatibility(L, section, t_list):
    """The compatibility scan over all triples, one time at a time:
    (worst slack, witness (x, y, z, t)), the first maximum winning."""
    D, E, K = section.fiber_distances(), section.value_distances(), bound_K(section)
    worst, witness = -math.inf, None
    for t in t_list:
        A = t * L(D / t)
        Lvals = L(E / t)
        if np.any(Lvals < 0):
            worst, witness = math.inf, None
            continue
        slack = max_row_gaps(A) - 2.0 * K * np.sqrt(Lvals)
        y, x = np.unravel_index(int(np.argmax(slack)), slack.shape)
        if slack[y, x] > worst:
            worst, witness = float(slack[y, x]), (int(x), int(y), int(np.argmax(A[y] - A[x])), float(t))
    return worst, witness


def _compatibility(L, section, t_list):
    report = check_axioms(L, section, t_list)
    return report.compatibility_worst, report.compatibility_witness


def test_factories_declare_nondecreasing_convex():
    assert model_quadratic().nondecreasing_convex and zero_lagrangian().nondecreasing_convex
    assert power_lagrangian(4.0).nondecreasing_convex and power_lagrangian(1.0, 0.0).nondecreasing_convex
    assert not power_lagrangian(2.0, -1.0).nondecreasing_convex
    assert not Lagrangian(fn=np.square).nondecreasing_convex


def test_pruned_compatibility_equals_full_scan(paper, two_point, singleton, tie):
    sections = [sc.section() for sc in (paper, two_point, singleton, tie)]
    sections += [random_scenario(seed).section() for seed in range(40)]
    sections += [two_line_section(40), segments_section(30)]
    penalties = [model_quadratic(), power_lagrangian(4.0), power_lagrangian(1.5, 0.3), zero_lagrangian()]
    positive = 0
    for sec in sections:
        for k, L in enumerate(penalties):
            for times in ([0.01, 0.5, 2.0], [2.0, 0.04, 0.3]):
                got = _compatibility(L, sec, times)
                assert got == reference_compatibility(L, sec, times), (k, times)
                positive += got[0] > 0
    assert positive > 50  # failing verdicts are covered, not only the diagonal's zero


def test_compatibility_bound_margin_on_near_ties():
    # the scale puts the worst slack of a small section within a few ulps of
    # the diagonal's 0, where the computed bound can fall below the computed slack
    rng = np.random.default_rng(0)
    cases = 0
    for _ in range(100):
        kappa, n = int(rng.integers(1, 3)), int(rng.integers(3, 5))
        values = rng.uniform(-5, 5, (n, kappa))
        fibers = tuple(
            PointSet(np.vstack([v, v + rng.uniform(-3, 3, (int(rng.integers(0, 2)), kappa))])) for v in values
        )
        base = np.arange(n * kappa, dtype=float).reshape(n, kappa)
        space = FiberedSpace(base_points=base, fibers=fibers)
        sec = Section(space=space, values=values)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
        L1 = power_lagrangian(p)
        lhs = max_row_gaps(L1(sec.fiber_distances()))
        rhs = 2.0 * bound_K(sec) * np.sqrt(L1(sec.value_distances()))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(lhs > 0, rhs / lhs, np.inf)
        np.fill_diagonal(ratio, np.inf)
        scale = float(ratio.min()) ** 2  # slack = scale lhs - sqrt(scale) rhs crosses 0 here
        if not 0 < scale < math.inf:
            continue
        for k in range(-4, 5):
            L = power_lagrangian(p, scale * (1 + k * 2.0**-52))
            assert _compatibility(L, sec, [1.0]) == reference_compatibility(L, sec, [1.0]), (p, k)
            cases += 1
    assert cases > 500


def test_hand_built_penalty_keeps_the_full_scan(paper):
    # decreasing, so the bound does not hold; undeclared, so pruning stays off
    L = Lagrangian(fn=lambda v: np.exp(-v))
    sec = paper.section()
    expected = reference_compatibility(L, sec, [0.05, 1.0])
    assert _compatibility(L, sec, [0.05, 1.0]) == expected
    assert expected[0] > 0
