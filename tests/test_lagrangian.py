import math

import numpy as np
import pytest

from fiberflow.errors import PreconditionError
from fiberflow.geometry import FiberedSpace, PointSet
from fiberflow.lagrangian import (
    Lagrangian,
    biconjugate,
    check_axioms,
    legendre_transform,
    model_quadratic,
    power_lagrangian,
    zero_lagrangian,
)
from fiberflow.section import Section


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
    L = Lagrangian(fn=np.exp, name="exp", cert_grid=np.linspace(0, 5, 64))
    report = check_axioms(L, paper.section(), [1.0])
    assert report.compatibility_worst > 0.0
    assert not report.passed
    assert report.compatibility_witness is not None


def test_power_lagrangian_convexity_certified(two_point):
    report = check_axioms(power_lagrangian(4.0), two_point.section(), [1.0, 2.0])
    assert report.convex_ok
    assert report.scaling_ok


def test_power_needs_exponent_at_least_one():
    with pytest.raises(PreconditionError):
        power_lagrangian(0.5)


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
    with pytest.raises(PreconditionError):
        biconjugate(two_point.lagrangian(), sec, 1, 1.0, w_grid=np.array([0.5]))


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
    space = FiberedSpace(kappa=1, base_points=np.array([[float(i)] for i in range(n)]), fibers=fibers)
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
        kappa=1,
        base_points=np.array([[0.0], [1.0]]),
        fibers=(PointSet(np.array([[0.0]])), PointSet(np.array([[0.0], [5.0]]))),
    )
    sec = Section(space=space, values=np.array([[0.0], [5.0]]))
    with pytest.raises(PreconditionError):
        legendre_transform(model_quadratic(), sec, 0, 1.0)


def test_negative_xi_rejected(two_point):
    with pytest.raises(PreconditionError):
        legendre_transform(two_point.lagrangian(), two_point.section(), 0, 1.0, xi_grid=np.array([-0.1]))
