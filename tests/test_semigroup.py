import math
from typing import NamedTuple

import numpy as np
import pytest

from fiberflow import runner
from fiberflow.errors import PreconditionError
from fiberflow.geometry import FiberedSpace, PointSet
from fiberflow.lagrangian import Lagrangian, check_axioms, conjugate, model_quadratic, power_lagrangian
from fiberflow.scenario import random_scenario
from fiberflow.section import Section, g_field, global_ILS
from fiberflow.semigroup import (
    DEFAULT_TAU_TIE,
    FD_STEP_SCALE,
    TRACE_LEVELS,
    Verdict,
    _cross_time_worst,
    _neighbor_slopes,
    _quasi_excess_worst,
    _speeds,
    evolution_table,
    evolve_all,
    hj_residual,
    hj_residuals,
    proposition_suite,
    quasi_minimizer_trace,
    slope_estimate_check,
    worst_case,
)
from test_geometry import dist_to_fiber
from test_lagrangian import nan_beyond_the_grid
from test_section import degenerate_section, two_line_section


def naive_scan(section, L, y, t):
    """Independently coded brute-force minimum over the base set."""
    best = math.inf
    for z in range(section.n_base):
        d = dist_to_fiber(section.values[y], section.space.fibers[z]).value
        g = max(section.values[z])
        best = min(best, t * float(L(d / t)) + g)
    return best


class EvolveResult(NamedTuple):
    value: float
    argmin: tuple[int, ...]


def _minimum(branches, tau_tie):
    u = float(branches.min())
    return EvolveResult(u, tuple(int(i) for i in np.nonzero(branches <= u + tau_tie)[0]))


def evolve(section, L, y, t, tau_tie=DEFAULT_TAU_TIE):
    """Per-point reference: the exact minimum at (y, t) from one branch row,
    t L(d(f(y), fiber(z)) / t) + g(z) over z, and its argmin set."""
    return _minimum(t * L(section.fiber_distances()[y] / t) + g_field(section), tau_tie)


def discrete_D(section, L, y, t, tau_tie=DEFAULT_TAU_TIE):
    """Per-point reference (D-, D+): extremal fiber distances over the argmin set."""
    dists = section.fiber_distances()[y, list(evolve(section, L, y, t, tau_tie).argmin)]
    return float(dists.min()), float(dists.max())


def evolve_forward(section, y, t, tau_tie=DEFAULT_TAU_TIE):
    """The original orientation with the quadratic penalty, for comparison with
    the symmetrized evolution: min over z of [ g(z) + d(f(z), fiber(y))^2 / (2t) ]."""
    return _minimum(g_field(section) + section.fiber_distances()[:, y] ** 2 / (2.0 * t), tau_tie)


class TimeDerivative(NamedTuple):
    forward: float
    backward: float
    predicted_plus: float
    predicted_minus: float


def time_derivative(section, y, t, h):
    """One-sided difference quotients of t -> u(y, t) under the quadratic
    penalty, read from the evolution table at t, t + h and t - h, and their
    predictions -(D+-)^2 / (2 t^2) from the argmin set at t."""
    table = evolution_table(section, model_quadratic(), [t, t + h, t - h])
    u0, up, um = table.u[:, y]
    dm, dp = table.iD_minus[0, y], table.iD_plus[0, y]
    return TimeDerivative(
        forward=(up - u0) / h,
        backward=(u0 - um) / h,
        predicted_plus=-(dp * dp) / (2.0 * t * t),
        predicted_minus=-(dm * dm) / (2.0 * t * t),
    )


def reference_slopes(u, den, base_dist, radius):
    """Independent per-node neighbor scan: [(slope, neighbor count)] for every y."""
    out = []
    for y in range(len(u)):
        slope, count = 0.0, 0
        for p in range(len(u)):
            if not 0.0 < base_dist[p, y] <= radius:
                continue
            count += 1
            rise = u[y] - u[p]
            if rise <= 0.0:
                q = 0.0
            elif den[p, y] == 0.0:
                q = math.inf
            else:
                q = rise / den[p, y]
            slope = max(slope, q)
        out.append((slope, count))
    return out


def reference_hj(section, t, radius, lipschitz=False, tau_tie=DEFAULT_TAU_TIE):
    """Per-node HJ residuals from per-node evolutions:
    [(residual, slope, neighbor count, no-neighbor flag)] for every y."""
    L = model_quadratic()
    h = FD_STEP_SCALE * t
    u = [evolve(section, L, y, t, tau_tie).value for y in range(section.n_base)]
    u_h = [evolve(section, L, y, t + h, tau_tie).value for y in range(section.n_base)]
    if lipschitz:
        ils = global_ILS(section)
        den, prefactor = section.fiber_distances(), 2.0 / (ils * ils)
    else:
        den, prefactor = section.value_distances(), 2.0
    base_dist = section.space.base_distance_matrix()
    out = []
    for y, (slope, count) in enumerate(reference_slopes(u, den, base_dist, radius)):
        fd = (u_h[y] - u[y]) / h
        out.append((fd + prefactor * slope * slope, slope, count, count == 0))
    return out


def reference_trace(section, y, levels=20, tau_tie=DEFAULT_TAU_TIE):
    """The quasi-minimizer trace of one base point, one branch row per level:
    (times, argmin_dist, quasi_dist, quasi_bound) as arrays over the levels."""
    L = model_quadratic()
    scale = max(1.0, section.sup_norm())
    D = section.fiber_distances()
    g = g_field(section)
    times, a_dist, q_dist, q_bound = [], [], [], []
    for n in range(levels + 1):
        t_n = scale * 2.0 ** (-n)
        branches = t_n * L(D[y] / t_n) + g
        u = float(branches.min())
        tie = np.nonzero(branches <= u + tau_tie)[0]
        slack = 1.0 / max(n, 1)
        quasi = np.nonzero(branches <= u + slack)[0]
        times.append(t_n)
        a_dist.append(float(D[y, tie].max()))
        q_dist.append(float(D[y, quasi].max()))
        q_bound.append(2.0 * t_n * (2.0 * section.sup_norm() + slack))
    return np.array(times), np.array(a_dist), np.array(q_dist), np.array(q_bound)


def argmin_set(mask_row):
    return tuple(int(z) for z in np.flatnonzero(mask_row))


def test_evolve_all_matches_per_point_reference(paper, tie, singleton, two_point):
    scenarios = [paper, tie, singleton, two_point] + [random_scenario(seed) for seed in (0, 3, 9, 14, 16, 21)]
    for scenario in scenarios:
        sec = scenario.section()
        D = sec.fiber_distances()
        penalties = [scenario.lagrangian(), model_quadratic()]
        penalties += [power_lagrangian(4.0), power_lagrangian(3.0, scale=2.0), power_lagrangian(1.5)]
        for L in penalties:
            for t in (0.01, 0.03, 0.5, 1.0, 1.7, 2.0, 7.0, 1e6):
                u, mask = evolve_all(sec, L, t)
                iD_minus, iD_plus = _speeds(D, mask)
                for y in range(sec.n_base):
                    value, argmin = evolve(sec, L, y, t)
                    assert (u[y], argmin_set(mask[y])) == (value, argmin)
                    assert (iD_minus[y], iD_plus[y]) == discrete_D(sec, L, y, t)


def test_two_point_closed_forms(two_point):
    sec, L = two_point.section(), two_point.lagrangian()
    for t in (0.5, 1.0, 2.0, 7.0):
        assert evolve_all(sec, L, t)[0][0] == pytest.approx(0.0, abs=1e-12)
    u, mask = evolve_all(sec, L, 2.0)
    assert u[1] == pytest.approx(0.5, abs=1e-12)
    assert argmin_set(mask[1]) == (0,)
    for t in (0.5, 1.0, 2.0):
        assert evolve_all(sec, L, t)[0][1] == pytest.approx(min(1.0, 1.0 / t), abs=1e-12)


def test_evolve_matches_naive_scan(paper):
    sec, L = paper.section(), paper.lagrangian()
    for t in (0.03, 1.0):
        u, _ = evolve_all(sec, L, t)
        for y in range(0, sec.n_base, 9):
            assert u[y] == pytest.approx(naive_scan(sec, L, y, t), abs=1e-12)
    rnd = random_scenario(5)
    sec, L = rnd.section(), rnd.lagrangian()
    u, _ = evolve_all(sec, L, 1.7)
    for y in range(sec.n_base):
        assert u[y] == pytest.approx(naive_scan(sec, L, y, 1.7), abs=1e-12)


def test_self_competitor_bound(paper):
    sec, L = paper.section(), paper.lagrangian()
    g = g_field(sec)
    for t in paper.grids.times + [1.0, 5.0]:
        u, _ = evolve_all(sec, L, t)
        for y in range(0, sec.n_base, 7):
            assert u[y] <= g[y] + 1e-12


def test_pointwise_bounds_on_paper(paper):
    sec, L = paper.section(), paper.lagrangian()
    lower = float(sec.values.min())
    g = g_field(sec)
    for t in (0.02, 0.5, 2.0):
        u, _ = evolve_all(sec, L, t)
        for y in range(0, sec.n_base, 5):
            assert lower - 1e-12 <= u[y] <= g[y] + 1e-12


def test_forward_equals_symmetrized_on_singleton(singleton):
    sec, L = singleton.section(), singleton.lagrangian()
    for t in singleton.grids.times:
        u, _ = evolve_all(sec, L, t)
        for y in range(sec.n_base):
            assert evolve_forward(sec, y, t).value == pytest.approx(u[y], abs=1e-12)


def test_forward_differs_on_paper_scenario(paper):
    sec, L = paper.section(), paper.lagrangian()
    x = paper.id_index("y010")
    assert evolve_forward(sec, x, 1.0).value != pytest.approx(evolve_all(sec, L, 1.0)[0][x], abs=1e-9)


def test_both_operators_reach_min_g_for_large_t(paper):
    sec, L = paper.section(), paper.lagrangian()
    gmin = float(g_field(sec).min())
    u, _ = evolve_all(sec, L, 1e6)
    for y in (0, 40, 80):
        assert u[y] == pytest.approx(gmin, abs=1e-4)
        assert evolve_forward(sec, y, 1e6).value == pytest.approx(gmin, abs=1e-4)


def test_discrete_D_cases(two_point, tie):
    sec, L = two_point.section(), two_point.lagrangian()
    table = evolution_table(sec, L, [1.0, 2.0])
    assert (table.iD_minus[0, 0], table.iD_plus[0, 0]) == (0.0, 0.0)  # argmin is {y} itself
    dm, dp = table.iD_minus[1, 1], table.iD_plus[1, 1]
    assert dm == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert dp == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # engineered exact tie at fiber distances 1 and 2
    sec, L = tie.section(), tie.lagrangian()
    table = evolution_table(sec, L, [1.0])
    assert argmin_set(table.argmins[0, 0]) == (1, 2)
    assert (table.iD_minus[0, 0], table.iD_plus[0, 0]) == (1.0, 2.0)


def test_time_derivative_frozen_argmin(two_point):
    sec = two_point.section()
    td = time_derivative(sec, 1, 0.5, h=1e-7 * 0.5)
    assert td.forward == 0.0 and td.backward == 0.0
    assert td.predicted_plus == 0.0 and td.predicted_minus == 0.0


def test_time_derivative_smooth_branch(two_point):
    sec = two_point.section()
    for t in (1.5, 3.0):
        td = time_derivative(sec, 1, t, h=1e-7 * t)
        assert td.forward == pytest.approx(-1.0 / t**2, abs=1e-6)
        assert td.backward == pytest.approx(-1.0 / t**2, abs=1e-6)
        assert td.predicted_plus == pytest.approx(-1.0 / t**2, abs=1e-12)
        assert td.predicted_minus == pytest.approx(-1.0 / t**2, abs=1e-12)


def test_time_derivative_kink(two_point):
    # closed forms at the kink t = 1: right slope -1 from the remote branch,
    # left slope 0 from the frozen branch
    sec = two_point.section()
    td = time_derivative(sec, 1, 1.0, h=1e-7)
    assert td.forward == pytest.approx(-1.0, abs=1e-6)
    assert td.backward == pytest.approx(0.0, abs=1e-12)
    assert td.predicted_plus == pytest.approx(-1.0, abs=1e-12)
    assert td.predicted_minus == pytest.approx(0.0, abs=1e-12)


def test_hj_residual_constant_field(singleton):
    sec = singleton.section()
    for t in singleton.grids.times:
        for y in range(sec.n_base):
            r = hj_residual(sec, y, t, radius=1.5)
            assert r.slope.tolist() == [0.0]
            assert abs(r.residual[0]) <= 1e-12


def test_hj_residual_two_point(two_point):
    sec = two_point.section()
    r = hj_residual(sec, 1, 1.5, radius=2.0)
    assert r.n_neighbors.tolist() == [1]
    assert r.slope[0] == pytest.approx((1 / 1.5) / math.sqrt(2.0), abs=1e-12)
    assert r.residual[0] <= 1e-6


def test_hj_residual_paper_grid(paper):
    sec = paper.section()
    stride = paper.grids.hj_base_stride
    for t in paper.grids.effective_hj_times():
        for y in range(0, sec.n_base, stride):
            r = hj_residual(sec, y, t, radius=paper.grids.hj_radius)
            assert r.residual[0] <= 1e-6
            assert r.n_neighbors[0] == 0  # radius below the base gap: flagged, slope 0


@pytest.mark.parametrize(
    "name, times, radius",
    [
        ("two_point", [1.0, 1.5, 2.0, 4.0], 2.0),
        ("two_point", [1.5], math.sqrt(2.0)),  # radius equal to the base distance
        ("paper", [0.02, 0.5, 4.0], 0.25),
        ("tie", [1.0, 3.0], 15.0),
        ("random-3", [0.5, 2.0], 2.0),
        ("random-8", [0.3, 1.7], 4.0),
        ("random-21", [1.0, 5.0], 2.0),
    ],
)
def test_hj_arrays_match_per_node_reference(request, name, times, radius):
    if name.startswith("random-"):
        sec = random_scenario(int(name.split("-")[1])).section()
    else:
        sec = request.getfixturevalue(name).section()
    for lipschitz in (False, True):
        for t in times:
            residual, _, slope, n_neighbors = hj_residuals(sec, t, radius)[int(lipschitz)]
            for y, expected in enumerate(reference_hj(sec, t, radius, lipschitz)):
                assert (residual[y], slope[y], n_neighbors[y], n_neighbors[y] == 0) == expected
                node = hj_residuals(sec, t, radius, [y])[1] if lipschitz else hj_residual(sec, y, t, radius)
                assert (node.residual[0], node.slope[0], node.n_neighbors[0], node.n_neighbors[0] == 0) == expected
    # every case's radius reaches neighbors, so the slopes are not all vacuous
    assert np.any(n_neighbors > 0)


@pytest.mark.parametrize(
    "name, times, radius",
    [
        ("two-line-40", [0.01, 0.5], 0.5),
        ("paper", [0.02, 0.5], None),  # the scenario's radius: no node has neighbors
        ("random-3", [0.5, 2.0], 2.0),
        ("random-8", [0.3], 4.0),
        ("degenerate", [1.0, 3.0], 2.0),  # infinite ILS: no Lipschitz form
    ],
)
def test_hj_residuals_at_nodes_equal_all_nodes(request, name, times, radius):
    if name == "two-line-40":
        sec = two_line_section(40)
    elif name == "degenerate":
        sec = degenerate_section()
    elif name.startswith("random-"):
        sec = random_scenario(int(name.split("-")[1])).section()
    else:
        scenario = request.getfixturevalue(name)
        sec, radius = scenario.section(), scenario.grids.hj_radius
    m = sec.n_base
    subsets = [list(range(m)), list(range(0, m, max(1, m // 4))), [m - 1, 0], [m // 2]]
    counts = []
    for t in times:
        everywhere = hj_residuals(sec, t, radius)
        for nodes in subsets:
            for full, part in zip(everywhere, hj_residuals(sec, t, radius, nodes)):
                assert (full is None) == (part is None)
                if full is None:
                    continue
                for key in ("residual", "forward_difference", "slope"):
                    want, got = getattr(full, key)[nodes], getattr(part, key)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), key
                assert np.array_equal(part.n_neighbors, full.n_neighbors[nodes])
                counts.extend(part.n_neighbors.tolist())
    assert (name == "degenerate") == (hj_residuals(sec, times[0], radius)[1] is None)
    if name == "paper":
        assert max(counts) == 0
    else:
        assert max(counts) > 0


def test_hj_residuals_at_a_node_without_neighbors_among_nodes_with_them():
    # base points 0, 1, 2 and an isolated 10; radius 1.5
    space = FiberedSpace(
        base_points=np.array([[0.0], [1.0], [2.0], [10.0]]),
        fibers=tuple(PointSet(np.array([[x], [x + 20.0]])) for x in (0.0, 1.0, 2.0, 10.0)),
    )
    sec = Section(space=space, values=np.array([[0.0], [1.0], [2.0], [10.0]]))
    everywhere, _ = hj_residuals(sec, 0.7, 1.5)
    assert everywhere.n_neighbors.tolist() == [1, 2, 1, 0]
    for nodes in ([3], [3, 0], [1, 3]):
        part, _ = hj_residuals(sec, 0.7, 1.5, nodes)
        for full_array, part_array in zip(everywhere, part):
            assert np.array_equal(part_array, full_array[nodes])
        assert part.slope[nodes.index(3)] == 0.0


def test_neighbor_slope_zero_denominator_is_inf():
    u = np.array([0.0, 1.0, 1.0])
    den = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    base_dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    near = (base_dist > 0) & (base_dist <= 1.0)
    slopes = _neighbor_slopes(u, den, near)
    # y=1 rises over p=0 with zero denominator; y=2 rises over p=0 by 1 over 2;
    # y=0 rises over no neighbor, and the 1 - 1 rise between y=1 and y=2 is skipped
    assert slopes.tolist() == [0.0, math.inf, 0.5]
    assert [(s, 2) for s in slopes] == reference_slopes(u, den, base_dist, 1.0)


def test_hj_lipschitz_matches_plain_on_singleton(singleton):
    sec = singleton.section()
    for y in range(sec.n_base):
        a = hj_residual(sec, y, 1.0, radius=1.5)
        b = hj_residuals(sec, 1.0, 1.5, [y])[1]
        assert b.residual[0] == pytest.approx(a.residual[0], abs=1e-12)


def test_hj_lipschitz_two_point(two_point):
    sec = two_point.section()
    for t in two_point.grids.times:
        for y in (0, 1):
            assert hj_residuals(sec, t, 2.0, [y])[1].residual[0] <= 1e-6


def test_hj_lipschitz_refuses_infinite_ils():
    space = FiberedSpace(
        base_points=np.array([[0.0], [1.0]]),
        fibers=(PointSet(np.array([[0.0]])), PointSet(np.array([[0.0], [5.0]]))),
    )
    sec = Section(space=space, values=np.array([[0.0], [5.0]]))
    assert global_ILS(sec) == math.inf
    assert hj_residuals(sec, 1.0, 2.0, [0])[1] is None
    assert hj_residuals(sec, 1.0, 2.0)[1] is None


def test_slope_estimate_two_point(two_point):
    sec = two_point.section()
    table = evolution_table(sec, model_quadratic(), [1.0, 1.5, 2.0, 4.0])
    for ti in range(table.times.size):
        slack = slope_estimate_check(sec, table, ti)
        assert np.count_nonzero(slack > 1e-9) == 0
        assert slack.max() <= 1e-9


def test_slope_estimate_paper_grid(paper):
    sec = paper.section()
    table = evolution_table(sec, model_quadratic(), paper.grids.times)
    for ti in range(table.times.size):
        slack = slope_estimate_check(sec, table, ti)
        assert np.count_nonzero(slack > 1e-9) == 0


def reference_pair_slack(section, table, ti):
    """Per-pair reference of the slope estimate's slack: for z != y,
    u(z) - u(y) - (E[z, y] / 2t) (D-(y) + D[z, y]); -inf on the diagonal."""
    t, u, iDm = table.times[ti], table.u[ti], table.iD_minus[ti]
    D, E = section.fiber_distances(), section.value_distances()
    m = section.n_base
    slack = np.full((m, m), -np.inf)
    for z in range(m):
        for y in range(m):
            if z != y:
                slack[z, y] = u[z] - u[y] - (E[z, y] / (2.0 * t)) * (iDm[y] + D[z, y])
    return slack


def test_slope_estimate_table_equals_per_pair_reference(paper, tie, two_point):
    sections = [paper.section(), tie.section(), two_point.section(), two_line_section(30)]
    sections += [random_scenario(seed).section() for seed in (0, 4, 11)]
    for sec in sections:
        table = evolution_table(sec, model_quadratic(), [0.03, 0.5, 2.0])
        for ti in range(table.times.size):
            slack = slope_estimate_check(sec, table, ti)
            assert slack.shape == (sec.n_base, sec.n_base)
            assert np.array_equal(slack, reference_pair_slack(sec, table, ti))


def test_table_readers_refuse_another_penalty(two_point):
    sec = two_point.section()
    quartic = power_lagrangian(4.0)
    table = evolution_table(sec, quartic, two_point.grids.times)
    with pytest.raises(PreconditionError):
        slope_estimate_check(sec, table, 0)
    with pytest.raises(PreconditionError):
        proposition_suite(sec, quartic, table)  # no model-penalty table given
    model = evolution_table(sec, model_quadratic(), two_point.grids.times[:2])
    with pytest.raises(PreconditionError):
        proposition_suite(sec, quartic, table, model)  # on other times


def test_a_penalty_named_model_quadratic_is_not_the_model(two_point):
    sec = two_point.section()
    # a penalty is its function: only the module's own half-square function is the model
    mislabeled = Lagrangian(fn=lambda v: v**4 / 4)
    assert not mislabeled.is_model_quadratic and power_lagrangian(2.0, 1.0).is_model_quadratic
    table = evolution_table(sec, mislabeled, two_point.grids.times, hj_radius=2.0)
    assert not table.is_model_quadratic and np.isnan(table.hj_residual).all()
    with pytest.raises(PreconditionError, match="the suite needs the model penalty"):
        proposition_suite(sec, mislabeled, table)


@pytest.mark.parametrize("t, tau_tie", [(math.nan, 1e-9), (0.0, 1e-9), (math.inf, 1e-9), (1.0, math.nan), (1.0, -1e-9)])
def test_evolve_all_refuses_a_bad_time_or_tie_tolerance(two_point, t, tau_tie):
    with pytest.raises(PreconditionError, match="t must be positive|tau_tie must be nonnegative"):
        evolve_all(two_point.section(), model_quadratic(), t, tau_tie)


@pytest.mark.parametrize("tau_tie", [math.inf])
def test_evolve_all_and_the_trace_refuse_an_infinite_tie_tolerance(two_point, tau_tie):
    with pytest.raises(PreconditionError, match="tau_tie must be nonnegative and finite"):
        evolve_all(two_point.section(), model_quadratic(), 1.0, tau_tie)
    with pytest.raises(PreconditionError, match="tau_tie must be nonnegative and finite"):
        quasi_minimizer_trace(two_point.section(), tau_tie=tau_tie)


def test_evolution_table_refuses_no_times(two_point):
    # an empty time list raised a broadcasting ValueError
    with pytest.raises(PreconditionError, match="times must be nonempty"):
        evolution_table(two_point.section(), model_quadratic(), [])


@pytest.mark.parametrize("nodes", [[-1], [2], [0.0], [0, 2**64]])
def test_hj_residuals_refuse_a_node_outside_the_base_set(two_point, nodes):
    with pytest.raises(PreconditionError, match=r"base index must be an integer in \[0, 2\)"):
        hj_residuals(two_point.section(), 1.0, 1.0, nodes)


def test_hj_residuals_refuse_an_infinite_radius(two_point):
    with pytest.raises(PreconditionError, match="radius must be positive and finite"):
        hj_residuals(two_point.section(), 1.0, math.inf)


@pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0])
def test_hj_residuals_refuse_a_nonpositive_radius(two_point, radius):
    with pytest.raises(PreconditionError, match="radius must be positive"):
        hj_residuals(two_point.section(), 1.0, radius)


@pytest.mark.parametrize(
    "t",
    [1.7976931348623157e308, np.float64(1.7976931348623157e308), 5e-324, math.nan, -1.0, 2**1024],
    ids=["float-max", "float-max-numpy", "5e-324", "nan", "negative", "int-2^1024"],
)
def test_hj_residuals_refuse_a_step_they_cannot_take(two_point, t):
    # a t + h that overflowed came back as "t must be positive and finite, got inf", and 5e-324 as "need 0 < h < t"
    with pytest.raises(PreconditionError, match=r"need a forward-difference step h > 0 with t \+ h finite"):
        hj_residuals(two_point.section(), t, 1.0)


@pytest.mark.parametrize("tau_tie", [math.nan, -1.0])
def test_quasi_minimizer_trace_refuses_a_negative_tie_tolerance(two_point, tau_tie):
    with pytest.raises(PreconditionError, match="tau_tie must be nonnegative"):
        quasi_minimizer_trace(two_point.section(), tau_tie=tau_tie)


def test_quasi_minimizer_trace(paper):
    times, argmin_dist, quasi_dist, quasi_bound = quasi_minimizer_trace(paper.section())
    assert times.shape == quasi_bound.shape == (21,) and quasi_dist.shape == (21, 81)
    assert argmin_dist.shape == (81,)
    for y in (0, paper.id_index("y010"), 80):
        assert argmin_dist[y] <= 1e-6
        assert np.all(quasi_dist[:, y] ** 2 <= quasi_bound + 1e-9)


def test_quasi_minimizer_trace_matches_per_point_reference(paper, tie, singleton, two_point, monkeypatch):
    sections = [paper.section(), tie.section(), singleton.section(), two_point.section(), two_line_section(60)]
    sections += [random_scenario(seed).section() for seed in (0, 9, 14, 16)]
    for sec in sections:
        for levels, tau_tie in ((20, DEFAULT_TAU_TIE), (6, 0.5)):
            monkeypatch.setattr("fiberflow.semigroup.TRACE_LEVELS", levels)
            times, argmin_dist, quasi_dist, quasi_bound = quasi_minimizer_trace(sec, tau_tie=tau_tie)
            for y in range(sec.n_base):
                ref_times, a_dist, q_dist, q_bound = reference_trace(sec, y, levels, tau_tie)
                assert np.array_equal(times, ref_times)
                # the argmin distance is built at the last time only, the one item (b) reads
                assert np.array_equal(argmin_dist[y], a_dist[-1])
                assert np.array_equal(quasi_dist[:, y], q_dist)
                assert np.array_equal(quasi_bound, q_bound)


def spread_section(m, seed, top=1.0):
    """A one-dimensional section whose values spread over [-S, top * S], so
    that the spread of g approaches 2 ||f||_inf = 2 S as top -> 1; each fiber
    holds its value and two points nearby."""
    rng = np.random.default_rng(seed)
    S = 3.0
    values = np.sort(rng.uniform(-S, top * S, m))
    values[0], values[-1] = -S, top * S
    fibers = tuple(PointSet(np.array([[v], [v + rng.uniform(0.1, 2.0)], [v - rng.uniform(0.1, 2.0)]])) for v in values)
    space = FiberedSpace(base_points=np.arange(m, dtype=float)[:, None], fibers=fibers)
    return Section(space=space, values=values[:, None])


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_quasi_excess_certificate_is_sound_at_any_floor(paper, tie, singleton, two_point, monkeypatch):
    # the pruned reduction equals max(floor, excess.max()) of the full trace.
    # The largest excess of a level is hidden by the later levels' unless the
    # trace ends there, so the trace is cut after each level k in turn, with
    # floors at and one ulp either side of level k's largest excess: a
    # certificate that misses the excess of one row there changes the result
    sections = [paper.section(), tie.section(), singleton.section(), two_point.section()]
    sections += [random_scenario(seed).section() for seed in range(20)]
    sections += [spread_section(m, seed, top) for m, seed, top in ((12, 0, 1.0), (30, 1, 0.999), (25, 2, 0.9))]
    for sec in sections:
        _, _, quasi_dist, quasi_bound = quasi_minimizer_trace(sec)
        excess = quasi_dist**2 - quasi_bound[:, None]
        for k, level in enumerate(excess.max(axis=1)):
            monkeypatch.setattr("fiberflow.semigroup.TRACE_LEVELS", k)
            floors = [np.nextafter(level, -math.inf), level, np.nextafter(level, math.inf)]
            for floor in map(float, floors + ([-math.inf] if k == TRACE_LEVELS else [])):
                want = max(floor, float(excess[: k + 1].max()))
                assert _same_bits(_quasi_excess_worst(sec, floor), want)
                assert _same_bits(_quasi_excess_worst(sec, floor, quasi_dist[k]), want)


def pair_loop_cross_time(times, u, rhs, labels):
    """Item d as a loop over every pair of distinct grid times s < t, in the suite's (s, t) order."""
    pairs = [(i, j) for i in range(times.size) for j in range(i + 1, times.size) if times[i] < times[j]]
    gaps = (
        (u[j][None, :] - (rhs[j] + u[i][:, None]), "xy", f"s={times[i]:g},t={times[j]:g}") for i, j in pairs
    )
    return worst_case(gaps, labels)


def test_cross_time_reduction_equals_the_pair_loop():
    # coarse values give positive worsts and ties across times; repeated
    # times form no pair, and a NaN in u is the worst at its first pair
    rng = np.random.default_rng(7)
    seen = {"positive": 0, "tie across times": 0, "repeated time": 0, "nan": 0}
    for _ in range(400):
        T, m = int(rng.integers(1, 9)), int(rng.integers(1, 41))
        times = np.sort(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], T))
        u = rng.integers(-4, 5, (T, m)) * 0.25
        rhs = rng.integers(0, 6, (T, m, m)) * 0.25
        if rng.random() < 0.2:
            u[rng.integers(T), rng.integers(m)] = math.nan
        labels = [str(k) for k in range(m)]
        want = pair_loop_cross_time(times, u, rhs, labels)
        got = _cross_time_worst(times, u, iter(rhs), labels)
        assert _same_bits(got[0], want[0]) and got[1] == want[1], (times, u)
        seen["positive"] += want[0] > 0
        seen["repeated time"] += np.unique(times).size < T
        seen["nan"] += math.isnan(want[0])
        worst_times = {
            times[j] for i in range(T) for j in range(T)
            if times[i] < times[j] and np.max(u[j][None, :] - (rhs[j] + u[i][:, None])) == want[0]
        }
        seen["tie across times"] += len(worst_times) > 1
    assert min(seen.values()) >= 10, seen


def test_suite_singleton_zero_slack(singleton):
    sec, L = singleton.section(), singleton.lagrangian()
    items, _ = proposition_suite(sec, L, evolution_table(sec, L, singleton.grids.times))
    for item in items:
        assert item.status == "PASS", item
        assert item.worst_slack <= 1e-9


def test_suite_two_point_passes_and_monotone_strict(two_point):
    sec, L = two_point.section(), two_point.lagrangian()
    items, _ = proposition_suite(sec, L, evolution_table(sec, L, two_point.grids.times))
    assert all(item.status == "PASS" for item in items)
    # strictly decreasing past the kink
    assert evolve_all(sec, L, 1.5)[0][1] < evolve_all(sec, L, 1.0)[0][1] - 1e-3


def test_suite_paper_passes(paper):
    sec, L = paper.section(), paper.lagrangian()
    items, axioms = proposition_suite(sec, L, evolution_table(sec, L, paper.grids.times), labels=paper.base_ids)
    assert all(item.status == "PASS" for item in items)
    assert axioms.passed


@pytest.mark.parametrize("name", ["two_point", "paper"])
def test_suite_and_axioms_compare_only_distinct_times(request, name):
    # items d, f, g and i and the time-scaling axiom are stated for s < t; at
    # the two-point scenario's t = 1 the argmin set of b1 is a tie, so a pair
    # of equal times would read D+ = sqrt(2) against D- = 0
    scenario = request.getfixturevalue(name)
    sec, L = scenario.section(), scenario.lagrangian()
    times = scenario.grids.times
    want = proposition_suite(sec, L, evolution_table(sec, L, times), labels=scenario.base_ids)
    repeated = times + times[:2]
    assert proposition_suite(sec, L, evolution_table(sec, L, repeated), labels=scenario.base_ids) == want


def suite_item(items, check):
    return next(item for item in items if item.check == check)


def reference_boundary_rate(section, L, table, xi_resolution=101):
    """Suite item e over every xi of the grid: the worst |u - g| - C t with
    C = max(|L(0)|, max |L*|) per (t, y), and its location (first wins)."""
    xi = np.linspace(0.0, global_ILS(section), xi_resolution)
    g, L0, D = g_field(section), float(L(0.0)), section.fiber_distances()
    worst, loc = -math.inf, None
    order = np.argsort(table.times, kind="stable")
    for t, ut in zip(table.times[order], table.u[order]):
        C = np.array([max(abs(L0), float(np.abs(conjugate(xi, w, L(w))[0]).max())) for w in D / t])
        gap = np.abs(ut - g) - C * t
        if gap.max() > worst:
            worst, loc = float(gap.max()), f"y={int(np.argmax(gap))},t={t:g}"
    return worst, loc


def test_boundary_rate_from_the_transform_ends_equals_full_grid(paper, two_point, tie):
    sections = [sc.section() for sc in (paper, two_point, tie)]
    sections += [random_scenario(seed).section() for seed in range(10)] + [two_line_section(30)]
    model = model_quadratic()
    for sec in sections:
        for L in (model, power_lagrangian(4.0), power_lagrangian(1.5, 0.2)):
            times = [0.05, 0.5, 2.0, 0.2]
            table = evolution_table(sec, L, times)
            items, _ = proposition_suite(sec, L, table, evolution_table(sec, model, times))
            item = suite_item(items, "suite_e_boundary_rate")
            assert (item.worst_slack, item.location) == reference_boundary_rate(sec, L, table), L


def test_suite_skips_axiom_items_for_bad_lagrangian(paper):
    from fiberflow.lagrangian import Lagrangian

    L = Lagrangian(fn=np.exp)
    sec = paper.section()
    table, model = evolution_table(sec, L, [0.02]), evolution_table(sec, model_quadratic(), [0.02])
    items, axioms = proposition_suite(sec, L, table, model)
    assert not axioms.passed
    assert suite_item(items, "suite_c_spatial_estimate").status == "SKIPPED"
    assert suite_item(items, "suite_d_cross_time_estimate").status == "SKIPPED"


@pytest.mark.parametrize("penalty", ["negative scale", "NaN, then a negative time"])
def test_suite_axiom_report_is_that_of_the_sorted_times(penalty):
    # a negative L(E / t) fails the axiom at inf without a witness, and no later time replaces a NaN worst;
    # repr tells NaN, inf and the sign of a zero apart
    scenario = random_scenario(13)
    sec, times = scenario.section(), scenario.grids.times
    if penalty == "negative scale":
        L = power_lagrangian(2.0, -1.0)
    else:
        L = Lagrangian(fn=nan_beyond_the_grid(sec, times, spike=True))
    want = check_axioms(L, sec, np.sort(times))
    assert want.compatibility_witness is None if penalty == "negative scale" else math.isnan(want.compatibility_worst)
    for ts in (times, times[::-1]):
        table, model = evolution_table(sec, L, ts), evolution_table(sec, model_quadratic(), ts)
        items, axioms = proposition_suite(sec, L, table, model)
        assert repr(axioms) == repr(want), ts
        assert suite_item(items, "suite_c_spatial_estimate").status == "SKIPPED"


def test_suite_builds_each_time_tables_once(monkeypatch):
    # L(D / t) serves the compatibility scan and item e, 2 K sqrt(L(E / t)) the scan and items c and d;
    # the times avoid the trace schedule's powers of two, whose branch tables also read D / t
    sec, L = two_line_section(40), model_quadratic()
    times = np.array([0.3, 0.7, 1.3, 2.9])
    table = evolution_table(sec, L, times)
    D, E = sec.fiber_distances(), sec.value_distances()
    speeds, call = [], Lagrangian.__call__

    def recorded(self, w):
        speeds.append(np.array(w, dtype=float))
        return call(self, w)

    monkeypatch.setattr(Lagrangian, "__call__", recorded)
    items, axioms = proposition_suite(sec, L, table)
    assert axioms.passed and all(item.status == "PASS" for item in items)
    for t in times:
        for distances in (D, E):
            assert sum(w.shape == D.shape and np.array_equal(w, distances / t) for w in speeds) == 1, t


def test_suite_items_are_verdicts_named_by_item_key(paper):
    sec, L = paper.section(), paper.lagrangian()
    items, axioms = proposition_suite(sec, L, evolution_table(sec, L, paper.grids.times), labels=paper.base_ids)
    keys = "a_bounds b_quasi_minimizer c_spatial_estimate d_cross_time_estimate e_boundary_rate"
    keys += " f_time_monotone g_speed_monotone h_speed_bound i_time_lipschitz"
    assert [item.check for item in items] == [f"suite_{key}" for key in keys.split()]
    assert all(isinstance(item, Verdict) for item in items)
    # the axiom report is the one of the table's times in sorted order
    assert axioms == check_axioms(L, sec, np.sort(paper.grids.times))


@pytest.mark.parametrize("labels", [["a", "b"], []])
def test_suite_refuses_labels_that_do_not_name_every_base_point(paper, labels):
    # two labels for 81 base points ended in an IndexError from the item locations
    sec, L = paper.section(), paper.lagrangian()
    table = evolution_table(sec, L, paper.grids.times)
    with pytest.raises(PreconditionError, match=f"need one label per base point, got {len(labels)} labels for 81"):
        proposition_suite(sec, L, table, labels=labels)


@pytest.mark.parametrize("ti", [-1, 2, 5, 1.5, 2**1024, np.float64(1.0)])
def test_slope_estimate_check_refuses_a_time_index_outside_the_grid(two_point, ti):
    # -1 read the last time, and 5 and 1.5 raised an IndexError
    sec = two_point.section()
    table = evolution_table(sec, model_quadratic(), [0.5, 1.0])
    with pytest.raises(PreconditionError, match=r"grid time index must be an integer in \[0, 2\)"):
        slope_estimate_check(sec, table, ti)


def reference_worse(worst, residual, t, labels):
    """Reference per-time reducer for the HJ grid verdicts: a later time
    replaces the worst when strictly larger or when it holds the first NaN,
    and argmax picks the first index, a NaN if there is one.  A NaN worst
    stays."""
    k = int(np.argmax(residual))
    if not math.isnan(worst[0]) and (math.isnan(residual[k]) or residual[k] > worst[0]):
        return float(residual[k]), f"y={labels[k]},t={t:g}"
    return worst


def same_worst(got, want):
    """Equal worst slacks and locations, NaN equal to NaN."""
    return got[1] == want[1] and (got[0] == want[0] or math.isnan(got[0]) and math.isnan(want[0]))


def test_worst_case_first_wins_and_picks_the_first_nan():
    labels = ["a", "b", "c"]
    # across cases the first case wins a tie; within a case the first index
    tie = [(np.array([0.0, 2.0, 2.0]), "y", "t=1"), (np.array([2.0, 1.0, 0.0]), "y", "t=2")]
    assert worst_case(tie, labels) == (2.0, "y=b,t=1")
    assert worst_case(tie + [(np.array([0.0, 0.0, 5.0]), "y", "t=3")], labels) == (5.0, "y=c,t=3")
    # several axes name the row-major first index attaining the maximum
    gap = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 3.0], [1.0, 1.0, 0.0]])
    assert worst_case([(gap, "xy", "s=1,t=2")], labels) == (3.0, "x=a,y=b,s=1,t=2")
    # a NaN entry is the worst: the first case holding NaN and its first NaN win, and no later case is read
    nan_gap = np.array([0.0, np.nan, 5.0, np.nan])
    assert same_worst(worst_case([(np.array([np.nan, 5.0]), "y", "t=1")], labels), (math.nan, "y=a,t=1"))
    cases = [(np.array([9.0, 0.0, 0.0, 0.0]), "y", "t=1"), (nan_gap, "y", "t=2"), (nan_gap[::-1], "y", "t=3")]
    assert same_worst(worst_case(iter(cases + [None]), labels + ["d"]), (math.nan, "y=b,t=2"))
    assert worst_case([], labels) == (-math.inf, None)
    assert worst_case(iter(()), labels) == (-math.inf, None)
    # a scalar gap has no axes: its suffix is the whole location
    scalars = [(np.float64(0.5), "", "z=c,y=c,t=0"), (np.float64(1.0), "", "z=a,y=b,t=1")]
    scalars.append((np.float64(1.0), "", "z=c,y=a,t=2"))
    assert worst_case(scalars, labels) == (1.0, "z=a,y=b,t=1")
    assert same_worst(worst_case(scalars + [(np.float64(np.nan), "", "z=a,y=a,t=3")], labels), (math.nan, "z=a,y=a,t=3"))
    # labels map the indices, e.g. HJ nodes to their base ids
    assert worst_case([(np.array([0.0, 1.0]), "y", "t=0.5")], ["y0000", "y0100"]) == (1.0, "y=y0100,t=0.5")


def test_worst_case_equals_the_per_time_reducer_on_ties_and_nans():
    rng = np.random.default_rng(11)
    labels = [f"n{k}" for k in range(5)]
    for _ in range(300):
        times = rng.uniform(0.01, 4.0, size=int(rng.integers(0, 6)))
        rows = rng.integers(-3, 3, size=(times.size, 5)).astype(float)  # small integers: many ties
        rows[rng.random(rows.shape) < 0.1] = np.nan
        expected = (-math.inf, None)
        for t, row in zip(times, rows):
            expected = reference_worse(expected, row, t, labels)
        assert same_worst(worst_case([(row, "y", f"t={t:g}") for t, row in zip(times, rows)], labels), expected)


def test_suite_items_fail_a_nan_gap_at_its_node(paper):
    # u holds NaN at one node: every item that reads u there fails with NaN at the first gap that holds it
    L, sec = paper.lagrangian(), paper.section()
    table = evolution_table(sec, L, paper.grids.times)
    table.u[1, 5] = np.nan
    items = {v.check: v for v in proposition_suite(sec, L, table, labels=paper.base_ids)[0]}
    failed = {key for key, v in items.items() if v.status == "FAIL"}
    keys = "a_bounds c_spatial_estimate d_cross_time_estimate e_boundary_rate f_time_monotone i_time_lipschitz"
    assert failed == {f"suite_{key}" for key in keys.split()}
    assert all(math.isnan(items[key].worst_slack) for key in failed)
    assert items["suite_a_bounds"].location == "y=y005,t=0.02"
    assert items["suite_f_time_monotone"].location == "y=y005,s=0.01,t=0.02"


def test_verdict_from_slack_and_strict_json():
    assert runner.Verdict is Verdict
    assert Verdict.from_slack("c", 1e-9, 1e-9, None).status == "PASS"
    assert Verdict.from_slack("c", 2e-9, 1e-9, "y=a").status == "FAIL"
    assert Verdict.from_slack("c", math.nan, 1e-9, None).status == "FAIL"
    v = Verdict.from_slack("c", -math.inf, 0.0, None, note="n")
    assert (v.status, v.worst_slack, v.location, v.note) == ("PASS", -math.inf, None, "n")
    assert v.to_dict() == {"check": "c", "status": "PASS", "worst_slack": "-inf", "location": None, "note": "n"}
    assert Verdict("c", "SKIPPED", None, None).to_dict()["worst_slack"] is None


def test_evolution_table_invariants(two_point):
    sec, L = two_point.section(), two_point.lagrangian()
    table = evolution_table(sec, L, two_point.grids.times, hj_radius=2.0)
    assert table.argmins.shape == (len(two_point.grids.times), sec.n_base, sec.n_base)
    assert np.all(table.argmins.any(axis=2))  # every argmin set is nonempty
    assert np.all(table.iD_minus <= table.iD_plus + 1e-15)
    assert np.all(np.isfinite(table.u))
    assert np.all(np.isfinite(table.hj_residual))


@pytest.mark.parametrize("penalty", ["model", "power-2"])
def test_evolution_table_hj_columns_equal_hj_residuals(penalty):
    # the table reads u at t from its own rows; hj_residuals evaluates the model penalty itself
    L = model_quadratic() if penalty == "model" else power_lagrangian(2.0, 1.0)
    assert L.is_model_quadratic
    cases = [
        (two_line_section(40), [0.01, 0.03, 0.5, 2.0], 0.5),
        (random_scenario(3).section(), [0.5, 2.0], 2.0),
        (random_scenario(8).section(), [0.3, 1.7], 4.0),
        (degenerate_section(), [1.0, 3.0], 2.0),
    ]
    slopes = []
    for sec, times, radius in cases:
        table = evolution_table(sec, L, times, hj_radius=radius)
        for ti, t in enumerate(times):
            plain, _ = hj_residuals(sec, t, radius)
            assert np.array_equal(table.hj_residual[ti].view(np.uint64), plain.residual.view(np.uint64))
            assert np.array_equal(table.hj_no_neighbors[ti], plain.n_neighbors == 0)
            slopes.extend(plain.slope.tolist())
    assert max(slopes) > 0  # the slope term is not vacuous everywhere
    # a penalty that is not the model one gets no HJ columns
    assert np.isnan(evolution_table(sec, power_lagrangian(3.0), times, hj_radius=radius).hj_residual).all()
