import numpy as np
import pytest

from fiberflow.errors import PreconditionError
from fiberflow.lagrangian import power_lagrangian
from fiberflow.semigroup import evolve_all
from fiberflow.variational import action, minimize_interior, solve_variational


def straight_curve(scenario, y, z, m):
    """The m + 1 nodes of the constant-speed curve from params[z] across d(f(y), fiber(z))."""
    d = scenario.section().fiber_distances()[y, z]
    return scenario.params[z] + np.linspace(0.0, d, m + 1)


def test_linear_curve_action_is_constant_speed_value(two_point):
    L = two_point.lagrangian()
    d = two_point.section().fiber_distances()[1, 0]
    for m in (1, 4, 16):
        expected = 2.0 * float(L(d / 2.0))
        assert action(straight_curve(two_point, 1, 0, m), 2.0, L) == pytest.approx(expected, abs=1e-12)


def test_perturbed_action_dominates_linear(two_point):
    # discrete Jensen: 1000 random interior perturbations never beat the line
    L = two_point.lagrangian()
    rng = np.random.default_rng(42)
    base = straight_curve(two_point, 1, 0, 8)
    linear_value = action(base, 2.0, L)
    for _ in range(1000):
        nodes = base.copy()
        nodes[1:-1] += rng.normal(scale=0.3, size=7)
        assert action(nodes, 2.0, L) >= linear_value - 1e-12


def test_single_step_equals_evolve(paper):
    sec, L = paper.section(), paper.lagrangian()
    for t in (0.5, 2.0):
        u, _ = evolve_all(sec, L, t)
        for y in (0, 40, 80):
            r = solve_variational(sec, L, y, t, m=1, params=paper.params)
            assert r.value == pytest.approx(u[y], abs=1e-15)


def test_two_point_variational_solution(two_point):
    sec, L = two_point.section(), two_point.lagrangian()
    r = solve_variational(sec, L, y=1, t=2.0, m=8, params=two_point.params)
    assert r.value == pytest.approx(0.5, abs=1e-8)
    assert r.best_z == 0
    assert r.max_linearity_deviation <= 1e-8
    assert r.converged is True


def test_sweep_cap_reports_not_converged(two_point):
    r = solve_variational(two_point.section(), power_lagrangian(4.0), y=1, t=2.0, m=6, params=two_point.params, max_sweeps=1)
    assert r.converged is False


def test_descent_recovers_line_from_perturbed_start(two_point):
    start = straight_curve(two_point, 1, 0, 8)
    rng = np.random.default_rng(3)
    start[1:-1] += rng.normal(scale=0.5, size=7)
    nodes, sweeps = minimize_interior(start, 2.0, two_point.lagrangian())
    linear = nodes[0] + np.linspace(0, 1, 9) * (nodes[-1] - nodes[0])
    assert np.abs(nodes - linear).max() <= 1e-6
    assert sweeps < 10_000


def test_golden_section_path_with_quartic_penalty(two_point):
    L = power_lagrangian(4.0)
    start = straight_curve(two_point, 1, 0, 6)
    start[1:-1] += np.linspace(0.2, -0.2, 5)
    nodes, _ = minimize_interior(start, 2.0, L)
    linear = nodes[0] + np.linspace(0, 1, 7) * (nodes[-1] - nodes[0])
    assert np.abs(nodes - linear).max() <= 1e-6
    r = solve_variational(two_point.section(), L, y=1, t=2.0, m=6, params=two_point.params)
    assert abs(r.gap) <= 1e-9


def test_refining_steps_never_increases_value(paper):
    sec, L = paper.section(), paper.lagrangian()
    values = [
        solve_variational(sec, L, y=40, t=1.0, m=m, params=paper.params).value
        for m in (1, 2, 4, 8)
    ]
    for coarse, fine in zip(values, values[1:]):
        assert fine <= coarse + 1e-9


def test_refusal_without_parametrization(two_point):
    sec, L = two_point.section(), two_point.lagrangian()
    with pytest.raises(PreconditionError):
        solve_variational(sec, L, y=1, t=1.0, m=4, params=None)


def test_solution_meets_the_endpoint_constraint_exactly(paper):
    sec, L = paper.section(), paper.lagrangian()
    D = sec.fiber_distances()
    for y in (0, 40, 80):
        r = solve_variational(sec, L, y, 1.0, m=4, params=paper.params)
        start = paper.params[r.best_z]
        assert r.nodes[0] == start
        assert r.nodes[-1] == start + D[y, r.best_z]


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_refuses_a_nonpositive_time(two_point, t):
    with pytest.raises(PreconditionError, match="t must be positive"):
        solve_variational(two_point.section(), two_point.lagrangian(), 1, t, 4, two_point.params)
