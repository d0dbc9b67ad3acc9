import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fiberflow import two_point_scenario
from fiberflow.errors import PreconditionError
from fiberflow.lagrangian import Lagrangian, power_lagrangian
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
    # the variational-quartic benchmark solve: its nodes' bytes are the run's recorded digest
    assert hashlib.sha256(r.nodes.tobytes()).hexdigest() == "7daeab6a5a7da82cd0ea2edd5150614d90cc65661c445e1caa11cc616f4109c2"


@pytest.mark.parametrize("shift", [1e4, 1e5])
def test_golden_search_ends_for_node_values_past_two_to_the_thirteen(two_point, shift):
    # past 2^13 one ulp of a node exceeds GOLDEN_TOL: a search that stops only at GOLDEN_TOL stalls
    # there, with both probes rounded onto the ends of a bracket one ulp wide
    quartic, calls = power_lagrangian(4.0).fn, 0

    def counted(v):
        nonlocal calls
        calls += 1
        if calls > 10**4:
            raise RuntimeError("the golden search did not end")
        return quartic(v)

    start = straight_curve(two_point, 1, 0, 6) + shift
    nodes, _ = minimize_interior(start, 2.0, Lagrangian(fn=counted), max_sweeps=5)
    assert np.abs(nodes - start).max() <= 1e-6


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


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_refuses_a_nonpositive_time(two_point, t):
    with pytest.raises(PreconditionError, match="t must be positive"):
        solve_variational(two_point.section(), two_point.lagrangian(), 1, t, 4, two_point.params)


def test_refuses_an_infinite_time(two_point):
    # an infinite t ran every descent under RuntimeWarnings before evolve_all refused it
    with pytest.raises(PreconditionError, match="t must be positive and finite"):
        solve_variational(two_point.section(), two_point.lagrangian(), 1, math.inf, 4, two_point.params)


@pytest.mark.parametrize("y", [-1, 2, 1.0])
def test_refuses_a_base_index_outside_the_base_set(two_point, y):
    with pytest.raises(PreconditionError, match=r"base index must be an integer in \[0, 2\)"):
        solve_variational(two_point.section(), two_point.lagrangian(), y, 1.0, 4, two_point.params)


@pytest.mark.parametrize("m, max_sweeps", [(2.0, 10), (2**16 + 1, 10), (2, 0), (2, 10.0)])
def test_refuses_a_step_count_or_sweep_cap_out_of_range(two_point, m, max_sweeps):
    with pytest.raises(PreconditionError, match="time step|max_sweeps"):
        solve_variational(two_point.section(), two_point.lagrangian(), 1, 1.0, m, two_point.params, max_sweeps)


REFERENCE_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def reference_golden_section(fun, lo, hi, tol=1e-12):
    if hi - lo < tol:
        return (lo + hi) / 2.0
    a, b = lo, hi
    c = b - REFERENCE_GOLDEN * (b - a)
    d = a + REFERENCE_GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - REFERENCE_GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + REFERENCE_GOLDEN * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def reference_minimize_interior(nodes, t, L, tol=1e-10, max_sweeps=10_000):
    """The coordinate descent on 0-d arrays: every evaluation goes through `L(...)`."""
    nodes = np.array(nodes, dtype=float)
    m = len(nodes) - 1
    ds = t / m
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        max_change = 0.0
        for k in range(1, m):
            a, b = nodes[k - 1], nodes[k + 1]
            if L.is_model_quadratic:
                new = 0.5 * (a + b)
            else:
                def local(w, a=a, b=b):
                    return float(L((w - a) / ds) + L((b - w) / ds))

                lo, hi = (a, b) if a <= b else (b, a)
                new = reference_golden_section(local, lo, hi)
            max_change = max(max_change, abs(new - nodes[k]))
            nodes[k] = new
        if max_change < tol:
            break
    return nodes, sweeps


@pytest.mark.parametrize("max_sweeps", [1, 50])
@pytest.mark.parametrize(
    "penalty",
    [
        power_lagrangian(1.5),
        power_lagrangian(3.5),
        power_lagrangian(4.0),
        power_lagrangian(3.0, 0.3),
        power_lagrangian(6.0),
        power_lagrangian(7.0),
        Lagrangian(fn=np.exp),
    ],
    ids=["power-1.5", "power-3.5", "power-4", "power-3-scale-0.3", "power-6", "power-7", "exp"],
)
def test_float_search_equals_the_array_search_bit_for_bit(two_point, paper, penalty, max_sweeps):
    for scenario, y in ((two_point, 1), (paper, 0), (paper, 40)):
        z = int(np.argmax(scenario.section().fiber_distances()[y]))
        start = straight_curve(scenario, y, z, 6)
        start[1:-1] += np.linspace(0.2, -0.2, 5)
        nodes, sweeps = minimize_interior(start, 2.0, penalty, max_sweeps=max_sweeps)
        ref_nodes, ref_sweeps = reference_minimize_interior(start, 2.0, penalty, max_sweeps=max_sweeps)
        assert nodes.tobytes() == ref_nodes.tobytes(), (scenario.name, y)
        assert sweeps == ref_sweeps


def quartic_digest() -> str:
    """Node sha256 prefix of the two-point quartic solve capped at 300 sweeps."""
    sc = two_point_scenario()
    r = solve_variational(sc.section(), power_lagrangian(4.0), 1, 2.0, 6, sc.params, max_sweeps=300)
    return hashlib.sha256(r.nodes.tobytes()).hexdigest()[:16]


def numpy_cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


@pytest.mark.skipif(not numpy_cpu_features().get("X86_V4"), reason="numpy finds no X86_V4 (AVX-512) on this CPU")
def test_quartic_solve_is_the_same_without_avx512():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4")
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    script = (
        "from test_variational import numpy_cpu_features, quartic_digest\n"
        "print(numpy_cpu_features().get('X86_V4'), quartic_digest())\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", quartic_digest()]
