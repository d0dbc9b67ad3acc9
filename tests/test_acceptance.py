"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to runtime calibration.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import filecmp
import math

import numpy as np
import pytest

from fiberflow.lagrangian import legendre_transform, model_quadratic
from fiberflow.runner import run_check
from fiberflow.scenario import paper_counterexample, random_scenario, two_point_scenario
from fiberflow.section import asymmetry_probe, global_ILS
from fiberflow.semigroup import (
    evolution_table,
    hj_residual,
    hj_residuals,
    proposition_suite,
    slope_estimate_check,
)
from fiberflow.variational import solve_variational
from test_lagrangian import achievable_speeds, hstar
from test_semigroup import time_derivative


def _report(n: int, name: str):
    print(f"ACCEPTANCE {n} ({name}): PASS")


@pytest.fixture(scope="module")
def paper():
    return paper_counterexample()


@pytest.fixture(scope="module")
def two_point():
    return two_point_scenario()


def _exact_point_min(p, pts):
    return min(math.dist(p, q) for q in pts)


def test_criterion_1_counterexample_reproduction(paper):
    sec = paper.section()
    xi, yi, zi = (paper.id_index(k) for k in ("y010", "y070", "y060"))

    # independent oracle: exact point-to-point minima over the listed fibers
    f_x = [1.0, 4.0]
    fiber_y = [(7.0, 8.0), (7.0, 6.5), (8.0, 7.0)]
    fiber_z = [(6.0, 8.0), (6.0, 6.0), (8.0, 6.0)]
    oracle_gap = _exact_point_min(f_x, fiber_y) - _exact_point_min(f_x, fiber_z)
    assert oracle_gap == pytest.approx(6.5 - math.sqrt(29.0), abs=1e-15)

    probe = asymmetry_probe(sec)
    hits = np.flatnonzero((probe.violations == (xi, yi, zi)).all(axis=1))
    assert len(hits) == 1, "the pinned triple must be recorded as a violation"
    lhs, rhs = probe.lhs[hits[0]], probe.rhs[hits[0]]
    assert abs(lhs - oracle_gap) <= 1e-9
    assert lhs > rhs  # strictly greater than d(f(y), f(z)) = 1
    assert rhs == pytest.approx(1.0, abs=1e-12)

    # the stated constant sqrt(5/4) is carried alongside and its discrepancy flagged
    stated = paper.reference_triple["stated_constant"]
    assert stated == pytest.approx(math.sqrt(5.0 / 4.0), abs=1e-15)
    assert abs(lhs - stated) > 1e-9  # genuine discrepancy, reported not forced
    _report(1, "counterexample reproduction")


def test_criterion_2_variational_equivalence(paper, two_point):
    for scenario, stride in ((paper, 10), (two_point, 1)):
        sec, L = scenario.section(), scenario.lagrangian()
        ys = list(range(0, scenario.n_base, stride))
        if scenario is paper:
            assert len(ys) == 9
        for y in ys:
            for t in (0.5, 1.0, 2.0, 4.0):
                for m in (1, 8, 64):
                    r = solve_variational(sec, L, y, t, m, scenario.params)
                    assert abs(r.gap) <= 1e-7, (scenario.name, y, t, m)
                    assert r.max_linearity_deviation <= 1e-6, (scenario.name, y, t, m)
    _report(2, "variational equivalence")


def test_criterion_3_proposition_suite_green(paper, two_point):
    scenarios = [paper, two_point] + [random_scenario(seed) for seed in range(50)]
    for scenario in scenarios:
        sec, L = scenario.section(), scenario.lagrangian()
        table = evolution_table(sec, L, scenario.grids.times)
        items, axioms = proposition_suite(sec, L, table)
        assert axioms.passed, scenario.name
        for item in items:
            assert item.status == "PASS", (scenario.name, item)
    _report(3, "proposition suite on shipped + 50 random scenarios")


def test_criterion_4_time_derivative_formula(two_point):
    sec = two_point.section()
    # away from the kink at t = 1 the finite differences match the formulas
    for t in (0.5, 1.5, 3.0):
        td = time_derivative(sec, 1, t, h=1e-7 * t)
        assert abs(td.forward - td.predicted_plus) <= 1e-6, t
        assert abs(td.backward - td.predicted_minus) <= 1e-6, t
    # at the kink the one-sided values follow the closed-form analysis:
    # right derivative -1 (remote branch, speed sqrt(2)), left derivative 0
    td = time_derivative(sec, 1, 1.0, h=1e-7)
    assert abs(td.forward - (-1.0)) <= 1e-6
    assert abs(td.backward - 0.0) <= 1e-6
    assert td.predicted_plus == pytest.approx(-1.0, abs=1e-12)
    assert td.predicted_minus == pytest.approx(0.0, abs=1e-12)
    _report(4, "time-derivative formula")


def test_criterion_5_hj_subsolution(paper, two_point):
    for scenario in (paper, two_point):
        sec = scenario.section()
        radius = scenario.grids.hj_radius
        stride = max(1, scenario.grids.hj_base_stride)
        for t in scenario.grids.effective_hj_times():
            for y in range(0, scenario.n_base, stride):
                assert hj_residual(sec, y, t, radius=radius).residual[0] <= 1e-6
                assert hj_residuals(sec, t, radius, [y])[1].residual[0] <= 1e-6
    _report(5, "Hamilton-Jacobi residuals")


def test_criterion_6_legendre_properties(paper, two_point):
    for scenario, samples in ((paper, (0, 40, 80)), (two_point, (0, 1))):
        sec, L = scenario.section(), scenario.lagrangian()
        for y in samples:
            for t in (1.0, 2.0):
                table = legendre_transform(L, sec, y, t, xi_resolution=101)
                w = achievable_speeds(sec, y, t)
                Lw = L(w)
                # Fenchel-Young, identity-level on the finite grids
                for i in range(table.xi_grid.size):
                    assert np.all(table.lstar[i] - (table.xi_grid[i] * w - Lw) >= 0.0)
                # midpoint convexity on the uniform grid
                mids = (table.lstar[:-2] + table.lstar[2:]) / 2.0
                assert np.all(table.lstar[1:-1] <= mids + 1e-12)
                # one-sided biconjugacy plus exact monotone refinement
                xi_full = np.linspace(0.0, global_ILS(sec), 1001)
                w_unique = np.unique(w)
                gaps = [L(w_unique) - hstar(L, sec, y, t, w_unique, xi_full[::step]) for step in (100, 10, 1)]
                assert np.all(gaps[2] >= -1e-12)  # H* <= L + 1e-12
                assert np.all(gaps[0] - gaps[1] >= 0.0)
                assert np.all(gaps[1] - gaps[2] >= 0.0)
        # the linear-claim comparison column is emitted with mismatches recorded
        table = legendre_transform(L, sec, samples[-1], 1.0, xi_resolution=101)
        assert table.claim_linear.shape == table.lstar.shape
        assert table.claim_mismatch().any()
    _report(6, "Fenchel-Legendre properties")


def test_criterion_7_pair_scan(paper, two_point):
    for scenario in (paper, two_point):
        sec = scenario.section()
        table = evolution_table(sec, model_quadratic(), scenario.grids.times, tau_tie=scenario.grids.tau_tie)
        for ti, t in enumerate(table.times):
            violations = np.argwhere(slope_estimate_check(sec, table, ti) > 1e-9)
            assert violations.size == 0, (scenario.name, t, violations[:3])
    _report(7, "pair scan of the slope estimate")


def test_criterion_8_determinism(tmp_path, paper):
    a, _, code_a = run_check(paper, tmp_path / "a")
    b, _, code_b = run_check(paper, tmp_path / "b")
    assert code_a == 0 and code_b == 0
    for fa, fb in zip(a.all_files(), b.all_files()):
        assert filecmp.cmp(fa, fb, shallow=False), (fa.name, "bundles differ")
    _report(8, "byte-identical report bundles")
