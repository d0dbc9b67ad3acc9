import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import reference_max_row_gaps
from fiberflow.errors import PreconditionError
from fiberflow.geometry import FiberedSpace, PointSet
from fiberflow.lagrangian import (
    CONVEXITY_TOL,
    SCALING_TOL,
    Lagrangian,
    certification_grid,
    check_axioms,
    conjugate,
    legendre_transform,
    model_quadratic,
    power_lagrangian,
    zero_lagrangian,
)
from fiberflow.runner import run_check
from fiberflow.scenario import paper_counterexample, random_scenario
from fiberflow.section import Section, bound_K
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


def reference_scaling_worst(L, section, t_list):
    """The time-scaling slack over every pair s < t of the sorted times, one pair at a time."""
    dvals, ts = np.unique(section.fiber_distances()), np.sort(np.asarray(t_list, dtype=float))
    gaps = [float((t * L(dvals / t) - s * L(dvals / s)).max()) for i, s in enumerate(ts) for t in ts[i + 1 :]]
    return max(gaps, default=0.0)


def test_time_scaling_running_minimum_equals_the_pair_loop():
    rng = np.random.default_rng(5)
    penalties = [model_quadratic(), power_lagrangian(4.0), power_lagrangian(1.5, 0.2), zero_lagrangian()]
    penalties += [Lagrangian(fn=np.sqrt), Lagrangian(fn=lambda v: np.sin(v) + v), Lagrangian(fn=np.exp)]
    nonzero = 0
    for seed in range(12):
        sec = random_scenario(seed).section()
        t_list = rng.uniform(0.01, 3.0, size=int(rng.integers(1, 12))).tolist()
        for L in penalties:
            worst = check_axioms(L, sec, t_list).scaling_worst
            assert worst == reference_scaling_worst(L, sec, t_list), (seed, t_list)
            nonzero += worst != 0.0
    assert nonzero > 20  # the comparison covers slacks away from 0


@pytest.mark.parametrize(
    "fn",
    [
        lambda v: 1e300 * np.exp(-np.asarray(v)),  # t L(d / t) overflows to inf at t = 1e10, s L(d / s) does not
        lambda v: np.where(np.asarray(v) > 1e-9, np.nan, 0.0),  # NaN at every positive speed
    ],
)
def test_time_scaling_fails_an_infinite_or_nan_slack(two_point, fn):
    # an infinite slack used to read 0.0 and pass; only fewer than two times give 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_axioms(Lagrangian(fn=fn), two_point.section(), [1.0, 1e10])
    assert not report.scaling_worst <= SCALING_TOL
    assert math.isinf(report.scaling_worst) or math.isnan(report.scaling_worst)
    assert not report.passed
    assert check_axioms(Lagrangian(fn=fn), two_point.section(), [1.0]).scaling_worst == 0.0


def test_power_needs_exponent_at_least_one():
    with pytest.raises(PreconditionError):
        power_lagrangian(0.5)


@pytest.mark.parametrize("exponent, scale", [(math.nan, 1.0), (math.inf, 1.0), (4.0, math.nan), (4.0, math.inf), (2.0, -math.inf)])
def test_power_refuses_a_non_finite_exponent_or_scale(exponent, scale):
    with pytest.raises(PreconditionError, match="power_lagrangian needs a finite"):
        power_lagrangian(exponent, scale)


def power_chain(v, n: int):
    """Reference v^n for an integer n >= 1: square-and-multiply in a loop, low bit of n first."""
    result = None
    while True:
        if n & 1:
            result = v if result is None else result * v
        n >>= 1
        if not n:
            return result
        v = v * v


# the chains spelled out, in Python floats
CHAINS = {
    1: lambda v: v,
    2: lambda v: v * v,
    3: lambda v: v * (v * v),
    4: lambda v: (v * v) * (v * v),
    5: lambda v: v * ((v * v) * (v * v)),
    8: lambda v: ((v * v) * (v * v)) * ((v * v) * (v * v)),
}
# every n to 64, 2^k - 1, 2^k and 2^k + 1 to k = 20, and two chains of about 1024 squarings
CHAIN_EXPONENTS = sorted(
    set(range(1, 65)) | {2**k + d for k in range(1, 21) for d in (-1, 0, 1)} | {2**1000, int(1.7e308)}
)
# zero of both signs, the least subnormal, one, a negative slope, speeds whose powers overflow, inf and NaN
SPECIAL_SPEEDS = [0.0, -0.0, 5e-324, 1.0, -2.5, 1e155, 1e300, math.inf, math.nan]


@pytest.mark.parametrize("p", CHAIN_EXPONENTS, ids=lambda p: {2**1000: "2^1000", int(1.7e308): "1.7e308"}.get(p, str(p)))
def test_integer_power_penalty_is_a_multiplication_chain(p):
    v = np.concatenate([SPECIAL_SPEEDS, np.random.default_rng(p).uniform(0.0, 50.0, 2_000)])
    with np.errstate(over="ignore", invalid="ignore"):
        if p in CHAINS:
            assert np.array([CHAINS[p](x) for x in v.tolist()]).tobytes() == power_chain(v, p).tobytes()
        for scale in (1.0, 0.3):
            L = power_lagrangian(float(p), scale)
            expected = np.array([scale * power_chain(x, p) / float(p) for x in v.tolist()])
            assert L(v).tobytes() == expected.tobytes()
            assert np.array([L.fn(x) for x in v.tolist()]).tobytes() == expected.tobytes()


def achievable_speeds(section, y, t):
    """The speeds d(f(y), fiber(z)) / t over the base set z, sorted."""
    return np.sort(section.fiber_distances()[y] / t)


def hstar(L, section, y, t, w, xi):
    """H*(w) = max over the xi grid of (xi w - L*(xi)), with L* the transform
    over the achievable speeds at (y, t): the biconjugate, by `conjugate` twice."""
    speeds = achievable_speeds(section, y, t)
    lstar = conjugate(xi, speeds, L(speeds))[0]
    return conjugate(w, xi, lstar)[0]


def test_two_point_transform_table(two_point):
    sec = two_point.section()
    L = two_point.lagrangian()
    table = legendre_transform(L, sec, 1, 1.0)
    # the ILS is exactly 1, so the default grid is linspace(0, 1, 101) bit for bit
    assert table.xi_grid.tobytes() == np.linspace(0.0, 1.0, 101).tobytes()
    assert np.allclose(achievable_speeds(sec, 1, 1.0), [0.0, math.sqrt(2.0)])
    assert set(table.argmax_w.tolist()) == {0.0, float(achievable_speeds(sec, 1, 1.0)[1])}
    # two-element max oracle: L*(xi) = max(0, sqrt(2) xi - 1)
    expected = np.maximum(0.0, math.sqrt(2.0) * table.xi_grid - float(L(math.sqrt(2.0))))
    assert np.allclose(table.lstar, expected, atol=1e-15)
    i0 = int(np.argmin(np.abs(table.xi_grid - 1.0)))
    assert table.lstar[i0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
    assert table.lstar[0] == 0.0  # xi = 0 with w = 0 achievable


def test_claim_column_matches_at_zero_misses_elsewhere(two_point):
    sec = two_point.section()
    table = legendre_transform(two_point.lagrangian(), sec, 1, 1.0, xi_resolution=11)
    assert table.xi_grid[:2].tolist() == [0.0, 0.1]
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
        w = achievable_speeds(sec, y, t)
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
    w = achievable_speeds(sec, 1, 1.0)  # 0 and sqrt(2)
    h = hstar(L, sec, 1, 1.0, w, np.linspace(0, 1, 101))
    gap = L(w) - h
    assert np.all(gap >= -1e-12)  # H* <= L on achievable speeds
    assert h[0] <= 0.0 + 1e-15  # H*(0) = -min H <= 0 = L(0)


def test_refinement_monotone_exact(two_point):
    sec = two_point.section()
    L = two_point.lagrangian()
    xi_full = np.linspace(0.0, 1.0, 1001)
    w = np.array([0.0, math.sqrt(2.0)])
    g11, g101, g1001 = (L(w) - hstar(L, sec, 1, 1.0, w, xi) for xi in (xi_full[::100], xi_full[::10], xi_full))
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
    gap = L(w) - hstar(L, sec, 0, 1.0, w, np.linspace(0, 1, 1001))
    assert float(np.abs(gap).max()) <= 1e-3


def test_default_grid_needs_finite_ils():
    space = FiberedSpace(
        base_points=np.array([[0.0], [1.0]]),
        fibers=(PointSet(np.array([[0.0]])), PointSet(np.array([[0.0], [5.0]]))),
    )
    sec = Section(space=space, values=np.array([[0.0], [5.0]]))
    with pytest.raises(PreconditionError):
        legendre_transform(model_quadratic(), sec, 0, 1.0)


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
    # an infinite t gave all-zero speeds and L*; the xi grid [0, ILS] takes 1 to 4096 points
    L, sec = paper.lagrangian(), paper.section()
    with pytest.raises(PreconditionError, match="t must be positive and finite"):
        legendre_transform(L, sec, 0, math.inf)
    for xi_resolution in (0, 4097, 11.0):
        with pytest.raises(PreconditionError, match=r"xi_resolution must be an integer in \[1, 4096\]"):
            legendre_transform(L, sec, 0, 0.02, xi_resolution=xi_resolution)


@pytest.mark.parametrize("y", [-1, 81, 1.0, math.nan])
def test_transforms_refuse_a_base_index_outside_the_base_set(paper, y):
    # y = -1 took the last base point, y = 81 raised IndexError
    L, sec = paper.lagrangian(), paper.section()
    with pytest.raises(PreconditionError, match=r"base index must be an integer in \[0, 81\)"):
        legendre_transform(L, sec, y, 0.02)


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
    (worst slack, witness (x, y, z, t)), the first maximum winning.  A NaN
    slack is the worst, and the first NaN stays."""
    D, E, K = section.fiber_distances(), section.value_distances(), bound_K(section)
    worst, witness = -math.inf, None
    for t in t_list:
        if math.isnan(worst):
            break
        A = t * L(D / t)
        Lvals = L(E / t)
        if np.any(Lvals < 0):
            worst, witness = math.inf, None
            continue
        slack = reference_max_row_gaps(A) - 2.0 * K * np.sqrt(Lvals)
        y, x = np.unravel_index(int(np.argmax(slack)), slack.shape)  # the first NaN, if any
        if math.isnan(slack[y, x]) or slack[y, x] > worst:
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
    # the negative scale makes L(E / t) negative off the diagonal: the axiom fails at inf without a witness
    penalties = [model_quadratic(), power_lagrangian(4.0), power_lagrangian(1.5, 0.3), zero_lagrangian()]
    penalties.append(power_lagrangian(2.0, -1.0))
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
        lhs = reference_max_row_gaps(L1(sec.fiber_distances()))
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


def nan_beyond_the_grid(sec, times, spike: bool = False):
    """exp up to the top of the certification grid, NaN beyond; with `spike`, -1 at the speed
    max(E) / max(times), so that L(E / t) is negative at the last time."""
    top = float(certification_grid(sec, times)[-1])
    at = float(sec.value_distances().max()) / float(np.max(times)) if spike else math.nan
    return lambda v: np.where(v == at, -1.0, np.where(v <= top, np.exp(np.minimum(v, top)), np.nan))


def test_a_nan_compatibility_slack_fails_the_axiom(tmp_path):
    # L(E / t) reaches past the top of the grid at the first time only: in reverse order its NaN replaces
    # the finite worst of the later times, and in time order their finite slacks do not replace it.  With
    # the spike, the last time's negative L(E / t) gives inf: first in reverse order, so the NaN replaces
    # it, and after the NaN in time order, where no later time is scanned
    scenario = random_scenario(13)
    sec, times = scenario.section(), scenario.grids.times
    fn, spiked = nan_beyond_the_grid(sec, times), nan_beyond_the_grid(sec, times, spike=True)
    assert _compatibility(Lagrangian(fn=spiked), sec, times[-1:]) == (math.inf, None)
    for penalty, declared in itertools.product((fn, spiked), (False, True)):
        L = Lagrangian(fn=penalty, nondecreasing_convex=declared)  # the full scan and the pruned one
        for ts in (times, times[::-1]):
            worst, witness = _compatibility(L, sec, ts)
            want = reference_compatibility(L, sec, ts)
            assert math.isnan(worst) and math.isnan(want[0]) and witness == want[1] == (5, 3, 5, times[0])
    assert _compatibility(Lagrangian(fn=fn), sec, times[1:])[0] < 0
    scenario.lagrangian = lambda: Lagrangian(fn=fn)
    verdict = {v.check: v for v in run_check(scenario, tmp_path)[1]}["axiom_compatibility"]
    assert verdict.status == "FAIL" and math.isnan(verdict.worst_slack)
    assert verdict.location == "x=r05,y=r03,z=r05,t=1.58711"
