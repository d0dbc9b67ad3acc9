import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberflow.errors import GeometryError
from fiberflow.geometry import (
    FiberedSpace,
    PointSet,
    SegmentUnion,
    distances_to_fibers,
    fiber_min_distance,
    segment_segment_distance,
    validate_space,
)
from fiberflow.scenario import (
    load_scenario,
    paper_counterexample,
    random_scenario,
    singleton_constant_scenario,
    tie_scenario,
    two_point_scenario,
    write_scenario,
)
from fiberflow.section import Section
from test_section import _random_section, segments_section, two_line_section


class FiberDistance(NamedTuple):
    value: float
    witness: np.ndarray


def point_segment_closest(p, a, b):
    """Per-point reference: exact distance from `p` to segment `a`-`b`, with
    the closest point."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a)), a.copy()
    s = float((p - a) @ ab) / denom
    s = min(1.0, max(0.0, s))
    closest = a + s * ab
    return float(np.linalg.norm(p - closest)), closest


def dist_to_fiber(p, fiber) -> FiberDistance:
    """Per-point reference: Euclidean distance from `p` to a nonempty fiber,
    with a witness attaining it; the exact minimum over the sample points, or
    over the exact point-to-segment distances of a segment union."""
    p = np.asarray(p, dtype=float)
    if isinstance(fiber, PointSet):
        dists = np.linalg.norm(fiber.points - p[None, :], axis=1)
        k = int(np.argmin(dists))
        return FiberDistance(float(dists[k]), fiber.points[k].copy())
    best = None
    for a, b in fiber.segments:
        d, closest = point_segment_closest(p, a, b)
        if best is None or d < best[0]:
            best = (d, closest)
    return FiberDistance(best[0], best[1])


SLICE_AT_7 = PointSet(np.array([[7.0, 8.0], [7.0, 6.5]]))
SLICE_AT_6 = PointSet(np.array([[6.0, 8.0], [6.0, 6.0]]))


def test_distance_to_vertical_slice():
    d, witness = dist_to_fiber([1.0, 4.0], SLICE_AT_7)
    assert d == pytest.approx(6.5, abs=1e-12)
    assert np.allclose(witness, [7.0, 6.5])


def test_distance_zero_on_own_point():
    fiber = PointSet(np.array([[2.0, -1.0], [0.5, 0.5]]))
    for p in fiber.points:
        assert dist_to_fiber(p, fiber).value == 0.0


def test_distance_to_second_slice():
    d, witness = dist_to_fiber([1.0, 4.0], SLICE_AT_6)
    assert d == pytest.approx(math.sqrt(29.0), abs=1e-12)
    assert np.allclose(witness, [6.0, 6.0])


def test_empty_fiber_raises():
    empty = PointSet(np.empty((0, 2)))
    with pytest.raises(GeometryError):
        distances_to_fibers(np.zeros((1, 2)), [empty])
    with pytest.raises(GeometryError):
        fiber_min_distance(SLICE_AT_7, empty)


def test_pointset_minimality_exhaustive():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3, 3, size=(12, 3))
    fiber = PointSet(pts)
    for _ in range(50):
        p = rng.uniform(-5, 5, size=3)
        d = dist_to_fiber(p, fiber).value
        assert all(d <= np.linalg.norm(p - a) + 1e-12 for a in pts)


coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(p=st.tuples(coord, coord), q=st.tuples(coord, coord))
def test_dist_to_fiber_is_1_lipschitz(p, q):
    fiber = SegmentUnion(np.array([[[0.0, 8.0], [8.0, 8.0]], [[0.0, 3.0], [8.0, 7.0]]]))
    dp = dist_to_fiber(np.array(p), fiber).value
    dq = dist_to_fiber(np.array(q), fiber).value
    assert abs(dp - dq) <= math.dist(p, q) + 1e-9


def test_segment_distance_matches_dense_sampling_oracle():
    # unit-length segments and far query points keep the sampling bias below 1e-9
    segs = np.array([[[0.0, 0.0], [1.0, 0.0]], [[3.0, 1.0], [3.6, 1.8]]])
    fiber = SegmentUnion(segs)
    ss = np.linspace(0.0, 1.0, 10_000)
    for p in (np.array([-1.0, 2.5]), np.array([0.5, 2.2]), np.array([5.0, -1.0])):
        exact = dist_to_fiber(p, fiber).value
        sampled = min(
            float(np.linalg.norm(p - (a + s * (b - a)))) for a, b in segs for s in ss
        )
        assert exact <= sampled + 1e-15
        assert abs(exact - sampled) <= 1e-9


def test_point_segment_projection_cases():
    a, b = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    d, c = point_segment_closest(np.array([1.0, 3.0]), a, b)
    assert d == pytest.approx(3.0) and np.allclose(c, [1.0, 0.0])
    d, c = point_segment_closest(np.array([-2.0, 0.0]), a, b)
    assert d == pytest.approx(2.0) and np.allclose(c, a)
    # degenerate segment falls back to the point distance
    d, _ = point_segment_closest(np.array([1.0, 1.0]), a, a)
    assert d == pytest.approx(math.sqrt(2.0))


def test_segment_segment_distance():
    p1, q1 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    p2, q2 = np.array([0.0, 1.0]), np.array([1.0, 1.0])
    assert segment_segment_distance(p1, q1, p2, q2) == pytest.approx(1.0)
    # crossing segments touch
    p2, q2 = np.array([0.5, -1.0]), np.array([0.5, 1.0])
    assert segment_segment_distance(p1, q1, p2, q2) == pytest.approx(0.0, abs=1e-12)


def reference_segment_segment_distance(p1, q1, p2, q2):
    """`segment_segment_distance` in Python floats, each dot product and norm
    summed in coordinate order."""

    def dot(u, v):
        return _ordered_sum([uk * vk for uk, vk in zip(u, v)])

    def norm(v):
        return math.sqrt(dot(v, v))

    p1, q1, p2, q2 = (v.tolist() for v in (p1, q1, p2, q2))
    d1 = [qk - pk for pk, qk in zip(p1, q1)]
    d2 = [qk - pk for pk, qk in zip(p2, q2)]
    r = [xk - yk for xk, yk in zip(p1, p2)]
    a, e, f = dot(d1, d1), dot(d2, d2), dot(d2, r)
    if a == 0.0 and e == 0.0:
        return norm(r)
    if a == 0.0:
        t = min(1.0, max(0.0, f / e))
        return norm([xk - (yk + t * vk) for xk, yk, vk in zip(p1, p2, d2)])
    c = dot(d1, r)
    if e == 0.0:
        s = min(1.0, max(0.0, -c / a))
        return norm([xk + s * uk - yk for xk, uk, yk in zip(p1, d1, p2)])
    b = dot(d1, d2)
    denom = a * e - b * b
    s = min(1.0, max(0.0, (b * f - c * e) / denom)) if denom != 0.0 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t, s = 0.0, min(1.0, max(0.0, -c / a))
    elif t > 1.0:
        t, s = 1.0, min(1.0, max(0.0, (b - c) / a))
    return norm([xk + s * uk - (yk + t * vk) for xk, uk, yk, vk in zip(p1, d1, p2, d2)])


@pytest.mark.parametrize("kappa", [2, 3])
def test_segment_segment_distance_sums_in_coordinate_order(kappa):
    # BLAS picks its dot kernel, and so the order of its sums, by CPU at run
    # time; the overlap distances of validate_space must not depend on it
    rng = np.random.default_rng(kappa)
    cases = rng.normal(size=(5000, 4, kappa))
    cases[::50, 1] = cases[::50, 0]  # some degenerate first segments,
    cases[::70, 3] = cases[::70, 2]  # second ones, and both
    got = [segment_segment_distance(*case) for case in cases]
    assert got == [reference_segment_segment_distance(*case) for case in cases]


def test_fiber_min_distance_mixed_kinds():
    a = PointSet(np.array([[0.0, 0.0]]))
    b = SegmentUnion(np.array([[[2.0, -1.0], [2.0, 1.0]]]))
    assert fiber_min_distance(a, b) == pytest.approx(2.0)


def test_validate_paper_space(paper):
    report = validate_space(paper.space())
    assert report.ok


def test_identical_fibers_flagged_as_overlap():
    space = FiberedSpace(
        base_points=np.array([[0.0, 0.0], [1.0, 0.0]]),
        fibers=(PointSet(np.array([[5.0, 5.0]])), PointSet(np.array([[5.0, 5.0]]))),
    )
    report = validate_space(space)
    assert not report.ok
    assert report.overlaps and report.overlaps[0][:2] == (0, 1)


def test_space_refuses_kappa_below_one():
    with pytest.raises(GeometryError, match="kappa must be at least 1"):
        FiberedSpace(base_points=np.empty((1, 0)), fibers=(PointSet(np.empty((1, 0))),))


def test_empty_fiber_reported():
    space = FiberedSpace(
        base_points=np.array([[0.0, 0.0]]),
        fibers=(PointSet(np.empty((0, 2))),),
    )
    report = validate_space(space)
    assert report.empty_fibers == [0]
    assert not report.ok


def test_degenerate_segment_reported():
    space = FiberedSpace(
        base_points=np.array([[0.0, 0.0]]),
        fibers=(SegmentUnion(np.array([[[1.0, 1.0], [1.0, 1.0]]])),),
    )
    report = validate_space(space)
    assert report.degenerate_segments == [(0, 0)]


def reference_overlaps(space, tau_geo):
    """Every pair of nonempty fibers closer than tau_geo, from a scan over all pairs."""
    fibers = space.fibers
    out = []
    for i in range(len(fibers)):
        for j in range(i + 1, len(fibers)):
            if not (fibers[i].is_empty or fibers[j].is_empty):
                d = fiber_min_distance(fibers[i], fibers[j])
                if d < tau_geo:
                    out.append((i, j, d))
    return out


def _space(kappa, fibers):
    base = np.arange(len(fibers) * kappa, dtype=float).reshape(len(fibers), kappa)
    return FiberedSpace(base_points=base, fibers=tuple(fibers))


def _segments(*segs):
    return SegmentUnion(np.array(segs, dtype=float))


def test_box_pruned_overlaps_equal_all_pairs_scan():
    bundled = [b() for b in (paper_counterexample, singleton_constant_scenario, tie_scenario, two_point_scenario)]
    spaces = [sc.space() for sc in bundled + [random_scenario(seed) for seed in range(40)]]
    spaces += [
        # crossing segments, and a point on one of them: real overlaps inside overlapping boxes
        _space(2, [_segments([[0, 0], [2, 2]]), _segments([[0, 2], [2, 0]]), PointSet(np.array([[1.5, 1.5]]))]),
        # boxes that overlap or touch while the fibers stay apart
        _space(2, [_segments([[0, 0], [2, 2]]), _segments([[1, 0], [2, 0.5]]), PointSet(np.array([[2.0, -1.0]]))]),
        # identical point fibers, an empty fiber between them, a degenerate segment
        _space(2, [PointSet(np.array([[5.0, 5.0]])), PointSet(np.empty((0, 2))), PointSet(np.array([[5.0, 5.0]]))]),
        _space(
            3,
            [_segments([[0, 0, 0], [0, 0, 1]]), PointSet(np.array([[0.0, 0.0, 1.0]])), _segments([[1, 1, 1], [1, 1, 1]])],
        ),
        # boxes spread along the second axis only
        _space(2, [_segments([[0, k], [8, k]]) for k in (0.0, 0.5, 0.7, 3.0)]),
    ]
    found = 0
    for space in spaces:
        for tau in (1e-9, 0.25, 0.5, 1.5, 3.0):
            overlaps = validate_space(space, tau_geo=tau).overlaps
            assert overlaps == reference_overlaps(space, tau), tau
            found += len(overlaps)
    assert found > 100  # the comparison covers many real overlaps


def test_box_margin_covers_a_segment_end_rounded_outside_its_box():
    # a + (b - a) rounds to 7.290000000000001 > b, so the computed distance to
    # the point at 7.79 is below the box gap 0.5 that tau_geo equals
    space = _space(1, [_segments([[1.15], [7.29]]), PointSet(np.array([[7.79]]))])
    overlaps = validate_space(space, tau_geo=0.5).overlaps
    assert overlaps == reference_overlaps(space, 0.5)
    assert overlaps and overlaps[0][2] < 0.5


def reference_duplicates(space):
    """The pairs (i < j) at base distance 0, in order."""
    rows, cols = np.nonzero(space.base_distance_matrix() == 0.0)
    return [(i, j) for i, j in zip(rows.tolist(), cols.tolist()) if i < j]


def test_duplicate_base_points_equal_the_zero_distance_pairs():
    rng = np.random.default_rng(5)
    spaces = [sc.space() for sc in (paper_counterexample(), tie_scenario(), two_point_scenario())]
    spaces += [random_scenario(seed).space() for seed in range(40)]
    for kappa, m in ((1, 1), (1, 9), (2, 30), (3, 60)):
        for _ in range(5):
            # few distinct coordinates, -0.0 among them: many duplicates, in any order
            base = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(m, kappa))
            fibers = tuple(PointSet(np.array([[float(k)] * kappa])) for k in range(m))
            spaces.append(FiberedSpace(base_points=base, fibers=fibers))
    found = 0
    for space in spaces:
        pairs = validate_space(space).duplicate_base_pairs
        assert pairs == reference_duplicates(space)
        found += len(pairs)
    assert found > 400  # the comparison covers many duplicates


def test_load_leaves_the_base_distance_matrix_unbuilt(tmp_path):
    path = write_scenario(paper_counterexample(), tmp_path / "paper.json")
    assert load_scenario(path).space()._base_dist is None


def test_duplicate_base_points_in_order():
    fibers = [PointSet(np.array([[float(k), 9.0]])) for k in range(4)]
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    report = validate_space(FiberedSpace(base_points=base, fibers=tuple(fibers)))
    assert report.duplicate_base_pairs == [(0, 2), (1, 3)]


def _ordered_sum(terms):
    """Sum of a list of floats from the first term on, in list order (the
    builtin sum compensates its float sums from Python 3.12 on)."""
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def reference_norms(diffs):
    """Euclidean norms over the last axis: numpy's for fewer than 8
    coordinates, which it sums in order, and in-order sums of Python floats
    otherwise (numpy sums longer rows pairwise)."""
    diffs = np.asarray(diffs, dtype=float)
    if diffs.shape[-1] < 8:
        return np.linalg.norm(diffs, axis=-1)
    rows = diffs.reshape(-1, diffs.shape[-1]).tolist()
    return np.array([math.sqrt(_ordered_sum([d * d for d in row])) for row in rows]).reshape(diffs.shape[:-1])


def reference_segment_distances(points, fiber):
    """Distances from the rows of `points` to a segment union, one point and
    one segment at a time in Python floats, each dot product summed in
    coordinate order; the clamp min(max(s, 0), 1) passes NaN on like np.clip.
    The norm of the differences p - (a + s (b - a)) is `reference_norms`."""
    best = np.full(len(points), np.inf)
    for a, b in fiber.segments.tolist():
        ab = [bk - ak for ak, bk in zip(a, b)]
        denom = _ordered_sum([u * u for u in ab])
        diffs = []
        for p in points.tolist():
            rel = [pk - ak for pk, ak in zip(p, a)]
            if denom != 0.0:
                s = min(max(_ordered_sum([r * u for r, u in zip(rel, ab)]) / denom, 0.0), 1.0)
                rel = [pk - (ak + s * u) for pk, ak, u in zip(p, a, ab)]
            diffs.append(rel)
        np.minimum(best, reference_norms(diffs), out=best)
    return best


def reference_distance_tables(section):
    """(D, E, base distances) from `reference_norms` over (m, n, kappa)
    differences, one fiber at a time; segment fibers take the projection of
    `reference_segment_distances`."""
    values, space = section.values, section.space
    cols = [
        reference_norms(values[:, None] - fib.points[None]).min(axis=1)
        if isinstance(fib, PointSet)
        else reference_segment_distances(values, fib)
        for fib in space.fibers
    ]
    E = reference_norms(values[:, None] - values[None])
    base = reference_norms(space.base_points[:, None] - space.base_points[None])
    return np.column_stack(cols), E, base


def test_distance_tables_equal_the_norm_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    bundled = [b() for b in (paper_counterexample, singleton_constant_scenario, tie_scenario, two_point_scenario)]
    sections = [sc.section() for sc in bundled + [random_scenario(seed) for seed in range(40)]]
    sections += [two_line_section(60), segments_section(12)]
    # numpy's norm sums kappa >= 8 pairwise; the tables sum in order for every kappa
    for kappa in (1, 2, 3, 8, 9):
        # 200 base points make several blocks of point fibers; 1e200 overflows
        # the squares to inf, 1e154 overflows some sums of squares, 1e-200
        # underflows the squares
        for m, scale in ((5, 1.0), (200, 1.0), (30, 1e200), (30, 1e-200), (30, 1e154)):
            sections += [_random_section(rng, m, kappa, scale), _random_section(rng, m, kappa, scale, segment_every=3)]
    # point counts 1, 3, 2, 3, 1, ...: the fibers of one count form a run whose
    # columns interleave with the other runs', and at m=300 a run takes several
    # blocks; one count alone gives runs of contiguous columns
    for counts, m in (((1, 3, 2, 3, 1, 2, 2), 300), ((1, 3, 2, 3, 1, 2, 2), 9), ((4, 1), 40), ((2,), 300)):
        sections.append(_random_section(rng, m, 2, 1.0, segment_every=5 if len(counts) > 1 else 0, counts=counts))
    overflowed = underflowed = 0
    for section in sections:
        with np.errstate(over="ignore", invalid="ignore"):
            tables = section.fiber_distances(), section.value_distances(), section.space.base_distance_matrix()
            expected_tables = reference_distance_tables(section)
        for table, expected in zip(tables, expected_tables):
            assert table.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        overflowed += int(np.isinf(tables[1]).sum())
        underflowed += int(((tables[1] == 0.0) & (section.values[:, None] != section.values[None]).any(axis=2)).sum())
    assert overflowed > 100 and underflowed > 100  # the comparison covers both ends of the range


@pytest.mark.parametrize("empty", [PointSet(np.empty((0, 2))), SegmentUnion(np.empty((0, 2, 2)))])
def test_distances_to_an_empty_fiber_raise(empty):
    fibers = [PointSet(np.array([[float(k), 5.0]])) for k in range(6)]
    fibers[3] = empty
    space = FiberedSpace(base_points=np.arange(12.0).reshape(6, 2), fibers=tuple(fibers))
    with pytest.raises(GeometryError):
        Section(space=space, values=np.array([[float(k), 5.0] for k in range(6)])).fiber_distances()


def test_distance_tables_memory_is_quadratic():
    m, kappa = 200, 3
    rng = np.random.default_rng(3)
    builds = {
        "D": lambda section: section.fiber_distances(),
        "E": lambda section: section.value_distances(),
        "base": lambda section: section.space.base_distance_matrix(),
    }
    for name, build in builds.items():
        section = _random_section(rng, m, kappa, 1.0)
        tracemalloc.start()
        try:
            build(section)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * m * m * 8, f"{name}: {peak / (8 * m * m):.1f} m^2 floats"
