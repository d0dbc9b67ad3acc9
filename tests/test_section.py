import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import reference_first_form, reference_max_row_gaps
from fiberflow import geometry
from fiberflow.errors import PreconditionError
from fiberflow.geometry import PRUNE_MARGIN, FiberedSpace, PointSet, SegmentUnion
from fiberflow.lagrangian import check_axioms, model_quadratic, power_lagrangian
from fiberflow.scenario import random_scenario
from fiberflow.section import (
    DEFAULT_TAU_SEC,
    Section,
    asymmetry_probe,
    bound_K,
    fiber_excess_bound,
    first_form_scan,
    g_field,
    global_ILS,
    local_slopes,
    validate_section,
)


def brute_force_ils(section) -> float:
    """Independent double-loop supremum of the pairwise ratio."""
    m = section.n_base
    E = section.value_distances()
    D = section.fiber_distances()
    best = 0.0
    for i in range(m):
        for j in range(m):
            if i == j or (D[i, j] == 0.0 and E[i, j] == 0.0):
                continue
            if D[i, j] == 0.0:
                return math.inf
            best = max(best, E[i, j] / D[i, j])
    return best


def brute_force_local_slopes(section, radii):
    """Independent loops over each ball: (ils, ils_a) with the 0/0-skip and
    c/0 = inf conventions."""
    m = section.n_base
    E = section.value_distances()
    D = section.fiber_distances()
    BD = section.space.base_distance_matrix()

    def ratios(pairs):
        for i, j in pairs:
            if i == j or (D[i, j] == 0.0 and E[i, j] == 0.0):
                continue
            yield math.inf if D[i, j] == 0.0 else E[i, j] / D[i, j]

    ils = np.zeros((len(radii), m))
    ils_a = np.zeros((len(radii), m))
    for ri, r in enumerate(radii):
        for z in range(m):
            ball = [y for y in range(m) if BD[y, z] <= r]
            ils[ri, z] = max(ratios((y, z) for y in ball), default=0.0)
            ils_a[ri, z] = max(ratios((y1, y2) for y1 in ball for y2 in ball), default=0.0)
    return ils, ils_a


def degenerate_section():
    """f(y0) sits on the fiber of y1; invalid geometry with an infinite ratio."""
    space = FiberedSpace(
        base_points=np.array([[0.0], [1.0]]),
        fibers=(PointSet(np.array([[0.0]])), PointSet(np.array([[0.0], [5.0]]))),
    )
    return Section(space=space, values=np.array([[0.0], [5.0]]))


def two_line_section(m):
    """The bundled counterexample's two-line geometry at m base points, with
    the section on the lower line."""
    x = np.linspace(0.0, 8.0, m)
    fibers = tuple(PointSet(np.array([[xi, 8.0], [xi, 3.0 + xi / 2.0]])) for xi in x)
    space = FiberedSpace(base_points=np.column_stack([x, np.zeros(m)]), fibers=fibers)
    return Section(space=space, values=np.column_stack([x, 3.0 + x / 2.0]))


def segments_section(m):
    """Two vertical segments per base point, (x, 7.75)-(x, 8.25) and
    (x, y - 0.2)-(x, y + 0.2) with y = 3 + x/2, and the section at (x, y)."""
    x = np.linspace(0.0, 8.0, m)
    y = 3.0 + x / 2.0
    fibers = tuple(
        SegmentUnion(np.array([[[xi, 7.75], [xi, 8.25]], [[xi, yi - 0.2], [xi, yi + 0.2]]])) for xi, yi in zip(x, y)
    )
    space = FiberedSpace(base_points=np.column_stack([x, np.zeros(m)]), fibers=fibers)
    return Section(space=space, values=np.column_stack([x, y]))


def unequal_section(m):
    """Fibers of 1 to 4 points over base points (x, 0), x = linspace(0, 2, m),
    and one fiber of two segments at k = m // 2; the section takes a
    different point of each point fiber."""
    x = np.linspace(0.0, 2.0, m)
    fibers, values = [], []
    for k, xi in enumerate(x):
        heights = [3.0 + xi / 2.0, 8.0, -2.0 - xi / 3.0, 11.0 + xi / 4.0][: 1 + k % 4]
        pts = np.array([[xi, h] for h in heights])
        if k == m // 2:
            h = heights[0]
            fibers.append(SegmentUnion(np.array([[[xi, 7.5], [xi, 8.5]], [[xi, h - 0.2], [xi, h + 0.2]]])))
            values.append([xi, h])
        else:
            fibers.append(PointSet(pts))
            values.append(pts[(k // 4) % len(pts)])
    space = FiberedSpace(base_points=np.column_stack([x, np.zeros(m)]), fibers=tuple(fibers))
    return Section(space=space, values=np.array(values))


def mixed_section():
    """Point and segment fibers in one space, a segment of zero length among them."""
    mixed = FiberedSpace(
        base_points=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
        fibers=(
            SegmentUnion(np.array([[[0.0, 0.0], [0.0, 2.0]], [[0.0, 5.0], [1.0, 6.0]]])),
            PointSet(np.array([[3.0, 1.0], [4.0, 4.0]])),
            SegmentUnion(np.array([[[6.0, 0.0], [6.0, 0.0]]])),
            PointSet(np.array([[2.0, 7.0]])),
        ),
    )
    return Section(space=mixed, values=np.array([[0.0, 1.0], [3.0, 1.0], [6.0, 0.0], [2.0, 7.0]]))


def _random_section(rng, m, kappa, scale, segment_every=0, counts=None):
    """Point fibers of 1-3 points, or of counts[j % len(counts)] points when
    `counts` is given (every `segment_every`-th fiber a union of 1-2
    segments), coordinates drawn from {-1, -0.0, 0.0, 1} plus noise, times
    `scale`; each value is a point of its own fiber."""

    def coords(*shape):
        signed_zeros = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape)
        return (signed_zeros + np.where(rng.random(shape) < 0.5, 0.0, rng.normal(size=shape))) * scale

    fibers = [
        SegmentUnion(coords(int(rng.integers(1, 3)), 2, kappa))
        if segment_every and j % segment_every == segment_every - 1
        else PointSet(coords(counts[j % len(counts)] if counts else int(rng.integers(1, 4)), kappa))
        for j in range(m)
    ]
    values = np.array([f.points[0] if isinstance(f, PointSet) else f.segments[0, 1] for f in fibers])
    return Section(space=FiberedSpace(base_points=coords(m, kappa), fibers=tuple(fibers)), values=values)


def reference_fiber_excess_bound(section):
    """fiber_excess_bound with the fibers in input order and their pieces
    reduced by np.minimum.reduceat and np.maximum.reduceat; each distance
    is |p - (a + s (b - a))|, every dot product and norm summed in
    coordinate order."""

    def ordered_sum(terms):
        return functools.reduce(np.add, terms)

    fibers = section.space.fibers
    pieces = [np.stack([f.points, f.points], axis=1) if isinstance(f, PointSet) else f.segments for f in fibers]
    counts = [len(piece) for piece in pieces]
    starts = np.cumsum([0] + counts)
    ends = np.concatenate(pieces)
    a, b = ends[:, 0], ends[:, 1]
    ab = b - a
    denom = ordered_sum([u * u for u in ab.T])
    m = section.n_base
    H = np.empty((m, m))
    step = max(1, m * m // (8 * len(ends) * max(counts)))
    for y0 in range(0, m, step):
        y1 = min(m, y0 + step)
        k0, k1 = starts[y0], starts[y1]
        seg_a, seg_ab, seg_denom = a[k0:k1].T, ab[k0:k1].T, denom[k0:k1]
        d = None
        for p in (a,) if np.array_equal(a, b) else (a, b):
            rel = [p[:, k, None] - seg_a[k] for k in range(p.shape[1])]
            if seg_denom.any():
                s = ordered_sum([r * u for r, u in zip(rel, seg_ab)])
                s = np.clip(np.divide(s, seg_denom, out=np.zeros_like(s), where=seg_denom > 0), 0.0, 1.0)
                rel = [p[:, k, None] - (seg_a[k] + s * seg_ab[k]) for k in range(p.shape[1])]
            dist = np.sqrt(ordered_sum([r * r for r in rel]))
            d = dist if d is None else np.maximum(d, dist)
        nearest = np.minimum.reduceat(d, starts[y0:y1] - k0, axis=1)
        H[y0:y1] = np.maximum.reduceat(nearest, starts[:-1], axis=0).T
    magnitudes = (np.abs(ends).max(), np.abs(section.values).max(), H.max(), section.fiber_distances().max())
    H += PRUNE_MARGIN * float(max(magnitudes))
    return H


def oblique_segment_sections():
    """Random sections in kappa 2 and 3 whose every second fiber is a union
    of one or two segments in general position."""
    rng = np.random.default_rng(11)
    return [_random_section(rng, m, kappa, 1.0, segment_every=2) for kappa in (2, 3) for m in (4, 7, 12, 30, 9, 20) * 3]


def reference_asymmetry_violations(section, excess_tol=1e-9):
    """The reverse-form scan one anchor x at a time: every (x, y, z) with
    D[x,y] - D[x,z] - E[y,z] > excess_tol, as (x, y, z, lhs, rhs) in order."""
    E = section.value_distances()
    D = section.fiber_distances()
    out = []
    for x in range(section.n_base):
        lhs = D[x][:, None] - D[x][None, :]
        for y, z in np.argwhere(lhs - E > excess_tol):
            out.append((x, int(y), int(z), float(lhs[y, z]), float(E[y, z])))
    return sorted(out)


def violation_rows(probe):
    """The probe's violation columns as (x, y, z, lhs, rhs) tuples, in row order."""
    return list(zip(*probe.violations.T.tolist(), probe.lhs.tolist(), probe.rhs.tolist()))


def test_g_field_values(paper):
    sec = paper.section()
    g = g_field(sec)
    assert g[paper.id_index("y070")] == 8.0  # max of (8, 7)
    assert g[paper.id_index("y010")] == 4.0  # max of (1, 4)


def test_g_field_all_equal_coordinates():
    space = FiberedSpace(base_points=np.zeros((1, 3)), fibers=(PointSet(np.array([[2.0, 2.0, 2.0]])),))
    sec = Section(space=space, values=np.array([[2.0, 2.0, 2.0]]))
    assert g_field(sec)[0] == 2.0


def test_two_point_ils_is_one(two_point):
    sec = two_point.section()
    assert global_ILS(sec) == pytest.approx(1.0, abs=1e-12)
    assert global_ILS(sec) == pytest.approx(brute_force_ils(sec), abs=0)


def test_singleton_fibers_give_classical_quotient_one(singleton):
    # f realizes every pairwise fiber distance, so the ratio is identically 1
    assert global_ILS(singleton.section()) == pytest.approx(1.0, abs=1e-12)


def test_reduced_paper_ils_at_least_one(reduced_paper_section):
    ils = global_ILS(reduced_paper_section)
    assert ils >= 1.0
    assert ils == pytest.approx(brute_force_ils(reduced_paper_section), abs=0)


def test_bound_K_two_point(two_point):
    assert bound_K(two_point.section()) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_bound_K_single_point():
    space = FiberedSpace(base_points=np.zeros((1, 2)), fibers=(PointSet(np.array([[1.0, 1.0]])),))
    sec = Section(space=space, values=np.array([[1.0, 1.0]]))
    assert bound_K(sec) == 0.0


def test_bound_K_reduced_paper(reduced_paper_section):
    # exhaustive oracle over the 9 ordered pairs
    D = reduced_paper_section.fiber_distances()
    assert bound_K(reduced_paper_section) == pytest.approx(float(D.max()), abs=0)
    assert bound_K(reduced_paper_section) == pytest.approx(math.sqrt(53.0), abs=1e-12)
    assert np.any(np.abs(D - 6.5) < 1e-12)


def test_K_dominates_every_pair(paper):
    sec = paper.section()
    assert np.all(sec.fiber_distances() <= bound_K(sec) + 1e-15)


def test_ils_at_least_one_on_valid_scenarios(paper, two_point, singleton):
    # f(y2) lies on the fiber over y2, so every pairwise ratio is >= 1
    for scenario in (paper, two_point, singleton, random_scenario(23)):
        sec = scenario.section()
        assert global_ILS(sec) >= 1.0
        E, D = sec.value_distances(), sec.fiber_distances()
        off = ~np.eye(sec.n_base, dtype=bool)
        assert np.all(D[off] <= E[off] + 1e-12)


def test_single_point_ils_is_zero_without_a_warning():
    space = FiberedSpace(base_points=np.zeros((1, 2)), fibers=(PointSet(np.array([[1.0, 0.0]])),))
    sec = Section(space=space, values=np.array([[1.0, 0.0]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert global_ILS(sec) == 0.0
    assert not caught


def test_infinite_flag_on_degenerate_section():
    # invalid geometry, but the flag must fire
    assert global_ILS(degenerate_section()) == math.inf


def test_local_slopes_match_brute_force(paper, two_point, singleton):
    cases = [
        (paper.section(), paper.grids.radii),
        (two_point.section(), [2.0, math.sqrt(2.0), 1.0]),  # sqrt(2) is the base distance
        (singleton.section(), [1.5, 0.5]),
        (degenerate_section(), [2.0, 0.5]),
    ] + [(random_scenario(seed).section(), [4.0, 2.0, 1.0]) for seed in (2, 9, 17)]
    # a first radius that covers every base point (the largest ball size w = m), then unequal balls
    cases += [
        (unequal_section(16), [1e9, 0.3, 0.14]),
        (two_line_section(40), [100.0, 1.0, 0.3]),  # w = 11 at radius 1: three blocks of centres
        (random_scenario(5).section(), [1e9, 3.0, 1.5]),
    ]
    for sec, radii in cases:
        report = local_slopes(sec, radii)
        ils, ils_a = brute_force_local_slopes(sec, radii)
        assert np.array_equal(report.ils, ils)
        assert np.array_equal(report.ils_a, ils_a)
        assert report.ILS == brute_force_ils(sec)
    for sec, radii in cases[-3:]:
        sizes = [(sec.space.base_distance_matrix() <= r).sum(axis=0) for r in radii]
        assert sizes[0].min() == sec.n_base and any(s.min() < s.max() for s in sizes[1:])
    # the degenerate pair reaches inf inside the larger ball only
    degenerate = local_slopes(degenerate_section(), [2.0, 0.5])
    assert degenerate.ILS == math.inf
    assert degenerate.ils[0].tolist() == [1.0, math.inf]
    assert degenerate.ils_a[0].tolist() == [math.inf, math.inf]
    assert not degenerate.ils[1].any() and not degenerate.ils_a[1].any()


def test_local_slopes_memory_is_quadratic():
    m = 200
    sec = two_line_section(m)
    sec.fiber_distances(), sec.value_distances(), sec.space.base_distance_matrix()  # cached before measuring
    tracemalloc.start()
    try:
        local_slopes(sec, [100.0])  # every ball holds every base point
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * m * m * 8, peak / (m * m * 8)


def test_local_slopes_isolated_point_convention(two_point):
    sec = two_point.section()
    report = local_slopes(sec, [2.0, 1.0])
    # radius 1 < base distance sqrt(2): both points isolated, slopes 0
    assert np.all(report.ils[1] == 0.0)
    assert np.all(report.ils_a[1] == 0.0)
    # radius 2 reaches the neighbor: single-pair brute force gives 1
    assert report.ils[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_slope_ordering_invariant(paper):
    sec = paper.section()
    report = local_slopes(sec, paper.grids.radii)
    assert np.all(report.ils <= report.ils_a + 1e-12)
    assert np.all(report.ils_a <= report.ILS + 1e-12)


def test_local_slopes_bad_radii(two_point):
    with pytest.raises(PreconditionError):
        local_slopes(two_point.section(), [1.0, 2.0])
    with pytest.raises(PreconditionError):
        local_slopes(two_point.section(), [])
    for radii in ([math.nan], [2.0, math.nan]):
        with pytest.raises(PreconditionError, match="radii must be positive"):
            local_slopes(two_point.section(), radii)


def test_local_slopes_refuse_an_infinite_radius(two_point):
    # an infinite radius was echoed into the report's radii
    for radii in ([math.inf], [math.inf, 1.0]):
        with pytest.raises(PreconditionError, match="radii must be positive, finite"):
            local_slopes(two_point.section(), radii)


def test_section_residuals_and_validation(paper):
    residuals = validate_section(paper.section())
    assert residuals.shape == (paper.n_base,)
    assert np.all(residuals <= 1e-12)


def test_validation_flags_off_fiber_value(two_point):
    sec = two_point.section()
    bad = Section(space=sec.space, values=sec.values + np.array([[0.0, 0.0], [0.0, 0.1]]))
    assert np.flatnonzero(validate_section(bad) > DEFAULT_TAU_SEC).tolist() == [1]


def test_asymmetry_first_form_holds_everywhere(paper, singleton):
    for scenario in (paper, singleton, random_scenario(11)):
        probe = asymmetry_probe(scenario.section())
        assert probe.first_form_worst <= 1e-9


def test_asymmetry_pinned_violation(paper):
    sec = paper.section()
    probe = asymmetry_probe(sec)
    xi, yi, zi = (paper.id_index(k) for k in ("y010", "y070", "y060"))
    assert probe.violations.shape == (len(probe.lhs), 3) == (len(probe.rhs), 3)
    hits = np.flatnonzero((probe.violations == (xi, yi, zi)).all(axis=1))
    assert len(hits) == 1
    lhs, rhs = probe.lhs[hits[0]], probe.rhs[hits[0]]
    assert lhs == pytest.approx(6.5 - math.sqrt(29.0), abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert lhs > rhs


def test_asymmetry_violations_match_per_anchor_reference(paper, tie, singleton):
    sections = [paper.section(), tie.section(), singleton.section(), two_line_section(60)]
    sections += [random_scenario(seed).section() for seed in (0, 9, 14, 16)]
    found = 0
    for sec in sections:
        got = violation_rows(asymmetry_probe(sec))
        assert got == reference_asymmetry_violations(sec)
        found += len(got)
    assert found > 0  # the comparison covers nonempty violation lists


def test_first_form_equals_per_row_reference(paper, tie, singleton):
    sections = [paper.section(), tie.section(), singleton.section(), two_line_section(60), segments_section(12)]
    sections += [random_scenario(seed).section() for seed in range(40)]
    for sec in sections:
        if sec.n_base >= 3:
            got_worst, got_argmax = first_form_scan(sec)
            worst, argmax = reference_first_form(sec)
            assert (got_worst, got_argmax) == (worst, argmax)
            assert math.copysign(1.0, got_worst) == math.copysign(1.0, worst)


def scaled_section(sec, factor):
    """`sec` with every coordinate times `factor`."""
    fibers = tuple(
        PointSet(f.points * factor) if isinstance(f, PointSet) else SegmentUnion(f.segments * factor)
        for f in sec.space.fibers
    )
    space = FiberedSpace(base_points=sec.space.base_points * factor, fibers=fibers)
    return Section(space=space, values=sec.values * factor)


def test_first_form_bound_covers_the_scan():
    # the scan's worst is rounding noise, up to about 0.12 of the bound on these sections; at
    # coordinates near 1e6 and 1e9 the bound exceeds SLACK_TOLERANCE and the probe must scan
    randoms = [random_scenario(seed).section() for seed in range(200)]
    sections = [(sec, factor) for sec in randoms + [segments_section(12)] for factor in (1.0, 1e3, 1e6, 1e9)]
    sections += [(two_line_section(60), 1.0), (segments_section(60), 1.0)]
    scanned = positive = 0
    for sec, factor in sections:
        sec = scaled_section(sec, factor)
        probe = asymmetry_probe(sec)
        worst, argmax = first_form_scan(sec)
        assert worst <= probe.first_form_bound, (factor, worst, probe.first_form_bound)
        if probe.first_form_argmax is None:
            assert probe.first_form_worst == probe.first_form_bound <= 1e-9
        else:
            assert (probe.first_form_worst, probe.first_form_argmax) == (worst, argmax)
            assert probe.first_form_bound > 1e-9
            scanned += 1
        assert factor < 1e9 or probe.first_form_argmax is not None  # the fallback ran on the largest copies
        positive += worst > 0
    assert scanned >= 400 and positive >= 150  # 402 and 190


def first_form_sections():
    """Hand-built sections on point fibers over base points (i, 0): repeated
    rows of D, for ties; rows of D holding inf, from values near 2^1000 whose
    distances to the other fibers overflow; and a NaN section value.  At
    m = 200 a row spans two difference blocks."""
    rng = np.random.default_rng(21)
    out = []
    for m in (3, 4, 9, 40, 200):
        x = rng.choice(np.linspace(0.0, 8.0, 33), m)  # repeats give repeated rows
        values = np.column_stack([x, 3.0 + x / 2.0])  # the two-line geometry, near ties by rounding
        fibers = [np.array([[xi, 8.0], [xi, 3.0 + xi / 2.0], [xi, 1.0 + xi]]) for xi in x]
        far_values, far_fibers = values.copy(), list(fibers)
        for i in rng.choice(m, size=max(1, m // 4), replace=False):
            far_values[i] = 2.0**1000 * (1.0 + values[i] / 4.0)
            far_fibers[i] = np.vstack([far_values[i], fibers[i]])  # near points too: D mixes inf and finite
        nan_values = values.copy()
        nan_values[rng.integers(0, m), rng.integers(0, 2)] = np.nan
        base = np.column_stack([np.arange(m, dtype=float), np.zeros(m)])
        for vals, fibs in ((values, fibers), (far_values, far_fibers), (nan_values, fibers)):
            space = FiberedSpace(base_points=base, fibers=tuple(PointSet(f) for f in fibs))
            out.append(Section(space=space, values=vals))
    return out


def test_first_form_equals_per_row_reference_on_ties_inf_and_nan():
    ties = positive = infs = nans = 0
    for sec in first_form_sections():
        with np.errstate(over="ignore", invalid="ignore"):  # distances past the float range, inf - inf
            got, got_argmax = first_form_scan(sec)
            probe = asymmetry_probe(sec)
            worst, argmax = reference_first_form(sec)
            gaps = reference_max_row_gaps(sec.fiber_distances()) - sec.value_distances()
        assert got_argmax == argmax
        assert got == worst or (math.isnan(got) and math.isnan(worst))
        assert math.isnan(got) or math.copysign(1.0, got) == math.copysign(1.0, worst)
        if not np.isfinite(sec.fiber_distances()).all():  # no certificate: the probe reports the scan
            assert probe.first_form_argmax == argmax and not probe.first_form_bound <= 1e-9
        ties += int((gaps == worst).sum()) > 1
        positive += worst > 0
        infs += bool(np.isinf(sec.fiber_distances()).any())
        nans += math.isnan(worst)
    assert ties >= 5 and positive >= 3 and infs == 5 and nans == 10


def test_pruned_reverse_form_equals_all_triples(paper, tie, singleton, monkeypatch):
    sections = [paper.section(), tie.section(), singleton.section(), segments_section(12), unequal_section(16)]
    sections += [random_scenario(seed).section() for seed in range(40)]
    sections.append(mixed_section())
    sections += oblique_segment_sections()
    found = 0
    for sec in sections:
        for tol in (1e-9, 0.0, -0.5):
            monkeypatch.setattr("fiberflow.section.EXCESS_TOL", tol)
            got = violation_rows(asymmetry_probe(sec))
            assert got == reference_asymmetry_violations(sec, tol)
            found += len(got)
    assert found > 1000
    monkeypatch.undo()
    # the paper's reverse form: 93 pairs (y, z) pass the bound, 92 of them with violations
    sec = paper.section()
    assert int((fiber_excess_bound(sec)[0] - sec.value_distances() > 1e-9).sum()) == 93
    assert len(np.unique(asymmetry_probe(sec).violations[:, 1:], axis=0)) == 92


def test_excess_bound_equals_the_reduceat_reference_bit_for_bit(paper, tie):
    rng = np.random.default_rng(3)

    def point_fibers(sizes):
        # fibers of the given sizes over base points (k, 0), at distinct heights
        fibers = tuple(PointSet(np.column_stack([np.full(n, k), rng.uniform(1, 9, n)])) for k, n in enumerate(sizes))
        base = np.column_stack([np.arange(len(sizes), dtype=float), np.zeros(len(sizes))])
        space = FiberedSpace(base_points=base, fibers=fibers)
        return Section(space=space, values=np.array([f.points[0] for f in fibers]))

    sections = [
        point_fibers([1] * 9),
        point_fibers([2] * 9),
        point_fibers([5] * 7),
        point_fibers([1, 2, 5, 1, 5, 2, 1, 3]),
        point_fibers([1] * 150 + [3] * 49 + [30]),  # two blocks of F_y in each of the first two runs
        two_line_section(200),  # five blocks of F_y
        unequal_section(16),
        unequal_section(33),
        mixed_section(),
        segments_section(12),
        two_line_section(60),
        paper.section(),
        tie.section(),
    ]
    sections += [random_scenario(seed).section() for seed in range(40)]
    sections += oblique_segment_sections()
    for sec in sections:
        want = reference_fiber_excess_bound(sec)
        assert np.array_equal(fiber_excess_bound(sec)[0].view(np.uint64), want.view(np.uint64))


def test_excess_bound_memory_with_one_large_fiber():
    # 299 one-point fibers and one of 40 points: no fiber is padded to 40 pieces
    m = 300
    x = np.linspace(0.0, 8.0, m)
    fibers = [PointSet(np.array([[xi, 3.0 + xi / 2.0]])) for xi in x]
    fibers[0] = PointSet(np.column_stack([np.zeros(40), np.linspace(3.0, 20.0, 40)]))
    space = FiberedSpace(base_points=np.column_stack([x, np.zeros(m)]), fibers=tuple(fibers))
    sec = Section(space=space, values=np.column_stack([x, 3.0 + x / 2.0]))
    sec.fiber_distances()  # cached before measuring
    tracemalloc.start()
    try:
        H, _ = fiber_excess_bound(sec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * m * m * 8, peak / (m * m * 8)
    assert np.array_equal(H.view(np.uint64), reference_fiber_excess_bound(sec).view(np.uint64))


def test_asymmetry_probe_groups_the_fibers_once(monkeypatch):
    # the excess bound groups the fibers once and hands the groups to every block's distances
    sec = two_line_section(40)  # four blocks of F_z
    sec.fiber_distances()  # D, built once per section, groups its own fibers
    calls, fiber_groups = [], geometry.fiber_groups

    def counted(fibers):
        calls.append(len(fibers))
        return fiber_groups(fibers)

    monkeypatch.setattr("fiberflow.geometry.fiber_groups", counted)
    monkeypatch.setattr("fiberflow.section.fiber_groups", counted)
    asymmetry_probe(sec)
    assert calls == [40]


def test_reverse_form_bound_margin_keeps_rounding_violations(monkeypatch):
    # on the two-line geometry sup over F_z of d(p, F_y) equals E[y, z] exactly,
    # so every violation at EXCESS_TOL 0 is rounding that the margin must keep
    sec = two_line_section(20)
    for tol in (0.0, 1e-15):
        monkeypatch.setattr("fiberflow.section.EXCESS_TOL", tol)
        got = violation_rows(asymmetry_probe(sec))
        ref = reference_asymmetry_violations(sec, tol)
        assert got == ref and ref


def test_asymmetry_symmetric_case_no_violations(singleton):
    # singleton fibers equal to the section values make both forms coincide
    probe = asymmetry_probe(singleton.section())
    assert probe.violations.shape == (0, 3) and probe.lhs.size == probe.rhs.size == 0


def test_triple_scans_memory_is_quadratic():
    m = 200
    sec = two_line_section(m)
    sec.fiber_distances(), sec.value_distances()  # cached before measuring
    budget = 32 * m * m * 8  # bytes: 32 m x m float arrays, against 64 MB for one m^3 temporary
    scans = {
        "asymmetry_probe": lambda: asymmetry_probe(sec),
        "first_form_scan": lambda: first_form_scan(sec),  # the probe certifies this section without it
        "check_axioms": lambda: check_axioms(model_quadratic(), sec, [0.01, 0.5, 2.0]),
    }
    for name, scan in scans.items():
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, (name, peak)


def test_asymmetry_violations_are_compact_columns(paper):
    # 1685 violations on the counterexample; the report keeps three int and
    # two float columns, 40 bytes per violation
    sec = paper.section()
    sec.fiber_distances(), sec.value_distances()  # cached before measuring
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        probe = asymmetry_probe(sec)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(probe.violations) == 1685
    assert retained < 64 * len(probe.violations), retained / len(probe.violations)


def test_compatibility_scan_memory_when_every_pair_is_scanned():
    # the quartic penalty on segment fibers: the bound clears no pair at the first time
    m = 200
    sec = segments_section(m)
    D, E = sec.fiber_distances(), sec.value_distances()
    L, t = power_lagrangian(4.0), 0.01
    Dmax = D.max(axis=1)
    ub = t * L((E + Dmax) / t) - t * L(Dmax / t)
    assert np.all(ub - 2.0 * bound_K(sec) * np.sqrt(L(E / t)) >= 0)
    budget = 32 * m * m * 8  # bytes: 32 m x m float arrays
    tracemalloc.start()
    try:
        check_axioms(L, sec, [t, 0.5, 2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget, peak


def test_asymmetry_needs_three_points(two_point):
    with pytest.raises(PreconditionError):
        asymmetry_probe(two_point.section())
