import copy
import dataclasses
import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from fiberflow.errors import ScenarioFormatError, ScenarioValidationError
from fiberflow.geometry import DEFAULT_TAU_GEO, PointSet, SegmentUnion
from fiberflow.lagrangian import MODEL_QUADRATIC, SPEC_NAMES
from fiberflow.scenario import (
    COORD_MAX,
    KAPPA_MAX,
    SCHEMA_VERSION,
    XI_RESOLUTION_MAX,
    GridSpec,
    Scenario,
    load_scenario,
    paper_counterexample,
    random_scenario,
    scenario_from_dict,
    scenario_to_dict,
    two_point_scenario,
    write_scenario,
)
from fiberflow.section import DEFAULT_TAU_SEC
from fiberflow.semigroup import DEFAULT_TAU_TIE
from test_cli import DELETE, PROBE_DOCS, PROBE_PATHS, PROBE_VALUES, _mutate, mutated_docs


def test_round_trip_reproduces_values_exactly(tmp_path, paper):
    path = write_scenario(paper, tmp_path / "paper.json")
    reloaded = load_scenario(path)
    assert reloaded.base_ids == paper.base_ids
    assert np.array_equal(reloaded.base_points, paper.base_points)
    assert np.array_equal(reloaded.section_values, paper.section_values)
    assert np.array_equal(reloaded.params, paper.params)
    for a, b in zip(reloaded.fibers, paper.fibers):
        assert np.array_equal(a.points, b.points)
    assert reloaded.grids.times == paper.grids.times
    assert reloaded.reference_triple == paper.reference_triple


def test_coordinates_at_the_bound_give_finite_distances():
    doc = scenario_to_dict(two_point_scenario())
    far = [COORD_MAX, -COORD_MAX]
    doc["base"][1]["point"] = doc["section"]["b1"] = far
    doc["fibers"]["b1"] = {"type": "segments", "data": [[far, [COORD_MAX, 0.0]]]}
    scenario = scenario_from_dict(doc)
    sec = scenario.section()
    want = float(np.hypot(COORD_MAX, COORD_MAX))
    assert sec.value_distances()[0, 1] == sec.fiber_distances()[1, 0] == want
    assert sec.fiber_distances()[0, 1] == COORD_MAX  # (0, 0) to the segment's end (COORD_MAX, 0)
    assert sec.space.base_distance_matrix()[0, 1] == want


def test_duplicate_base_id_is_schema_violation():
    doc = scenario_to_dict(two_point_scenario())
    doc["base"][1]["id"] = "b0"
    with pytest.raises(ScenarioFormatError, match="duplicate base id"):
        scenario_from_dict(doc)


def test_missing_fiber_is_schema_violation():
    doc = scenario_to_dict(two_point_scenario())
    del doc["fibers"]["b1"]
    with pytest.raises(ScenarioFormatError, match="missing fiber"):
        scenario_from_dict(doc)


def test_unknown_id_in_section_is_schema_violation():
    doc = scenario_to_dict(two_point_scenario())
    doc["section"]["zz"] = [0.0, 0.0]
    with pytest.raises(ScenarioFormatError, match="unknown base id"):
        scenario_from_dict(doc)


def test_off_fiber_section_value_names_the_id(tmp_path):
    doc = scenario_to_dict(two_point_scenario())
    doc["section"]["b1"] = [1.0, 1.1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError, match="'b1'"):
        load_scenario(path)


def test_empty_fiber_is_validation_failure(tmp_path):
    doc = scenario_to_dict(two_point_scenario())
    doc["fibers"]["b0"] = {"type": "points", "data": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError, match="empty fiber"):
        load_scenario(path)


def test_overlapping_fibers_rejected(tmp_path):
    doc = scenario_to_dict(two_point_scenario())
    doc["fibers"]["b1"]["data"] = [[1.0, 1.0], [0.0, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError, match="overlap"):
        load_scenario(path)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  bad\n}")
    with pytest.raises(ScenarioFormatError, match="line 2"):
        load_scenario(path)


def test_bad_grid_times_rejected():
    doc = scenario_to_dict(two_point_scenario())
    doc["grids"]["times"] = [1.0, -2.0]
    with pytest.raises(ScenarioFormatError, match="times"):
        scenario_from_dict(doc)


def test_paper_scenario_matches_stated_geometry(paper):
    # 81 samples of the base segment, fibers on the vertical slices
    assert paper.n_base == 81
    xs = paper.base_points[:, 0]
    assert np.array_equal(xs, np.arange(81) / 10.0)
    assert {"y010", "y060", "y070"} < set(paper.base_ids)
    assert np.array_equal(paper.section_values[paper.id_index("y010")], [1.0, 4.0])
    assert np.array_equal(paper.section_values[paper.id_index("y070")], [8.0, 7.0])
    assert np.array_equal(paper.section_values[paper.id_index("y060")], [8.0, 6.0])


def test_random_scenarios_validate_and_are_deterministic():
    for seed in range(6):
        sc = random_scenario(seed)
        assert sc.n_base >= 3
    a = random_scenario(3)
    b = random_scenario(3)
    assert np.array_equal(a.base_points, b.base_points)
    assert np.array_equal(a.section_values, b.section_values)


def test_generated_paper_fixture_loads(tmp_path):
    path = write_scenario(paper_counterexample(), tmp_path / "fixture.json")
    sc = load_scenario(path)
    assert sc.name == "paper-counterexample"


# ---------------------------------------------------------------------------
# the per-item reference loader


def _ref_expect(cond: bool, message: str):
    if not cond:
        raise ScenarioFormatError(message)


def _ref_is_number(v, bound: float = sys.float_info.max) -> bool:
    return type(v) in (int, float) and -bound <= v <= bound


def _ref_is_count(v) -> bool:
    return type(v) is int and v >= 1


def _ref_as_point(value, kappa: int, where: str) -> list[float]:
    _ref_expect(isinstance(value, list) and len(value) == kappa, f"{where}: expected a list of {kappa} numbers")
    _ref_expect(
        all(_ref_is_number(v, COORD_MAX) for v in value),
        f"{where}: coordinates must be numbers of magnitude at most 2^500",
    )
    return [float(v) for v in value]


def _ref_parse_fiber(raw, kappa: int, where: str):
    _ref_expect(isinstance(raw, dict), f"{where}: fiber must be an object")
    ftype = raw.get("type")
    data = raw.get("data")
    _ref_expect(ftype in ("points", "segments"), f"{where}: fiber type must be 'points' or 'segments'")
    _ref_expect(isinstance(data, list), f"{where}: fiber data must be a list")
    if ftype == "points":
        pts = [_ref_as_point(p, kappa, f"{where}.data[{i}]") for i, p in enumerate(data)]
        return PointSet(points=np.array(pts, dtype=float).reshape(len(pts), kappa))
    segs = []
    for i, seg in enumerate(data):
        _ref_expect(isinstance(seg, list) and len(seg) == 2, f"{where}.data[{i}]: segment must be a pair of points")
        segs.append([_ref_as_point(seg[k], kappa, f"{where}.data[{i}][{k}]") for k in (0, 1)])
    return SegmentUnion(segments=np.array(segs, dtype=float).reshape(len(segs), 2, kappa))


def reference_scenario_from_dict(doc: dict) -> Scenario:
    """The per-item loader that the bulk `scenario_from_dict` replaced: every
    field checked in document order, one check per coordinate row and list
    scans for the base ids."""
    _ref_expect(isinstance(doc, dict), "top level: expected a JSON object")
    _ref_expect(doc.get("schema_version") == SCHEMA_VERSION, f"schema_version: expected {SCHEMA_VERSION}")
    meta = doc.get("meta", {})
    _ref_expect(isinstance(meta, dict), "meta: expected an object")
    name = str(meta.get("name", "unnamed"))
    _ref_expect(
        name not in ("", ".", "..") and not any(c in name for c in "/\\\0"),
        "meta.name: expected a file name (not empty, '.' or '..', and no '/', '\\' or NUL)",
    )
    kappa = doc.get("kappa")
    _ref_expect(_ref_is_count(kappa) and kappa <= KAPPA_MAX, f"kappa: expected an integer in [1, {KAPPA_MAX}]")

    base = doc.get("base")
    _ref_expect(isinstance(base, list) and base, "base: expected a nonempty list")
    ids, points, params = [], [], []
    for i, rec in enumerate(base):
        _ref_expect(isinstance(rec, dict), f"base[{i}]: expected an object")
        bid = rec.get("id")
        _ref_expect(isinstance(bid, str) and bid, f"base[{i}].id: expected a nonempty string")
        _ref_expect(bid not in ids, f"base[{i}].id: duplicate base id {bid!r}")
        ids.append(bid)
        points.append(_ref_as_point(rec.get("point"), kappa, f"base[{i}].point"))
        p = rec.get("param")
        if p is not None:
            _ref_expect(_ref_is_number(p), f"base[{i}].param: expected a finite number")
        params.append(None if p is None else float(p))

    fibers_raw = doc.get("fibers")
    _ref_expect(isinstance(fibers_raw, dict), "fibers: expected an object keyed by base id")
    for key in fibers_raw:
        _ref_expect(key in ids, f"fibers[{key!r}]: unknown base id")
    fibers = []
    for bid in ids:
        _ref_expect(bid in fibers_raw, f"fibers: missing fiber for base id {bid!r}")
        fibers.append(_ref_parse_fiber(fibers_raw[bid], kappa, f"fibers[{bid!r}]"))

    section_raw = doc.get("section")
    _ref_expect(isinstance(section_raw, dict), "section: expected an object keyed by base id")
    for key in section_raw:
        _ref_expect(key in ids, f"section[{key!r}]: unknown base id")
    values = []
    for bid in ids:
        _ref_expect(bid in section_raw, f"section: missing value for base id {bid!r}")
        values.append(_ref_as_point(section_raw[bid], kappa, f"section[{bid!r}]"))

    lag = doc.get("lagrangian", {"name": MODEL_QUADRATIC, "params": {}})
    _ref_expect(isinstance(lag, dict), "lagrangian: expected {name, params}")
    _ref_expect(lag.get("name") in SPEC_NAMES, f"lagrangian.name: expected one of {', '.join(SPEC_NAMES)}")
    lag_params = lag.get("params", {}) or {}
    _ref_expect(isinstance(lag_params, dict), "lagrangian.params: expected an object")
    if lag["name"] == "power":
        for key in ("exponent", "scale"):
            _ref_expect(_ref_is_number(lag_params.get(key, 1.0)), f"lagrangian.params.{key}: expected a finite number")
        _ref_expect(lag_params.get("exponent", 2.0) >= 1, "lagrangian.params.exponent: expected a number >= 1")

    grids_raw = doc.get("grids")
    _ref_expect(isinstance(grids_raw, dict), "grids: expected an object")
    times = grids_raw.get("times")
    _ref_expect(isinstance(times, list) and len(times) > 0, "grids.times: expected a nonempty list")
    _ref_expect(all(_ref_is_number(t) and t > 0 for t in times), "grids.times: times must be positive finite numbers")
    radii = grids_raw.get("radii", [1.0])
    _ref_expect(isinstance(radii, list) and radii, "grids.radii: expected a nonempty list")
    _ref_expect(all(_ref_is_number(r) and r > 0 for r in radii), "grids.radii: radii must be positive finite numbers")
    _ref_expect(all(radii[i] > radii[i + 1] for i in range(len(radii) - 1)), "grids.radii: must be strictly decreasing")
    tol = grids_raw.get("tolerances", {})
    _ref_expect(isinstance(tol, dict), "grids.tolerances: expected an object")
    hj_times = grids_raw.get("hj_times")
    if hj_times is not None:
        _ref_expect(
            isinstance(hj_times, list) and hj_times and all(_ref_is_number(t) and t > 0 for t in hj_times),
            "grids.hj_times: expected a nonempty list of positive finite numbers",
        )
        hj_times = [float(t) for t in hj_times]
    hj_radius = grids_raw.get("hj_radius")
    if hj_radius is not None:
        _ref_expect(_ref_is_number(hj_radius) and hj_radius > 0, "grids.hj_radius: expected a positive finite number")
    xi_resolution = grids_raw.get("xi_resolution", 101)
    _ref_expect(
        _ref_is_count(xi_resolution) and xi_resolution <= XI_RESOLUTION_MAX,
        f"grids.xi_resolution: expected an integer in [1, {XI_RESOLUTION_MAX}]",
    )
    hj_base_stride = grids_raw.get("hj_base_stride", 1)
    _ref_expect(_ref_is_count(hj_base_stride), "grids.hj_base_stride: expected an integer >= 1")
    taus = {"tau_geo": DEFAULT_TAU_GEO, "tau_sec": DEFAULT_TAU_SEC, "tau_tie": DEFAULT_TAU_TIE}
    taus = {key: tol.get(key, default) for key, default in taus.items()}
    for key, value in taus.items():
        _ref_expect(_ref_is_number(value) and value >= 0, f"grids.tolerances.{key}: expected a finite number >= 0")
    grids = GridSpec(
        times=[float(t) for t in times],
        xi_resolution=xi_resolution,
        radii=[float(r) for r in radii],
        hj_radius=None if hj_radius is None else float(hj_radius),
        hj_times=hj_times,
        hj_base_stride=hj_base_stride,
        **{key: float(value) for key, value in taus.items()},
    )

    ref = doc.get("reference_triple")
    if ref is not None:
        _ref_expect(isinstance(ref, dict), "reference_triple: expected an object")
        for k in ("x", "y", "z"):
            _ref_expect(ref.get(k) in ids, f"reference_triple.{k}: unknown base id")
        if "stated_constant" in ref:
            _ref_expect(
                _ref_is_number(ref["stated_constant"]), "reference_triple.stated_constant: expected a finite number"
            )

    has_params = all(p is not None for p in params)
    return Scenario(
        name=name,
        description=str(meta.get("description", "")),
        kappa=kappa,
        base_ids=ids,
        base_points=np.array(points, dtype=float),
        params=np.array(params, dtype=float) if has_params else None,
        fibers=tuple(fibers),
        section_values=np.array(values, dtype=float),
        lagrangian_spec={"name": lag["name"], "params": lag_params},
        grids=grids,
        reference_triple=dict(ref) if ref is not None else None,
    )


def _load_outcome(load, doc):
    """The scenario `load` returns for a copy of `doc`, or (class, message) of what it raises."""
    try:
        return load(copy.deepcopy(doc))
    except Exception as exc:
        return type(exc), str(exc)


def _bits(arr):
    return None if arr is None else (arr.dtype.str, arr.shape, arr.tobytes())


def _scenario_fields(sc: Scenario):
    fibers = [(type(f).__name__, _bits(f.points if isinstance(f, PointSet) else f.segments)) for f in sc.fibers]
    arrays = [_bits(a) for a in (sc.base_points, sc.params, sc.section_values)]
    named = (sc.name, sc.description, sc.kappa, sc.base_ids, sc.lagrangian_spec, sc.grids, sc.reference_triple)
    return named, arrays, fibers


def assert_loads_like_the_reference(doc) -> None:
    got, want = _load_outcome(scenario_from_dict, doc), _load_outcome(reference_scenario_from_dict, doc)
    if isinstance(want, Scenario):
        assert isinstance(got, Scenario), got
        assert _scenario_fields(got) == _scenario_fields(want)
    else:
        assert got == want


@settings(max_examples=300, deadline=None)
@given(doc=mutated_docs())
def test_bulk_loader_equals_the_reference_on_mutated_documents(doc):
    assert_loads_like_the_reference(doc)


@pytest.mark.parametrize("name", sorted(PROBE_DOCS))
def test_bulk_loader_equals_the_reference_on_each_single_mutation(name):
    doc = PROBE_DOCS[name]
    paths = PROBE_PATHS[name]
    if len(paths) > 200:  # a long document: every 16th path, which still reaches deep into each list
        paths = paths[::16]
    assert_loads_like_the_reference(doc)
    for path, value in itertools.product(paths, PROBE_VALUES):
        mutated = copy.deepcopy(doc)
        _mutate(mutated, path, value)
        assert_loads_like_the_reference(mutated)


def test_bulk_loader_reports_the_first_bad_field_in_document_order():
    doc = PROBE_DOCS["two-line-60"]
    cases = [
        # a bad point before a bad id, param or record of a later base record
        [(("base", 40, "point", 1), "x"), (("base", 41, "id"), None)],
        [(("base", 40, "point"), [1.0]), (("base", 40, "param"), "x")],
        [(("base", 40, "param"), "x"), (("base", 41, "point"), None)],
        [(("base", 40, "point", 0), 2.0**501), (("base", 59), DELETE)],
        [(("base", 40, "point", 0), float("nan")), (("base", 50, "id"), "y0000")],
        # a bad fiber point before a bad fiber, and a bad segment end before a bad segment
        [(("fibers", "y0030", "data", 1, 0), True), (("fibers", "y0031", "type"), "x")],
        [(("fibers", "y0030"), {"type": "segments", "data": [[[0.0, 1.0], [0.0, "x"]], [[0.0, 2.0]]]})],
        [(("fibers", "y0030"), {"type": "segments", "data": [[[0.0, 1.0], [0.0, 2.0]], 5, [[0.0, 1e200], [0.0, 1]]]})],
        # a bad section value before a missing one
        [(("section", "y0020"), [1.0, 2.0, 3.0]), (("section", "y0021"), DELETE)],
        # bad times or radii before a bad tolerances object
        [(("grids", "times"), []), (("grids", "tolerances"), "x")],
        [(("grids", "radii"), [1.0, 2.0]), (("grids", "tolerances"), None)],
        [(("grids", "tolerances"), [1.0]), (("grids", "hj_times"), [])],
    ]
    for mutations in cases:
        mutated = copy.deepcopy(doc)
        for path, value in mutations:
            _mutate(mutated, path, value)
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict(copy.deepcopy(mutated))
        assert_loads_like_the_reference(mutated)


@pytest.mark.parametrize(
    "field, value", [("times", []), ("hj_times", []), ("radii", [1.0, 1.0]), ("tau_tie", float("nan"))]
)
def test_grid_spec_built_in_code_is_checked_like_a_file(paper, field, value):
    with pytest.raises(ScenarioFormatError, match=rf"^grids\.(tolerances\.)?{field}: "):
        dataclasses.replace(paper.grids, **{field: value})
