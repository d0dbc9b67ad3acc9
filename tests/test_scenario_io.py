import json

import numpy as np
import pytest

from fiberflow.errors import ScenarioFormatError, ScenarioValidationError
from fiberflow.scenario import (
    COORD_MAX,
    load_scenario,
    paper_counterexample,
    random_scenario,
    scenario_from_dict,
    scenario_to_dict,
    two_point_scenario,
    write_scenario,
)


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
