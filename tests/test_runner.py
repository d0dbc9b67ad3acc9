import dataclasses
import functools
import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fiberflow import geometry, semigroup
from fiberflow.cli import main
from fiberflow.geometry import FiberedSpace
from fiberflow.lagrangian import model_quadratic
from fiberflow.reports import fmt
from fiberflow.runner import run_check
from fiberflow.scenario import (
    Scenario,
    load_scenario,
    paper_counterexample,
    random_scenario,
    scenario_from_dict,
    scenario_to_dict,
    singleton_constant_scenario,
    tie_scenario,
    two_point_scenario,
    write_scenario,
)
from fiberflow.section import asymmetry_probe, first_form_scan
from fiberflow.semigroup import evolution_table, hj_residuals
from conftest import scaled_document
from test_section import segments_section, two_line_section, unequal_section
from test_semigroup import reference_pair_slack

# sha256 of each run_check bundle (its five files in ReportBundle.all_files
# order), recorded on x86-64 Linux with Python 3.11 and numpy 2.4.  A change
# that moves one of them changes a report byte; CHANGES.md must explain it.
BUNDLE_DIGESTS = {
    "two-point": "af40e5c79c301ceba7f9dca67eb4402d50977919e66a4c63615a2e3025f6c9d4",
    "paper-counterexample": "f005693d2885b2bddffa246264823a030546208d1256b1c30802f29bcfc29bd5",
    "singleton-constant": "c843e79fa2783ac22677a842eda3f1eb4981c395674dee4dbc985c56bfeaeac4",
    "tie": "b1b5b4fffcf895ea7c82bdea7fc36eb9d14c448d0a068281cf0aa8431584ff2a",
    "random-0": "6d3e8b464b602d1187f096cabc855385a742f4c27cb0afcc7fe78fbc20dc0cf3",
    "random-1": "a196f28537dfe9a0a0728d08db2625a89171ef9d0138f42450a885021c80d813",
    "random-2": "2a864caf4bbcaf37179e457abcab892aabba0653c11ba206d22444163e69c3df",
    "random-3": "0c18413be4bdafacc1d5d6b4b0d1300e7f8f4917c88a988c961bf4177973a4d0",
    "random-4": "dcc981645531d8b75a018972063b833d2911caa1c6ba07b29bc45fbdcf34a751",
    "random-5": "84b8b2d40a53d396d7cf7eca649d1d21a79acbe48a5013e37a21ab1f19ab1c1f",
    "random-6": "4bedcc94d3be82eb85d2628dc95c772a76566abcbf4cfbbd26b65a401d11be0f",
    "random-7": "cf8e59825568cba70f8878dfdccda14a7c1db0684f514204cb7c5e8039b77516",
    "random-8": "1c97c45522f918a9c12dccb182330f3425111478e61f7339b1a241854111b5dc",
    "random-9": "9c474d97f3c4cbf2edc65b75a7c9585f52557bc87e6c5d2013a505550fa4f90f",
    "two-line-60": "8da5fcc1b8b0b4b564605124f26468074ee231c4644f2dccfc0eb0b34e66258d",
    "segments-12": "4660372eafd436a2fc65e1059acceb8cc5af61db4cfc710d8c1c27b662788700",
    "unequal-16": "d36a0bd9403ecea0e7cc8681ce3635ba460372d07f5b62895638fa4b17d3f1d2",
    # the only two pinned bundles whose first form is scanned, not certified
    "paper-1e5": "97b4f9c54434ea008b73cf20114bf8d4b6e99fd21221d7bcdc5a882d03236ddb",  # exits 0
    "paper-1e6": "dbdee1ef7e84bd46d51c2c0054e465520d0df6997c7d185840b1325f437d3c4f",  # exits 1: the scan's worst fails
}
# the same digest over the bundles of the benchmark's check workloads, whose
# scenarios benchmarks/workloads.py writes as JSON
BENCHMARK_DIGESTS = {
    "two_line_doc": "cc26a017489fef87bbc99daa61be908972a7ab2d43efba2121316e9d1cacbdce",
    "segments_power_doc": "44477d8e26da865d5d01049a30928756bf6a3698912735b2b8f5af1411e2522e",
}
WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
BUNDLED = {b().name: b for b in (two_point_scenario, paper_counterexample, singleton_constant_scenario, tie_scenario)}


def line_scenario(name: str, section, lagrangian_spec: dict) -> Scenario:
    """A two-line section over base points (x, 0) as a scenario with the
    bundled counterexample's grids and hj_base_stride = m // 4."""
    m = section.n_base
    return Scenario(
        name=name,
        description=f"two-line geometry over {m} base points",
        kappa=2,
        base_ids=[f"y{k:04d}" for k in range(m)],
        base_points=section.space.base_points,
        params=section.space.base_points[:, 0].copy(),
        fibers=section.space.fibers,
        section_values=section.values,
        lagrangian_spec=lagrangian_spec,
        grids=dataclasses.replace(paper_counterexample().grids, hj_base_stride=m // 4),
    )


LINES = {
    "two-line-60": lambda: line_scenario("two-line-60", two_line_section(60), {"name": "model-quadratic", "params": {}}),
    "segments-12": lambda: line_scenario(
        "segments-12", segments_section(12), {"name": "power", "params": {"exponent": 4.0}}
    ),
    # fibers of 1 to 4 points and one segment fiber
    "unequal-16": lambda: line_scenario("unequal-16", unequal_section(16), {"name": "model-quadratic", "params": {}}),
}
# the counterexample with every coordinate scaled, past the first form's certificate
SCALED = {
    f"paper-{name}": lambda factor=float(name): scenario_from_dict(
        scaled_document(scenario_to_dict(paper_counterexample()), factor)
    )
    for name in ("1e5", "1e6")
}


def _recording(fn, results: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result)
        return result

    return wrapper


def _record_everywhere(monkeypatch, fn, results: list) -> None:
    """Record the results of `fn` at every fiberflow module name bound to it."""
    wrapper = _recording(fn, results)
    for name, module in list(sys.modules.items()):
        if name.startswith("fiberflow") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("build", [two_point_scenario, paper_counterexample])
def test_check_builds_each_array_once(tmp_path, monkeypatch, build):
    path = write_scenario(build(), tmp_path / "scenario.json")
    validations, evolutions, base_distances, levels = [], [], [], []
    _record_everywhere(monkeypatch, geometry.validate_space, validations)
    _record_everywhere(monkeypatch, semigroup.evolve_all, evolutions)
    _record_everywhere(monkeypatch, semigroup._quasi_level, levels)
    monkeypatch.setattr(
        FiberedSpace, "base_distance_matrix", _recording(FiberedSpace.base_distance_matrix, base_distances)
    )

    scenario = load_scenario(path)
    run_check(scenario, tmp_path / "reports")

    assert len(validations) == 1
    # item (b) builds the trace's last level in full; the certificate clears every other full table
    assert sum(len(quasi_dist) == scenario.n_base for quasi_dist, _ in levels) <= 1
    # the results stay referenced, so distinct ids are distinct builds
    assert len({id(matrix) for matrix in base_distances}) == 1
    n_times, n_hj_times = len(scenario.grids.times), len(scenario.grids.effective_hj_times())
    # table rows, the table's HJ columns at t and t + h, the HJ grid at t and t + h
    assert len(evolutions) <= n_times + 2 * n_times + 2 * n_hj_times


@pytest.mark.parametrize("name", sorted(BUNDLE_DIGESTS))
def test_bundle_bytes_match_recorded_digests(tmp_path, name):
    scenario = random_scenario(int(name[7:])) if name.startswith("random-") else {**BUNDLED, **LINES, **SCALED}[name]()
    bundle, _, _ = run_check(scenario, tmp_path)
    assert _bundle_digest(bundle) == BUNDLE_DIGESTS[name]


def _bundle_digest(bundle) -> str:
    digest = hashlib.sha256()
    for path in bundle.all_files():
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in benchmarks/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_check_workloads_certify_the_first_form_without_the_scan(tmp_path, workloads, monkeypatch):
    # a silent fallback to the cubic scan would keep every verdict and lose the O(m^2) first form
    def scan(section):
        raise AssertionError("the first form's cubic scan ran")

    monkeypatch.setattr("fiberflow.section.first_form_scan", scan)
    for doc, m in (("two_line_doc", 40), ("segments_power_doc", 24)):
        path = workloads.write_doc(getattr(workloads, doc)(m), tmp_path / f"{doc}.json")
        _, verdicts, _ = run_check(load_scenario(path), tmp_path / doc)
        v = _verdict(verdicts, "asymmetry_first_form")
        assert (v.status, v.location) == ("PASS", None) and v.note.startswith("certified: rounding bound beta="), doc


def test_first_form_note_names_the_path(tmp_path):
    # near 1e5 the rounding bound of the first form exceeds SLACK_TOLERANCE, so the triples are scanned
    for factor, path in ((1.0, "certified"), (1e5, "scanned")):
        scenario = scenario_from_dict(scaled_document(scenario_to_dict(paper_counterexample()), factor))
        _, verdicts, _ = run_check(scenario, tmp_path / path)
        probe = asymmetry_probe(scenario.section())
        v = _verdict(verdicts, "asymmetry_first_form")
        count = f"{len(probe.violations)} reverse-form violations recorded"
        if path == "certified":
            assert (v.worst_slack, v.location) == (probe.first_form_bound, None)
            assert v.note == f"certified: rounding bound beta={probe.first_form_bound:.3e} <= tolerance; {count}"
        else:
            worst, argmax = first_form_scan(scenario.section())
            x, y, z = (scenario.base_ids[k] for k in argmax)
            assert (v.worst_slack, v.location) == (worst, f"x={x},y={y},z={z}")
            assert v.note == f"scanned: rounding bound beta={probe.first_form_bound:.3e} exceeds tolerance; {count}"
        assert v.status == "PASS" and len(probe.violations) > 0


@pytest.mark.parametrize("doc, m", [("two_line_doc", 400), ("segments_power_doc", 300)])
def test_benchmark_bundle_bytes_match_recorded_digests(tmp_path, workloads, doc, m):
    path = workloads.write_doc(getattr(workloads, doc)(m), tmp_path / "scenario.json")
    bundle, _, _ = run_check(load_scenario(path), tmp_path / "reports")
    assert _bundle_digest(bundle) == BENCHMARK_DIGESTS[doc]


def _verdict(verdicts, check):
    return next(v for v in verdicts if v.check == check)


def reference_pair_scan(scenario):
    """The pair-scan verdict's (worst slack, location, violation count) from
    the per-pair reference tables, reduced one time at a time: a later time
    replaces the worst only when strictly larger, the first pair in row-major
    order wins within a time, and a time whose table holds NaN never wins."""
    sec = scenario.section()
    table = evolution_table(sec, model_quadratic(), scenario.grids.times, tau_tie=scenario.grids.tau_tie)
    worst, loc, count = -math.inf, None, 0
    for ti, t in enumerate(table.times):
        slack = reference_pair_slack(sec, table, ti)
        count += int((slack > 1e-9).sum())
        z, y = np.unravel_index(int(np.argmax(slack)), slack.shape)
        if slack[z, y] > worst:
            worst, loc = float(slack[z, y]), f"z={scenario.base_ids[z]},y={scenario.base_ids[y]},t={t:g}"
    return worst, loc, count


@pytest.mark.parametrize("seed", [None, 4, 5, 11, 14, 21, 23])
def test_pair_scan_verdict_equals_the_per_time_reference(tmp_path, seed):
    scenario = two_point_scenario() if seed is None else random_scenario(seed)
    _, verdicts, _ = run_check(scenario, tmp_path)
    worst, loc, count = reference_pair_scan(scenario)
    v = _verdict(verdicts, "pair_slope_estimate")
    assert (v.worst_slack, v.location, v.note) == (worst, loc, f"{count} violating pairs")
    assert v.status == ("PASS" if worst <= 1e-9 else "FAIL")
    assert (seed is None) == (count == 0)


@pytest.mark.parametrize("xi_resolution", [1, 2, 101])
def test_boundary_rate_does_not_depend_on_xi_resolution(tmp_path, xi_resolution):
    # item e reads L* only at xi = 0 and xi = ILS, whatever the transform grid
    doc = scenario_to_dict(two_point_scenario())
    doc["grids"]["xi_resolution"] = xi_resolution
    _, verdicts, code = run_check(scenario_from_dict(doc), tmp_path)
    v = _verdict(verdicts, "suite_e_boundary_rate")
    assert (v.status, v.worst_slack, v.location) == ("PASS", -0.4142135623730949, "y=b0,t=1")
    assert code == 0


def test_check_and_evolve_default_the_hj_radius_to_the_largest_slope_radius(tmp_path):
    doc = scenario_to_dict(two_point_scenario())
    del doc["grids"]["hj_radius"]  # radii [2.0, 1.0]
    scenario = scenario_from_dict(doc)
    bundle, _, _ = run_check(scenario, tmp_path / "check")
    section = scenario.section()
    rows = [line.split(",") for line in bundle.evolution_csv.read_text().splitlines()[1:]]
    for ti, t in enumerate(scenario.grids.times):
        hj = hj_residuals(section, t, 2.0)[0]
        for y, bid in enumerate(scenario.base_ids):
            row = rows[y * len(scenario.grids.times) + ti]
            assert row[:2] == [bid, fmt(t)]
            assert row[6:] == [fmt(hj.residual[y]), str(int(hj.n_neighbors[y] == 0))]
    path = write_scenario(scenario, tmp_path / "scenario.json")
    assert main(["--out", str(tmp_path / "evolve"), "evolve", str(path)]) == 0
    assert (tmp_path / "evolve" / bundle.evolution_csv.name).read_bytes() == bundle.evolution_csv.read_bytes()


def test_lipschitz_grid_is_skipped_without_a_finite_nonzero_ils(tmp_path):
    # f(b0) on the fiber of b1 makes the ILS infinite (and the geometry
    # invalid); a single base point has ILS 0
    degenerate = scenario_to_dict(two_point_scenario())
    degenerate["kappa"], degenerate["base"] = 1, [{"id": "b0", "point": [0.0]}, {"id": "b1", "point": [1.0]}]
    degenerate["fibers"] = {"b0": {"type": "points", "data": [[0.0]]}, "b1": {"type": "points", "data": [[0.0], [5.0]]}}
    degenerate["section"] = {"b0": [0.0], "b1": [5.0]}
    single = scenario_to_dict(two_point_scenario())
    single["base"], single["fibers"], single["section"] = (
        single["base"][:1], {"b0": single["fibers"]["b0"]}, {"b0": single["section"]["b0"]}
    )
    for k, doc in enumerate((degenerate, single)):
        _, verdicts, _ = run_check(scenario_from_dict(doc), tmp_path / str(k))
        v = _verdict(verdicts, "hj_residual_lipschitz_grid")
        note = ("ILS estimate not finite", "ILS estimate is 0")[k]
        assert (v.status, v.worst_slack, v.location, v.note) == ("SKIPPED", None, None, note)
        assert _verdict(verdicts, "hj_residual_grid").status != "SKIPPED"
