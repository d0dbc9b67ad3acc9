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
from fiberflow.semigroup import evolution_table, hj_residuals
from test_section import segments_section, two_line_section, unequal_section
from test_semigroup import reference_pair_slack

# sha256 of each run_check bundle (its five files in ReportBundle.all_files
# order), recorded on x86-64 Linux with Python 3.11 and numpy 2.4.  A change
# that moves one of them changes a report byte; CHANGES.md must explain it.
BUNDLE_DIGESTS = {
    "two-point": "af40e5c79c301ceba7f9dca67eb4402d50977919e66a4c63615a2e3025f6c9d4",
    "paper-counterexample": "7cc893d0f04f7ce0b3c50b776b10fd484230d44ea6fddb8abf30b51f5ebae65f",
    "singleton-constant": "78e105164d7ca0ba3d3b803d09f9334b7804fbcf040f62e053115ebde7510234",
    "tie": "41c54539bbbbfd531a8e6f0e3e1a4fa3f94233f7b67dc1ba3a93fe94bf70c545",
    "random-0": "15e418af301856cb5ba3d03c15d249c2fc2a4e79e4c41a9b2f6e301f72829b4d",
    "random-1": "199436e3eeed510cf91640ca4cebde975bcdebee636b68c38b863c43a06d122d",
    "random-2": "3f5211dd0b8893c8d6c61dcd96946463ae456e9540941dfc44a7cb7b6ad399c1",
    "random-3": "e61841cc41a6a7c6d812882e87dcc2ce1bf0867de2c3f2a623f39da9aba8cae6",
    "random-4": "05dcb5cd6ab1905126effff9afa7e94167957e82ee2cc20123eedcbc66be9662",
    "random-5": "590c21404135a46df7554ad6cdf7c23173a49c4f37e0d93c21fe38c53e75cd05",
    "random-6": "ddb2225672424fef2cd8529d01c56124a32402e68bc1e8599bc631eb5f946630",
    "random-7": "f81b19f74d55064b50307102b9bfc77742c5030921a2718889d17530137f793f",
    "random-8": "c9baf3d3aabae949ef179cdebf6207d5c2ab62e472f0afafddd15d1600d4095c",
    "random-9": "27d6b341a28d330df43c221a74f70a496bbbd502909fd092e15cd5a518ad4136",
    "two-line-60": "869fb666cbf43d721d2a1e3370483b268d2e7f2986ea8ffaaa5ed9a2f9abeed8",
    "segments-12": "4fc912368939438be7c2756afe9ec91e5d6604a78732c1bc88748bd5dbd9a796",
    "unequal-16": "85d202357aa748f372331edd18703a0f911b038ae9d0fa53f8d1606f4d6aa6ab",
}
# the same digest over the bundles of the benchmark's check workloads, whose
# scenarios benchmarks/workloads.py writes as JSON
BENCHMARK_DIGESTS = {
    "two_line_doc": "289e9434a3764e4f1a5a10258adf8873e149c25136f3289c407e7f45473234f7",
    "segments_power_doc": "e17e97e8bb11be502802848031bd2a461ee3ad2efcc1b012e298f3b554a9d42e",
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
    scenario = random_scenario(int(name[7:])) if name.startswith("random-") else {**BUNDLED, **LINES}[name]()
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
