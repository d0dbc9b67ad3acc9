"""The benchmark's tracer wraps fiberflow names from outside; these tests keep
those names and their call shapes in step with the package."""

import importlib.util
import sys
from pathlib import Path

import pytest

from fiberflow import runner, scenario, variational
from fiberflow.lagrangian import power_lagrangian

TRACING_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in benchmarks/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_tracer_installs_records_and_uninstalls(tracing, tmp_path):
    traced = {**tracing.FUNCTIONS, **tracing.METHODS}
    originals = {name: getattr(owner, attr) for name, (owner, attr) in traced.items()}
    path = scenario.write_scenario(scenario.singleton_constant_scenario(), tmp_path / "singleton.json")
    two_point = scenario.two_point_scenario()

    tracer = tracing.Tracer()
    with tracer:  # module attributes, so that the calls go through the wrappers
        runner.run_check(scenario.load_scenario(path), tmp_path / "reports")
        variational.solve_variational(two_point.section(), two_point.lagrangian(), 1, 2.0, 2, two_point.params)

    for name, (owner, attr) in traced.items():
        assert getattr(owner, attr) is originals[name], name
    names = {span.name for span in tracer.spans}
    assert {
        "scenario.load",
        "geometry.validate_space",
        "geometry.base_distance_matrix",
        "semigroup.evolve_all",
        "semigroup.slope_estimate_check",
        "runner.run_check",
        "variational.minimize_interior",
    } <= names
    metrics = tracing.layer_metrics(tracer.spans, iterations=1, overhead_s=0.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["geometry.validate_space_calls"] == 1
    assert metrics["variational.converged_ratio"] == 1.0


def test_tracer_reads_the_sweep_cap_of_the_call(tracing):
    # the cap reaches minimize_interior by keyword; a positional cap would be
    # read as the 10,000 default, and the one capped descent as converged
    two_point = scenario.two_point_scenario()
    tracer = tracing.Tracer()
    with tracer:
        variational.solve_variational(
            two_point.section(), power_lagrangian(4.0), 1, 2.0, 2, two_point.params, max_sweeps=1
        )
    metrics = tracing.layer_metrics(tracer.spans, iterations=1, overhead_s=0.0)
    assert metrics["variational.sweeps"] == 2
    assert metrics["variational.converged_ratio"] == 0.0


def test_tracer_counts_the_rows_of_the_violation_columns(tracing, tmp_path):
    # the counterexample has 1685 reverse-form violations: the tracer must count
    # the rows of the (n, 3) violation array, not its columns
    tracer = tracing.Tracer()
    with tracer:
        runner.run_check(scenario.paper_counterexample(), tmp_path / "reports")
    metrics = tracing.layer_metrics(tracer.spans, iterations=1, overhead_s=0.0)
    assert metrics["section.asymmetry_violations"] == 1685
