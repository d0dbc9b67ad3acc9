import functools
import sys

import pytest

from fiberflow import geometry, semigroup
from fiberflow.geometry import FiberedSpace
from fiberflow.runner import run_check
from fiberflow.scenario import load_scenario, paper_counterexample, two_point_scenario, write_scenario


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
    validations, evolutions, base_distances, traces = [], [], [], []
    _record_everywhere(monkeypatch, geometry.validate_space, validations)
    _record_everywhere(monkeypatch, semigroup.evolve_all, evolutions)
    _record_everywhere(monkeypatch, semigroup.quasi_minimizer_trace, traces)
    monkeypatch.setattr(
        FiberedSpace, "base_distance_matrix", _recording(FiberedSpace.base_distance_matrix, base_distances)
    )

    scenario = load_scenario(path)
    run_check(scenario, tmp_path / "reports")

    assert len(validations) == 1
    assert len(traces) == 1  # one trace holds every base point
    # the results stay referenced, so distinct ids are distinct builds
    assert len({id(matrix) for matrix in base_distances}) == 1
    n_times, n_hj_times = len(scenario.grids.times), len(scenario.grids.effective_hj_times())
    # table rows, the table's HJ columns at t and t + h, the HJ grid at t and t + h
    assert len(evolutions) <= n_times + 2 * n_times + 2 * n_hj_times
