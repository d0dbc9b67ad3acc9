"""Scenario documents for the benchmark workloads, written as JSON files.

The program under test only ever sees the files written here: every timed
iteration loads its scenario from disk with `fiberflow.load_scenario`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fiberflow import (
    paper_counterexample,
    random_scenario,
    singleton_constant_scenario,
    tie_scenario,
    two_point_scenario,
)
from fiberflow.scenario import SCHEMA_VERSION, scenario_to_dict

# number of seeded random scenarios in one small-batch pass
BATCH_RANDOM = 100
# random_scenario seeds are taken from [0, RANDOM_SEED_SPAN); the expected
# verdicts of every seed in that range are recorded in expected.json
RANDOM_SEED_SPAN = 1000


def _grids(m: int) -> dict:
    """The bundled counterexample's grids with hj_base_stride = m // 4."""
    grids = paper_counterexample().grids
    return {
        "times": grids.times,
        "xi_resolution": grids.xi_resolution,
        "radii": grids.radii,
        "hj_radius": grids.hj_radius,
        "hj_times": grids.hj_times,
        "hj_base_stride": m // 4,
        "tolerances": {"tau_geo": grids.tau_geo, "tau_sec": grids.tau_sec, "tau_tie": grids.tau_tie},
    }


def _line_doc(name: str, m: int, fiber_at, lagrangian: dict) -> dict:
    """Base points (x, 0) for x = linspace(0, 8, m); `fiber_at(x)` gives the
    fiber document and the section value at x."""
    base, fibers, section = [], {}, {}
    for k, x in enumerate(np.linspace(0.0, 8.0, m)):
        x = float(x)
        bid = f"y{k:04d}"
        base.append({"id": bid, "point": [x, 0.0], "param": x})
        fibers[bid], section[bid] = fiber_at(x)
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": {"name": name, "description": f"two-line geometry over {m} base points"},
        "kappa": 2,
        "base": base,
        "fibers": fibers,
        "section": section,
        "lagrangian": lagrangian,
        "grids": _grids(m),
    }


def two_line_doc(m: int) -> dict:
    """Point fibers {(x, 8), (x, 3 + x/2)}, section on the lower line, model penalty."""

    def fiber_at(x):
        lower = [x, 3.0 + x / 2.0]
        return {"type": "points", "data": [[x, 8.0], lower]}, lower

    return _line_doc(f"two-line-{m}", m, fiber_at, {"name": "model-quadratic", "params": {}})


def segments_power_doc(m: int) -> dict:
    """Fibers of two vertical segments, (x, 7.75)-(x, 8.25) and (x, y-0.2)-(x, y+0.2)
    with y = 3 + x/2; section (x, y); quartic penalty."""

    def fiber_at(x):
        y = 3.0 + x / 2.0
        segments = [[[x, 7.75], [x, 8.25]], [[x, y - 0.2], [x, y + 0.2]]]
        return {"type": "segments", "data": segments}, [x, y]

    return _line_doc(f"segments-power-{m}", m, fiber_at, {"name": "power", "params": {"exponent": 4.0}})


def two_point_quartic_doc() -> dict:
    doc = scenario_to_dict(two_point_scenario())
    doc["lagrangian"] = {"name": "power", "params": {"exponent": 4.0}}
    return doc


def bundled_docs() -> dict[str, dict]:
    scenarios = [b() for b in (two_point_scenario, paper_counterexample, singleton_constant_scenario, tie_scenario)]
    return {f"bundled-{sc.name}": scenario_to_dict(sc) for sc in scenarios}


def batch_random_seeds(seed: int) -> list[int]:
    """The random_scenario seeds of one small-batch pass."""
    start = seed % (RANDOM_SEED_SPAN - BATCH_RANDOM)
    return [start + k for k in range(BATCH_RANDOM)]


def write_doc(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def write_workload(name: str, seed: int, outdir: Path) -> list[tuple[str, Path]]:
    """Write the scenario files of one workload; return (key, path) pairs.

    The key names the input in expected.json.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    if name == "check-two-line-400":
        docs = {"two-line-400": two_line_doc(400)}
    elif name == "check-segments-power-300":
        docs = {"segments-power-300": segments_power_doc(300)}
    elif name == "variational-quartic":
        docs = {"two-point-quartic": two_point_quartic_doc()}
    elif name == "check-small-batch":
        docs = bundled_docs()
        for s in batch_random_seeds(seed):
            docs[f"random-{s}"] = scenario_to_dict(random_scenario(s))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [(key, write_doc(doc, outdir / f"{key}.json")) for key, doc in docs.items()]
