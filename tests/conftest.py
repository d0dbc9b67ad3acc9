import copy

import numpy as np
import pytest

from fiberflow.geometry import FiberedSpace, PointSet
from fiberflow.scenario import (
    paper_counterexample,
    singleton_constant_scenario,
    tie_scenario,
    two_point_scenario,
)
from fiberflow.section import Section


@pytest.fixture(scope="session")
def two_point():
    return two_point_scenario()


@pytest.fixture(scope="session")
def paper():
    return paper_counterexample()


@pytest.fixture(scope="session")
def singleton():
    return singleton_constant_scenario()


@pytest.fixture(scope="session")
def tie():
    return tie_scenario()


@pytest.fixture(scope="session")
def reduced_paper_section():
    """The three pinned points of the two-line example, in (x, y, z) order."""
    space = FiberedSpace(
        base_points=np.array([[1.0, 0.0], [7.0, 0.0], [6.0, 0.0]]),
        fibers=(
            PointSet(np.array([[1.0, 8.0], [1.0, 3.5], [1.0, 4.0]])),
            PointSet(np.array([[7.0, 8.0], [7.0, 6.5], [8.0, 7.0]])),
            PointSet(np.array([[6.0, 8.0], [6.0, 6.0], [8.0, 6.0]])),
        ),
    )
    return Section(space=space, values=np.array([[1.0, 4.0], [8.0, 7.0], [8.0, 6.0]]))


def reference_max_row_gaps(A):
    """G[i, j] = max over k of (A[i, k] - A[j, k]), one anchor row i at a time."""
    return np.array([(row - A).max(axis=1) for row in A])


def reference_first_form(section):
    """(worst, (x, y, z)) of the first form from the per-row gaps."""
    D, E = section.fiber_distances(), section.value_distances()
    gaps = reference_max_row_gaps(D) - E
    y, z = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    return float(gaps[y, z]), (int(np.argmax(D[y] - D[z])), int(y), int(z))


def scaled_document(doc, factor):
    """A copy of the scenario document `doc` with every coordinate, radius
    and the HJ radius times `factor`."""
    doc = copy.deepcopy(doc)
    for rec in doc["base"]:
        rec["point"] = [factor * v for v in rec["point"]]
    for fiber in doc["fibers"].values():
        fiber["data"] = np.multiply(fiber["data"], factor).tolist()
    doc["section"] = {bid: [factor * v for v in value] for bid, value in doc["section"].items()}
    grids = doc["grids"]
    grids["radii"] = [factor * r for r in grids["radii"]]
    if "hj_radius" in grids:
        grids["hj_radius"] = factor * grids["hj_radius"]
    return doc
