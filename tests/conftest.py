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
