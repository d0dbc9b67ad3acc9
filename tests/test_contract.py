"""One contract for the public entry points: each call either refuses its
arguments with a FiberflowError or returns values that are all finite.

Every numeric argument is drawn from NaN, +-inf, 0, -1 and 2^1000 (as ints
and as floats), the int 2^1024, which no float holds, or one valid value;
every list argument is [], a one-element list of such a number, or one valid
list.  The section is the bundled paper counterexample under its own (model)
penalty.  A penalty factory's result is read through its values on [0, 1].
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberflow import (
    check_axioms,
    evolution_table,
    evolve_all,
    legendre_transform,
    local_slopes,
    paper_counterexample,
    power_lagrangian,
    quasi_minimizer_trace,
    slope_estimate_check,
    solve_variational,
)
from fiberflow.errors import FiberflowError
from fiberflow.semigroup import hj_residuals

SCENARIO = paper_counterexample()
SECTION, PENALTY = SCENARIO.section(), SCENARIO.lagrangian()
EXTREMES = [math.nan, math.inf, -math.inf, 0, 0.0, -1, -1.0, 2**1000, 2.0**1000, 2**1024]
TABLE = evolution_table(SECTION, PENALTY, [0.01, 0.02])
OFF_DIAGONAL = ~np.eye(SECTION.n_base, dtype=bool)  # the slope estimate's diagonal is -inf by definition


def number(valid):
    return st.sampled_from(EXTREMES + [valid])


def numbers(valid):
    return st.sampled_from([[], valid] + [[v] for v in EXTREMES])


# each entry point with a strategy per argument; the section and the penalty are fixed
ENTRY_POINTS = {
    "evolve_all": (
        lambda **kw: evolve_all(SECTION, PENALTY, **kw),
        dict(t=number(0.02), tau_tie=number(1e-9)),
    ),
    "evolution_table": (
        lambda **kw: evolution_table(SECTION, PENALTY, **kw),
        dict(times=numbers([0.01, 0.02]), tau_tie=number(1e-9), hj_radius=number(1.0)),
    ),
    "local_slopes": (lambda **kw: local_slopes(SECTION, **kw), dict(radii=numbers([1.0, 0.5]))),
    "hj_residuals": (
        lambda **kw: hj_residuals(SECTION, **kw),
        dict(t=number(0.02), radius=number(1.0), nodes=numbers([0, 40])),
    ),
    "quasi_minimizer_trace": (lambda **kw: quasi_minimizer_trace(SECTION, **kw), dict(tau_tie=number(1e-9))),
    "check_axioms": (lambda **kw: check_axioms(PENALTY, SECTION, **kw), dict(t_list=numbers([0.01, 0.02]))),
    "legendre_transform": (
        lambda **kw: legendre_transform(PENALTY, SECTION, **kw),
        dict(y=number(40), t=number(0.02), xi_resolution=number(11)),
    ),
    "slope_estimate_check": (
        lambda **kw: slope_estimate_check(SECTION, TABLE, **kw)[OFF_DIAGONAL],
        dict(ti=number(1)),
    ),
    "power_lagrangian": (
        lambda **kw: power_lagrangian(**kw)(np.linspace(0.0, 1.0, 5)),
        dict(exponent=number(4.0), scale=number(1.0)),
    ),
    "solve_variational": (
        lambda **kw: solve_variational(SECTION, PENALTY, **kw),
        dict(
            y=number(40),
            t=number(0.02),
            m=number(2),
            params=st.sampled_from([[], SCENARIO.params] + [[v] * SECTION.n_base for v in EXTREMES]),
            max_sweeps=number(50),
        ),
    ),
}


def all_finite(value) -> bool:
    """Whether every number in a result (dataclasses, tuples and arrays, read recursively) is finite."""
    if value is None or isinstance(value, (bool, int, np.bool_, np.integer)):
        return True  # Python ints have no infinity
    if dataclasses.is_dataclass(value):
        return all(all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(all_finite(v) for v in value)
    array = np.asarray(value)
    return array.dtype == bool or bool(np.isfinite(array).all())


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_refuses_or_returns_finite_values(entry):
    call, arguments = ENTRY_POINTS[entry]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.fixed_dictionaries(arguments))
    def contract(kwargs):
        try:
            result = call(**kwargs)
        except FiberflowError:
            return
        assert all_finite(result), kwargs

    contract()
