"""Discrete curve problem behind the evolved field.

A curve is its array of m + 1 scalar node values on a uniform grid over
[0, t], pinned at both ends: w(0) sits at the scalar parameter of a candidate
base point z and w(t) at that parameter plus the fiber distance
d(f(y), fiber(z)).  `action` is the Riemann sum of the penalty of the slopes;
`solve_variational` adds the initial datum g(z).  For a convex penalty the
inner problem is solved by the constant-speed curve, which is how the outer
scan over z reproduces the direct evolution formula; the solver verifies that
numerically instead of assuming it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .lagrangian import Lagrangian
from .section import Section, base_index, g_field
from .semigroup import evolve_all

Array = np.ndarray

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden section stops at a bracket this narrow, the descent after a sweep moving no node this far
GOLDEN_TOL = 1e-12
SWEEP_TOL = 1e-10
# the most time steps of a curve: the descent is a Python loop over the nodes
MAX_STEPS = 1 << 16


def action(nodes: Array, t: float, L: Lagrangian) -> float:
    """Riemann-sum action of the node curve on [0, t], without g(z)."""
    ds = t / (len(nodes) - 1)
    return float(np.sum(L(np.diff(nodes) / ds)) * ds)


def _golden_section(fun, lo: float, hi: float) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def minimize_interior(
    nodes: Array,
    t: float,
    L: Lagrangian,
    max_sweeps: int = 10_000,
) -> tuple[Array, int]:
    """Cyclic coordinate descent over the interior nodes.

    The per-node problem is convex in the node value; the quadratic model
    penalty has the closed-form midpoint update, anything else uses golden
    section between the neighbors.  Stops when the largest node movement in a
    sweep drops below SWEEP_TOL.  The end nodes stay fixed; `nodes` is copied.
    The search runs on floats and calls `L.fn` on them directly (see
    `Lagrangian`), with the same bits as on 0-d arrays.
    """
    nodes = np.asarray(nodes, dtype=float).tolist()
    m = len(nodes) - 1
    ds = t / m
    fn = L.fn
    quadratic = L.is_model_quadratic
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        max_change = 0.0
        for k in range(1, m):
            a, b = nodes[k - 1], nodes[k + 1]
            if quadratic:
                new = 0.5 * (a + b)
            else:
                def local(w, a=a, b=b):
                    return fn((w - a) / ds) + fn((b - w) / ds)

                lo, hi = (a, b) if a <= b else (b, a)
                new = _golden_section(local, lo, hi)
            max_change = max(max_change, abs(new - nodes[k]))
            nodes[k] = new
        if max_change < SWEEP_TOL:
            break
    return np.array(nodes), sweeps


@dataclass
class VariationalResult:
    value: float
    best_z: int
    nodes: Array
    evolve_value: float
    gap: float
    max_linearity_deviation: float
    converged: bool  # every candidate's descent stopped before max_sweeps


def solve_variational(
    section: Section,
    L: Lagrangian,
    y: int,
    t: float,
    m: int,
    params: Array | None,
    max_sweeps: int = 10_000,
) -> VariationalResult:
    """Outer exact scan over candidate start points, inner descent per curve.

    Requires the base set to carry a scalar parametrization (the curve values
    live on the parameter line); refused otherwise.
    """
    if params is None:
        raise PreconditionError(
            "variational solve needs a scalar parametrization of the base set; "
            "this scenario does not provide one"
        )
    params = np.asarray(params, dtype=float)
    if params.shape != (section.n_base,) or not np.all(np.isfinite(params)):
        raise PreconditionError("need exactly one finite scalar parameter per base point")
    y = base_index(section, y)
    if not (isinstance(m, numbers.Integral) and m >= 1):
        raise PreconditionError(f"need at least one time step, got m={m!r}")
    if not (m <= MAX_STEPS and isinstance(max_sweeps, numbers.Integral) and max_sweeps >= 1):
        raise PreconditionError(f"need m <= {MAX_STEPS} time steps and max_sweeps >= 1, got {m!r} and {max_sweeps!r}")
    if not (0 < t < math.inf):  # NaN too
        raise PreconditionError("t must be positive and finite")
    D = section.fiber_distances()
    g = g_field(section)
    best: tuple[float, int, Array] | None = None
    converged = True
    for z in range(section.n_base):
        # the straight curve from the parameter of z across the fiber distance
        nodes = float(params[z]) + np.linspace(0.0, float(D[y, z]), m + 1)
        nodes, sweeps = minimize_interior(nodes, t, L, max_sweeps=max_sweeps)
        converged = converged and sweeps < max_sweeps
        val = action(nodes, t, L) + float(g[z])
        if best is None or val < best[0]:
            best = (val, z, nodes)
    value, z, nodes = best
    linear = nodes[0] + np.linspace(0.0, 1.0, m + 1) * (nodes[-1] - nodes[0])
    ev = float(evolve_all(section, L, t)[0][y])
    return VariationalResult(
        value=value,
        best_z=z,
        nodes=nodes,
        evolve_value=ev,
        gap=value - ev,
        max_linearity_deviation=float(np.abs(nodes - linear).max()),
        converged=converged,
    )
