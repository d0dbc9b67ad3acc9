"""Hopf-Lax style evolution of a section's scalar field.

The evolved value at (y, t) is

    u(y, t) = min over z of [ t L(d(f(y), fiber(z)) / t) + g(z) ],

an exact minimum over the finite base set, computed for every y at once by
`evolve_all`.  Minimizing sequences collapse to the argmin set (up to a tie
tolerance); the extremal fiber distances over that set play the role of the
one-sided speed indicators D- and D+, which the proposition suite and the
slope estimate read.  Forward differences of u in t feed the Hamilton-Jacobi
residual checks.

The readers behind `check` return arrays: `hj_residuals` the residuals of one
time at chosen base points, `slope_estimate_check` the pair scan's slack table
at one grid time.  `worst_case` reduces such arrays to a worst slack and its
first location, and `Verdict.from_slack` turns that into a status; the
proposition suite returns its items as Verdicts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .lagrangian import AxiomReport, Lagrangian, certification_grid, check_axioms, model_quadratic
from .section import Section, base_index, bound_K, g_field, global_ILS

Array = np.ndarray

DEFAULT_TAU_TIE = 1e-9
# the suite items, the pair scan and the runner's other slack checks pass at a worst slack <= this
SLACK_TOLERANCE = 1e-9
# forward-difference step scale: sqrt(eps) * t balances truncation against roundoff
FD_STEP_SCALE = float(np.sqrt(np.finfo(float).eps))
# the quasi-minimizer trace halves its time this many times
TRACE_LEVELS = 20


def _branches(section: Section, L: Lagrangian, t: float, rows=slice(None)) -> Array:
    """B[k, z] = t L(d(f(y), fiber(z)) / t) + g(z) for the k-th base point y
    of `rows` (default: all), every branch at one time."""
    if not (0 < t < math.inf):
        raise PreconditionError(f"t must be positive and finite, got {t!r}")
    return t * L(section.fiber_distances()[rows] / t) + g_field(section)[None, :]


def evolve_all(section: Section, L: Lagrangian, t: float, tau_tie: float = DEFAULT_TAU_TIE) -> tuple[Array, Array]:
    """Evolved values u[y] and argmin masks for every base point at one time;
    mask[y, z] holds when z attains the minimum at y within `tau_tie`."""
    if not (0 <= tau_tie < math.inf):
        raise PreconditionError(f"tau_tie must be nonnegative and finite, got {tau_tie!r}")
    B = _branches(section, L, t)
    u = B.min(axis=1)
    return u, B <= u[:, None] + tau_tie


def _speeds(D: Array, argmins: Array) -> tuple[Array, Array]:
    """(D-, D+): min and max of the fiber distances D[y, z] over each argmin mask."""
    return np.where(argmins, D, np.inf).min(axis=-1), np.where(argmins, D, -np.inf).max(axis=-1)


def _neighbor_slopes(u: Array, den: Array, near: Array, nodes=None) -> Array:
    """slope[k]: sup over the base points p with near[p, k], the neighbors of
    the k-th node y = nodes[k] (default: y = k), of the positive part of
    u[y] - u[p] divided by den[p, y].  Only the neighbor pairs are read.  A
    positive rise over a zero denominator is inf; a node without neighbors
    has slope 0."""
    p, k = np.nonzero(near)
    y = k if nodes is None else nodes[k]
    rise = u[y] - u[p]
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(rise <= 0.0, 0.0, rise / den[p, y])
    slope = np.zeros(near.shape[1])
    np.maximum.at(slope, k, quotient)
    return slope


class HJArrays(NamedTuple):
    """One form of the Hamilton-Jacobi residuals at one time, as arrays over y."""

    residual: Array
    forward_difference: Array
    slope: Array
    n_neighbors: Array


def _hj_setup(section: Section, t: float, radius: float, nodes=None, u=None) -> tuple[Array, Array, Array]:
    """(near, u, fd) of the model evolution at time t: near[p, k] holds when
    p is a neighbor of the k-th node, u is read at the nodes and their
    neighbors, and fd[k] is the forward time difference at the k-th node.
    nodes=None means every base point, read through slices.  A given u must
    be the model evolution at t over every base point."""
    h = FD_STEP_SCALE * t
    if not (0 < h < t):
        raise PreconditionError("need 0 < h < t for the forward difference")
    if not (0 < radius < math.inf):
        raise PreconditionError(f"the neighbor radius must be positive and finite, got {radius!r}")
    cols = slice(None) if nodes is None else nodes
    near = section.space.base_distance_matrix()[:, cols]
    near = (near > 0) & (near <= radius)
    L = model_quadratic()
    if u is None:
        wanted = near.any(axis=1)
        wanted[cols] = True
        rows = slice(None) if wanted.all() else np.flatnonzero(wanted)  # all rows: a view of D, not a copy
        u = np.empty(section.n_base)  # read at the rows only
        u[rows] = _branches(section, L, t, rows).min(axis=1)
    fd = (_branches(section, L, t + h, cols).min(axis=1) - u[cols]) / h
    return near, u, fd


def _hj_form(u: Array, fd: Array, den: Array, near: Array, prefactor: float, nodes=None) -> HJArrays:
    """One form of the residuals from `_hj_setup`'s arrays."""
    slope = _neighbor_slopes(u, den, near, nodes)
    return HJArrays(fd + prefactor * slope * slope, fd, slope, near.sum(axis=0))


def hj_residuals(section: Section, t: float, radius: float, nodes=None) -> tuple[HJArrays, HJArrays | None]:
    """Hamilton-Jacobi residuals of the model evolution at time t, in the
    plain and the Lipschitz form, at the base points `nodes` (default: every
    base point); the arrays follow the order of `nodes`.  Neighbors are the
    base points at distance in (0, radius].

    Only the branch rows of the nodes and of their neighbors are built, and
    the slopes read only the neighbor pairs, so the values at a node do not
    depend on which other nodes are asked for.

    The plain form divides by the distance between section values and uses the
    prefactor 2; the Lipschitz form divides by the section-to-fiber distance
    and uses 2 / ILS^2, and is None unless the global ILS estimate is finite
    and nonzero.
    """
    nodes = None if nodes is None else np.array([base_index(section, y) for y in nodes], dtype=int)
    near, u, fd = _hj_setup(section, t, radius, nodes)
    ils = global_ILS(section)
    lipschitz = None
    if math.isfinite(ils) and ils != 0.0:
        lipschitz = _hj_form(u, fd, section.fiber_distances(), near, 2.0 / (ils * ils), nodes)
    return _hj_form(u, fd, section.value_distances(), near, 2.0, nodes), lipschitz


def hj_residual(section: Section, y: int, t: float, radius: float) -> HJArrays:
    """The plain form of `hj_residuals` at the one node y, as length-1 arrays."""
    return hj_residuals(section, t, radius, [y])[0]


def slope_estimate_check(section: Section, table: EvolutionTable, ti: int) -> Array:
    """Slack table of the finite slope estimate
    u(z,t) - u(y,t) <= (d(f(z),f(y)) / 2t) * (D-(y,t) + d(f(z), fiber(y)))
    at the grid time t = table.times[ti] of the model evolution: slack[z, y]
    is the left side minus the right side, and the diagonal is -inf."""
    if not table.is_model_quadratic:
        raise PreconditionError("the slope estimate is defined for the quadratic model penalty only")
    t, u, iDm = table.times[ti], table.u[ti], table.iD_minus[ti]
    D = section.fiber_distances()
    E = section.value_distances()
    slack = u[:, None] - u[None, :] - (E / (2.0 * t)) * (iDm[None, :] + D)
    np.fill_diagonal(slack, -np.inf)
    return slack


@dataclass
class QuasiMinimizerTrace:
    """Fiber distances of every base point along the shrinking-time schedule
    t_n = scale * 2^-n, n = 0, ..., TRACE_LEVELS, scale = max(1, sup |f|).

    `argmin_dist[n, y]` uses the tie-tolerance argmin set; `quasi_dist[n, y]`
    allows the 1/n slack of a quasi-minimizing sequence and `quasi_bound[n]`
    is the a-priori bound 2 t_n (2 ||f||_inf + 1/n) on its squared distance.
    """

    times: Array
    argmin_dist: Array  # (TRACE_LEVELS + 1, m)
    quasi_dist: Array  # (TRACE_LEVELS + 1, m)
    quasi_bound: Array  # (TRACE_LEVELS + 1,)


def quasi_minimizer_trace(section: Section, tau_tie: float = DEFAULT_TAU_TIE) -> QuasiMinimizerTrace:
    """The trace of every base point at TRACE_LEVELS + 1 times, one branch table per time."""
    if not (0 <= tau_tie < math.inf):
        raise PreconditionError(f"tau_tie must be nonnegative and finite, got {tau_tie!r}")
    L = model_quadratic()
    sup = section.sup_norm()
    D = section.fiber_distances()
    times = max(1.0, sup) * 2.0 ** -np.arange(TRACE_LEVELS + 1.0)
    slacks = 1.0 / np.maximum(np.arange(TRACE_LEVELS + 1.0), 1.0)
    a_dist, q_dist = [], []
    for t_n, slack in zip(times, slacks):
        B = _branches(section, L, float(t_n))
        u = B.min(axis=1)[:, None]
        # D+ over the argmin and the quasi-argmin sets
        a_dist.append(np.where(B <= u + tau_tie, D, -np.inf).max(axis=1))
        q_dist.append(np.where(B <= u + slack, D, -np.inf).max(axis=1))
    return QuasiMinimizerTrace(
        times=times,
        argmin_dist=np.array(a_dist),
        quasi_dist=np.array(q_dist),
        quasi_bound=2.0 * times * (2.0 * sup + slacks),
    )


@dataclass
class Verdict:
    """One check's status, the worst slack of its inequality and the first place attaining it."""

    check: str
    status: str  # PASS / FAIL / SKIPPED
    worst_slack: float | None
    location: str | None
    note: str | None = None

    @classmethod
    def from_slack(cls, check: str, slack: float, tol: float, location: str | None, note: str | None = None):
        """PASS when the worst slack is at most `tol`, FAIL otherwise (NaN included)."""
        return cls(check, "PASS" if slack <= tol else "FAIL", float(slack), location, note)

    def to_dict(self) -> dict:
        d = asdict(self)
        slack = d["worst_slack"]
        if slack is not None:
            # keep the verdict file strict JSON even for non-finite slacks
            d["worst_slack"] = float(slack) if math.isfinite(slack) else repr(float(slack))
        return d


def worst_case(cases, labels: list[str]) -> tuple[float, str | None]:
    """Largest entry over the (gap, axis names, suffix) cases and its
    location, each index of the gap named by `labels` (a scalar gap has no
    axes and its suffix is the whole location).  The first case and, within
    it, the first index attaining the largest entry win; a gap holding NaN is
    never chosen, and no cases give (-inf, None)."""
    worst, loc = -math.inf, None
    for gap, axes, suffix in cases:
        w = float(gap.max())
        if w > worst:
            idx = np.unravel_index(int(np.argmax(gap)), gap.shape)
            worst, loc = w, ",".join([f"{a}={labels[i]}" for a, i in zip(axes, idx)] + [suffix])
        del gap  # a generator may build the next case now: keep one alive at a time
    return worst, loc


@dataclass
class SuiteReport:
    items: list[Verdict]  # checks named suite_<item key>
    axiom_report: AxiomReport

    def item(self, check: str) -> Verdict:
        for it in self.items:
            if it.check == check:
                return it
        raise KeyError(check)


def proposition_suite(
    section: Section,
    L: Lagrangian,
    table: EvolutionTable,
    model: EvolutionTable | None = None,
    labels: list[str] | None = None,
) -> SuiteReport:
    """Run the full battery of evolution properties over `table`, the
    evolution under `L`, and report one verdict per item, named
    suite_<item key>, with locations in sorted time order; an item passes
    when its worst slack is at most SLACK_TOLERANCE.

    Items whose hypotheses fail (penalty axioms, finite ILS) are SKIPPED, not
    failed.  Items tied to the quadratic-penalty theory always evaluate the
    model evolution, whatever `L` is: the quasi-minimizer traces compute it,
    and D+- monotonicity and bounds and the time-Lipschitz estimate read
    `model`, the model penalty's table on the same times.  `model` defaults
    to `table`, which must then be the model's.
    """
    model = table if model is None else model
    if not model.is_model_quadratic or not np.array_equal(model.times, table.times):
        raise PreconditionError("the suite needs the model penalty's evolution on the same times")
    order = np.argsort(table.times, kind="stable")
    times, u = table.times[order], table.u[order]
    tau_tie = table.tau_tie
    lab = labels if labels is not None else [str(i) for i in range(section.n_base)]

    g = g_field(section)
    E = section.value_distances()
    K = bound_K(section)
    ils = global_ILS(section)
    axioms = check_axioms(L, section, times)

    items: list[Verdict] = []

    def record(key: str, slack: float, loc: str | None, note: str | None = None):
        if slack == -math.inf:  # nothing to compare (e.g. a single grid time)
            items.append(Verdict(f"suite_{key}", "PASS", None, None, note="no comparable grid pairs"))
        else:
            items.append(Verdict.from_slack(f"suite_{key}", slack, SLACK_TOLERANCE, loc, note))

    def skip(key: str, why: str):
        items.append(Verdict(f"suite_{key}", "SKIPPED", None, None, note=why))

    pairs = [(i, j) for i in range(times.size) for j in range(i + 1, times.size)]

    # (a) pointwise bounds: min of all coordinates <= u <= g + t L(0)
    L0 = float(L(0.0))
    if not float(np.min(L(certification_grid(section, times)))) >= -1e-12:
        skip("a_bounds", "penalty takes negative values; the lower bound does not apply")
    else:
        lower = float(section.values.min())
        slack_low = lower - u
        slack_high = u - (g[None, :] + times[:, None] * L0)
        both = np.maximum(slack_low, slack_high)
        record("a_bounds", *worst_case(((row, "y", f"t={t:g}") for t, row in zip(times, both)), lab))

    # (b) quasi-minimizing sequences collapse onto the fiber of y as t -> 0
    trace = quasi_minimizer_trace(section, tau_tie=tau_tie)
    worst_final, loc_final = worst_case([(trace.argmin_dist[-1], "y", f"t={trace.times[-1]:g}")], lab)
    worst_bound = float((trace.quasi_dist**2 - trace.quasi_bound[:, None]).max())
    record(
        "b_quasi_minimizer",
        max(worst_final - 1e-6, worst_bound),
        loc_final,
        note=f"final argmin fiber distance {worst_final:.3e}",
    )

    def spatial_rhs(t: float) -> Array:
        return 2.0 * K * np.sqrt(np.maximum(L(E / t), 0.0))

    # (c) spatial estimate |u(x,t) - u(y,t)| <= 2 K sqrt(L(d(f(x),f(y))/t))
    # (d) cross-time estimate u(y,t) <= 2 K sqrt(L(d/t)) + u(x,s) for s < t
    if not axioms.passed:
        skip("c_spatial_estimate", "penalty axioms failed on this scenario")
        skip("d_cross_time_estimate", "penalty axioms failed on this scenario")
    else:
        gaps = ((np.abs(ut[:, None] - ut[None, :]) - spatial_rhs(t), "xy", f"t={t:g}") for t, ut in zip(times, u))
        record("c_spatial_estimate", *worst_case(gaps, lab))
        gaps = (
            (u[ti][None, :] - (spatial_rhs(times[ti]) + u[si][:, None]), "xy", f"s={times[si]:g},t={times[ti]:g}")
            for si, ti in pairs
        )
        record("d_cross_time_estimate", *worst_case(gaps, lab))

    # (e) boundary behavior |u - g| <= C t with C = max(|L(0)|, max |H|)
    if not math.isfinite(ils):
        skip("e_boundary_rate", "global ILS estimate is infinite")
    else:
        # for speeds w >= 0 the computed L*(xi) = max over w of (xi w - L(w)) is
        # nondecreasing in xi (products and differences round monotonically),
        # so max |L*| over [0, ILS] is attained at xi = 0 or xi = ILS
        D = section.fiber_distances()
        gaps = []
        for t, ut in zip(times, u):
            W = D / t
            LW = L(W)
            ends = [np.abs((xi * W - LW).max(axis=1)) for xi in (0.0, ils)]
            C = np.fmax(abs(L0), np.maximum(*ends))
            gaps.append((np.abs(ut - g) - C * t, "y", f"t={t:g}"))
        record("e_boundary_rate", *worst_case(gaps, lab))

    # (f) u(y, .) nonincreasing in t
    gaps = ((u[ti] - u[si], "y", f"s={times[si]:g},t={times[ti]:g}") for si, ti in pairs)
    record("f_time_monotone", *worst_case(gaps, lab))

    # (g) D+(y,t) <= D-(y,s) for t < s (quadratic model)
    iD_minus, iD_plus, model_u = model.iD_minus[order], model.iD_plus[order], model.u[order]
    gaps = ((iD_plus[ti] - iD_minus[si] - tau_tie, "y", f"t={times[ti]:g},s={times[si]:g}") for ti, si in pairs)
    record("g_speed_monotone", *worst_case(gaps, lab))

    # (h) 2 t ILS >= D+(y,t) for intrinsically Lipschitz sections
    if not math.isfinite(ils):
        skip("h_speed_bound", "global ILS estimate is infinite")
    else:
        gaps = ((dp - 2.0 * t * ils, "y", f"t={t:g}") for t, dp in zip(times, iD_plus))
        record("h_speed_bound", *worst_case(gaps, lab))

    # (i) global time-Lipschitz bound |u(t) - u(s)| <= K^2 (s - t) / (2 t s)
    gaps = []
    for ti, si in pairs:
        t, s = times[ti], times[si]
        gaps.append((np.abs(model_u[ti] - model_u[si]) - K * K * (s - t) / (2.0 * t * s), "y", f"t={t:g},s={s:g}"))
    record("i_time_lipschitz", *worst_case(gaps, lab))

    return SuiteReport(items=items, axiom_report=axioms)


@dataclass
class EvolutionTable:
    """Values, argmin masks, extremal speeds and HJ residuals over (t, y);
    argmins[ti, y, z] holds when z is in the argmin set of (y, times[ti])."""

    times: Array
    u: Array  # (T, m)
    argmins: Array  # (T, m, m) bool
    iD_minus: Array
    iD_plus: Array
    hj_residual: Array
    hj_no_neighbors: np.ndarray
    tau_tie: float
    is_model_quadratic: bool  # L.is_model_quadratic of the evolving penalty L


def evolution_table(
    section: Section,
    L: Lagrangian,
    times,
    tau_tie: float = DEFAULT_TAU_TIE,
    hj_radius: float | None = None,
) -> EvolutionTable:
    """The evolution at every grid time; the plain HJ residuals (NaN
    otherwise) when a radius is given and L is the model penalty.  The
    residuals at t read u at t from the table's own row."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise PreconditionError("times must be nonempty")
    rows = [evolve_all(section, L, float(t), tau_tie) for t in times]
    u = np.array([row[0] for row in rows])
    argmins = np.array([row[1] for row in rows])
    iD_minus, iD_plus = _speeds(section.fiber_distances(), argmins)
    resid = np.full(u.shape, np.nan)
    flags = np.zeros(u.shape, dtype=bool)
    if hj_radius is not None and L.is_model_quadratic:
        for ti, t in enumerate(times):
            # L evolves like the model penalty, so u at t is the table's own row
            near, _, fd = _hj_setup(section, float(t), hj_radius, u=u[ti])
            plain = _hj_form(u[ti], fd, section.value_distances(), near, 2.0)
            resid[ti], flags[ti] = plain.residual, plain.n_neighbors == 0
    if not (np.all(np.isfinite(u))):
        raise PreconditionError("evolution produced non-finite values; input data must be bounded")
    return EvolutionTable(
        times=times,
        u=u,
        argmins=argmins,
        iD_minus=iD_minus,
        iD_plus=iD_plus,
        hj_residual=resid,
        hj_no_neighbors=flags,
        tau_tie=tau_tie,
        is_model_quadratic=L.is_model_quadratic,
    )
