"""Hopf-Lax style evolution of a section's scalar field.

The evolved value at (y, t) is

    u(y, t) = min over z of [ t L(d(f(y), fiber(z)) / t) + g(z) ],

an exact minimum over the finite base set, computed for every y at once by
`evolve_all`.  Minimizing sequences collapse to the argmin set (up to a tie
tolerance); the extremal fiber distances over that set play the role of the
one-sided speed indicators D- and D+, which the proposition suite and the
slope estimate read.  Forward differences of u in t feed the Hamilton-Jacobi
residual checks.

The readers behind `check` return arrays; `worst_case` reduces them to a
worst slack and its first location, and `Verdict.from_slack` to a status.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .geometry import PRUNE_MARGIN
from .lagrangian import AxiomReport, Lagrangian, certification_grid, check_axioms, model_quadratic
from .section import FLOAT_MAX, SLACK_TOLERANCE, Section, as_floats, bound_K, checked_index, g_field, global_ILS

Array = np.ndarray

DEFAULT_TAU_TIE = 1e-9
# forward-difference step scale: sqrt(eps) * t balances truncation against roundoff
FD_STEP_SCALE = float(np.sqrt(np.finfo(float).eps))
# the quasi-minimizer trace halves its time this many times
TRACE_LEVELS = 20
# the smallest normal float, which bounds an underflowed square in the trace's certificate
TINY = float(np.finfo(float).tiny)


def _branches(section: Section, L: Lagrangian, t: float, rows=slice(None)) -> Array:
    """B[k, z] = t L(d(f(y), fiber(z)) / t) + g(z) for the k-th base point y
    of `rows` (default: all), every branch at one time."""
    if not (0 < t <= FLOAT_MAX):
        raise PreconditionError(f"t must be positive and finite, got {t!r}")
    return t * L(section.fiber_distances()[rows] / t) + g_field(section)[None, :]


def evolve_all(section: Section, L: Lagrangian, t: float, tau_tie: float = DEFAULT_TAU_TIE) -> tuple[Array, Array]:
    """Evolved values u[y] and argmin masks for every base point at one time;
    mask[y, z] holds when z attains the minimum at y within `tau_tie`."""
    if not (0 <= tau_tie <= FLOAT_MAX):
        raise PreconditionError(f"tau_tie must be nonnegative and finite, got {tau_tie!r}")
    B = _branches(section, L, t)
    u = B.min(axis=1)
    return u, B <= u[:, None] + tau_tie


def _speeds(D: Array, argmins: Array) -> tuple[Array, Array]:
    """(D-, D+): min and max of the fiber distances D[y, z] over each argmin mask."""
    return np.where(argmins, D, np.inf).min(axis=-1), np.where(argmins, D, -np.inf).max(axis=-1)


class HJArrays(NamedTuple):
    """One form of the Hamilton-Jacobi residuals at one time, as arrays over y."""

    residual: Array
    forward_difference: Array
    slope: Array
    n_neighbors: Array


def hj_residuals(section: Section, t: float, radius: float, nodes=None, u=None) -> tuple[HJArrays, HJArrays | None]:
    """Hamilton-Jacobi residuals of the model evolution at time t, in the
    plain and the Lipschitz form, at the base points `nodes` (default: every
    base point); the arrays follow the order of `nodes`.  Neighbors are the
    base points at distance in (0, radius].  A given u must be the model
    evolution at t over every base point.

    Only the branch rows of the nodes and of their neighbors are built, and
    the slopes read only the neighbor pairs, so the values at a node do not
    depend on which other nodes are asked for.  The slope at node y is the
    sup over its neighbors p of the positive part of u[y] - u[p] over a
    distance; fd is the forward time difference of u at y.

    The plain form divides by the distance between section values and uses the
    prefactor 2; the Lipschitz form divides by the section-to-fiber distance
    and uses 2 / ILS^2, and is None unless the global ILS estimate is finite
    and its square nonzero.
    """
    nodes = None if nodes is None else np.array([checked_index(y, section.n_base) for y in nodes], dtype=int)
    h = FD_STEP_SCALE * float(t) if 0 < t <= FLOAT_MAX else 0.0
    if not (h > 0 and math.isfinite(float(t) + h)):  # Python floats: t + h overflows to inf without a warning
        raise PreconditionError(f"need a forward-difference step h > 0 with t + h finite, got t={t!r}")
    if not (0 < radius <= FLOAT_MAX):
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
    p, k = np.nonzero(near)  # the neighbor pairs (p, k-th node), shared by both forms
    y = k if nodes is None else nodes[k]
    rise = u[y] - u[p]
    n_neighbors = near.sum(axis=0)

    def form(den: Array, prefactor: float) -> HJArrays:
        with np.errstate(divide="ignore", invalid="ignore"):  # a positive rise over a zero distance is inf
            quotient = np.where(rise <= 0.0, 0.0, rise / den[p, y])
        slope = np.zeros(near.shape[1])  # 0 at a node without neighbors
        np.maximum.at(slope, k, quotient)
        return HJArrays(fd + prefactor * slope * slope, fd, slope, n_neighbors)

    ils = global_ILS(section)
    lipschitz = form(section.fiber_distances(), 2.0 / (ils * ils)) if math.isfinite(ils) and ils * ils != 0.0 else None
    return form(section.value_distances(), 2.0), lipschitz


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
    ti = checked_index(ti, table.times.size, "grid time index")
    t, u, iDm = table.times[ti], table.u[ti], table.iD_minus[ti]
    D = section.fiber_distances()
    E = section.value_distances()
    slack = u[:, None] - u[None, :] - (E / (2.0 * t)) * (iDm[None, :] + D)
    np.fill_diagonal(slack, -np.inf)
    return slack


def _trace_schedule(section: Section) -> tuple[Array, Array, Array]:
    """(times, slacks, quasi_bound) of the quasi-minimizer trace: t_n = scale * 2^-n
    for n = 0, ..., TRACE_LEVELS with scale = max(1, sup |f|), the slack 1/n of a
    quasi-minimizing sequence (1 at n = 0), and the bound 2 t_n (2 ||f||_inf + 1/n)."""
    sup = section.sup_norm()
    times = max(1.0, sup) * 2.0 ** -np.arange(TRACE_LEVELS + 1.0)
    slacks = 1.0 / np.maximum(np.arange(TRACE_LEVELS + 1.0), 1.0)
    return times, slacks, 2.0 * times * (2.0 * sup + slacks)


def _quasi_level(section: Section, t: float, slack: float, rows=slice(None), tau_tie=None) -> tuple[Array, ...]:
    """(quasi_dist, argmin_dist) of one trace level for the base points
    `rows`, from their model branch rows B and minima u: D+ over each
    quasi-argmin set {z : B[k, z] <= u[k] + slack} and, given `tau_tie`, over
    each tie-tolerance argmin set (else None)."""
    B = _branches(section, model_quadratic(), t, rows)
    u = B.min(axis=1)[:, None]
    D = section.fiber_distances()[rows]
    quasi_dist = np.where(B <= u + slack, D, -np.inf).max(axis=1)
    return quasi_dist, None if tau_tie is None else np.where(B <= u + tau_tie, D, -np.inf).max(axis=1)


def quasi_minimizer_trace(section: Section, tau_tie: float = DEFAULT_TAU_TIE) -> tuple[Array, Array, Array, Array]:
    """Fiber distances of every base point along the shrinking-time schedule
    t_n = scale * 2^-n, n = 0, ..., TRACE_LEVELS, scale = max(1, sup |f|),
    one branch table per time: (times, argmin_dist, quasi_dist, quasi_bound).

    `quasi_dist[n, y]` is D+ over the quasi-argmin set, which allows the 1/n
    slack of a quasi-minimizing sequence, and `quasi_bound[n]` is the
    a-priori bound 2 t_n (2 ||f||_inf + 1/n) on its square.  `argmin_dist[y]`
    is D+ over the tie-tolerance argmin set at the last time only.
    """
    if not (0 <= tau_tie <= FLOAT_MAX):
        raise PreconditionError(f"tau_tie must be nonnegative and finite, got {tau_tie!r}")
    times, slacks, quasi_bound = _trace_schedule(section)
    quasi_dist = np.empty((times.size, section.n_base))
    for n in range(TRACE_LEVELS):
        quasi_dist[n] = _quasi_level(section, float(times[n]), slacks[n])[0]
    quasi_dist[-1], argmin_dist = _quasi_level(section, float(times[-1]), slacks[-1], tau_tie=tau_tie)
    return times, argmin_dist, quasi_dist, quasi_bound


def _quasi_excess_worst(section: Section, floor: float, last=None) -> float:
    """max(floor, (quasi_dist**2 - quasi_bound[:, None]).max()) of
    `quasi_minimizer_trace`, bit for bit and with Python's `max` (a NaN
    excess leaves the floor), building branch rows only for the base points
    a certificate does not clear.  `last`, when given, is the trace's last
    row of quasi_dist, which the caller has built.

    The certificate: for z in the computed quasi-argmin set of y at (t, s),
    B[y, z] <= fl(u[y] + s) <= fl(B[y, y] + s) = c[y], since u[y] <= B[y, y]
    and rounding is monotone.  The model branch B[y, z] = fl(A + g[z]) with
    A = fl(t L(fl(D/t))) >= D^2 / 2t (1 - 2^-51), so fl(D[y, z]^2) is at most
    2 t (c[y] - min g) up to a PRUNE_MARGIN relative margin (the t TINY and
    TINY terms absorb underflow).  A row whose bound minus quasi_bound is
    below the floor cannot raise the maximum; a NaN or inf clears nothing.
    """
    times, slacks, quasi_bound = _trace_schedule(section)
    D, g = section.fiber_distances(), g_field(section)
    d, gmin, L = np.diagonal(D), float(g.min()), model_quadratic()
    finite = math.isfinite(floor) and np.isfinite(D).all() and np.isfinite(g).all()
    threshold = floor if finite else -math.inf  # -inf clears nothing
    worst = []  # the largest excess of each level over its rows that are not cleared
    for n, (t, slack) in enumerate(zip(times.tolist(), slacks)):
        if last is not None and n == TRACE_LEVELS:
            worst.append((last**2 - quasi_bound[n]).max())
            continue
        c = (t * L(d / t) + g) + slack  # B[y, y] as `_branches` builds it, then fl(B[y, y] + s)
        bound = 2.0 * t * ((c - gmin) + PRUNE_MARGIN * (np.abs(c) + abs(gmin)) + t * TINY) * (1.0 + PRUNE_MARGIN)
        rows = np.flatnonzero(~(bound + TINY - quasi_bound[n] < threshold))
        if rows.size:
            worst.append((_quasi_level(section, t, slack, rows)[0] ** 2 - quasi_bound[n]).max())
    return max(floor, float(np.max(worst))) if worst else floor


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
    it, the first index attaining the largest entry win.  A NaN entry is the
    worst: the first case holding NaN and its first NaN give the location,
    and no later case is read.  No cases give (-inf, None)."""
    worst, loc = -math.inf, None
    for gap, axes, suffix in cases:
        w = float(gap.max())
        if not w <= worst:  # a larger entry, or NaN
            idx = np.unravel_index(int(np.argmax(gap)), gap.shape)
            worst, loc = w, ",".join([f"{a}={labels[i]}" for a, i in zip(axes, idx)] + [suffix])
            if math.isnan(w):
                break
        del gap  # a generator may build the next case now: keep one alive at a time
    return worst, loc


class _CrossTimeWorst:
    """Item d's reducer: once `add` has read every grid time's rhs table in
    time order, (worst, loc) is the `worst_case` of the cross-time gaps
    u[t][y] - (rhs_t[x, y] + u[s][x]) over the pairs of sorted grid times
    s < t, in the (s, t) order of the pair loop.  Rounding is monotone, so
    at each t the largest gap over s is the gap at the running minimum of u
    over the strictly earlier times; a repeated time forms no pair.  The
    location comes from evaluating, while rhs_t is at hand, the pairs (s, t)
    in s order up to the first one that attains a new worst, or that ties it
    at a smaller s."""

    def __init__(self, times: Array, u: Array, labels: list[str]):
        self.times, self.u, self.labels = times, u, labels
        self.worst, self.loc, self.first_s = -math.inf, None, 0
        self.umin, self.known = None, 0  # the minimum of u over its first `known` rows

    def add(self, ti: int, rhs: Array) -> None:
        times, u = self.times, self.u
        earlier = int(np.searchsorted(times, times[ti]))  # times strictly before times[ti]
        for row in u[self.known : earlier]:
            self.umin = row if self.umin is None else np.minimum(self.umin, row)  # NaN propagates
        self.known = earlier
        w = float((u[ti][None, :] - (rhs + self.umin[:, None])).max()) if earlier else -math.inf
        worse = w > self.worst or math.isnan(w) and not math.isnan(self.worst)  # NaN is the worst
        tie = w == self.worst or math.isnan(w) and math.isnan(self.worst)
        # the pairs that can move the location: every s for a new worst, the s before the location's for a tie
        for si in range(earlier if worse else self.first_s if tie else 0):
            pair = worst_case(
                [(u[ti][None, :] - (rhs + u[si][:, None]), "xy", f"s={times[si]:g},t={times[ti]:g}")], self.labels
            )
            if pair[0] == w or math.isnan(pair[0]) and math.isnan(w):
                (self.worst, self.loc), self.first_s = pair, si
                break


def proposition_suite(
    section: Section,
    L: Lagrangian,
    table: EvolutionTable,
    model: EvolutionTable | None = None,
    labels: list[str] | None = None,
) -> tuple[list[Verdict], AxiomReport]:
    """Run the full battery of evolution properties over `table`, the
    evolution under `L`: one verdict per item, named suite_<item key>, with
    locations in sorted time order, and the penalty-axiom report.  An item
    passes when its worst slack is at most SLACK_TOLERANCE.

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
    if len(lab) != section.n_base:
        raise PreconditionError(f"need one label per base point, got {len(lab)} labels for {section.n_base}")

    g, D = g_field(section), section.fiber_distances()
    K = bound_K(section)
    ils = global_ILS(section)

    items: list[Verdict] = []

    def record(key: str, slack: float, loc: str | None, note: str | None = None):
        if slack == -math.inf:  # nothing to compare (e.g. a single grid time)
            items.append(Verdict(f"suite_{key}", "PASS", None, None, note="no comparable grid pairs"))
        else:
            items.append(Verdict.from_slack(f"suite_{key}", slack, SLACK_TOLERANCE, loc, note))

    def skip(key: str, why: str):
        items.append(Verdict(f"suite_{key}", "SKIPPED", None, None, note=why))

    # items d, f, g and i are stated for s < t: a repeated grid time forms no pair;
    # f, g and i loop over these pairs, d takes a running minimum in their order
    pairs = [(i, j) for i in range(times.size) for j in range(i + 1, times.size) if times[i] < times[j]]

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

    # (b) quasi-minimizing sequences collapse onto the fiber of y as t -> 0: the
    # trace's last level in full, then the a-priori bound above its floor
    trace_times, slacks, _ = _trace_schedule(section)
    last, argmin_dist = _quasi_level(section, float(trace_times[-1]), slacks[-1], tau_tie=tau_tie)
    worst_final, loc_final = worst_case([(argmin_dist, "y", f"t={trace_times[-1]:g}")], lab)
    record(
        "b_quasi_minimizer",
        _quasi_excess_worst(section, worst_final - 1e-6, last),
        loc_final,
        note=f"final argmin fiber distance {worst_final:.3e}",
    )

    # at each sorted time, `check_axioms`' tables L(D / t) and rhs = 2 K sqrt(L(E / t)) serve items c, d and e:
    # (c) |u(x,t) - u(y,t)| <= rhs[x, y] and (d) u(y,t) <= rhs[x, y] + u(x,s) for s < t; (e) |u - g| <= C t with
    # C = max(|L(0)|, max |H|), where for speeds w >= 0 the computed L*(xi) = max over w of (xi w - L(w)) is
    # nondecreasing in xi (products and differences round monotonically): max |L*| is at xi = 0 or xi = ILS
    spatial, boundary = [], []  # items c and e: one case per time
    cross = _CrossTimeWorst(times, u, lab)

    def visit(ti: int, LW: Array, rhs: Array):
        t, ut = times[ti], u[ti]
        if math.isfinite(ils):  # W = D / t lives only in the comprehension
            ends = [np.abs((xi * W - LW).max(axis=1)) for W in [D / t] for xi in (0.0, ils)]
            C = np.fmax(abs(L0), np.maximum(*ends))
            boundary.append((np.abs(ut - g) - C * t, "y", f"t={t:g}"))
        spatial.append(worst_case([(np.abs(ut[:, None] - ut[None, :]) - rhs, "xy", f"t={t:g}")], lab))
        cross.add(ti, rhs)

    axioms = check_axioms(L, section, times, visit)
    if not axioms.passed:
        skip("c_spatial_estimate", "penalty axioms failed on this scenario")
        skip("d_cross_time_estimate", "penalty axioms failed on this scenario")
    else:
        record("c_spatial_estimate", *worst_case(((np.float64(w), "", loc) for w, loc in spatial), lab))
        record("d_cross_time_estimate", cross.worst, cross.loc)
    if not math.isfinite(ils):
        skip("e_boundary_rate", "global ILS estimate is infinite")
    else:
        record("e_boundary_rate", *worst_case(boundary, lab))

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
        # on Python floats, a bound that overflows saturates without a warning: FLOAT_MAX >= D+ keeps the verdict
        gaps = ((dp - min(2.0 * float(t) * ils, FLOAT_MAX), "y", f"t={t:g}") for t, dp in zip(times, iD_plus))
        record("h_speed_bound", *worst_case(gaps, lab))

    # (i) global time-Lipschitz bound |u(t) - u(s)| <= K^2 (s - t) / (2 t s)
    gaps = (
        (np.abs(model_u[ti] - model_u[si]) - K * K * (s - t) / (2.0 * t * s), "y", f"t={t:g},s={s:g}")
        for ti, si in pairs
        for t, s in [(times[ti], times[si])]
    )
    record("i_time_lipschitz", *worst_case(gaps, lab))

    return items, axioms


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
    times = as_floats(times, "times")
    if times.size == 0:
        raise PreconditionError("times must be nonempty")
    u, argmins = map(np.array, zip(*[evolve_all(section, L, float(t), tau_tie) for t in times]))
    iD_minus, iD_plus = _speeds(section.fiber_distances(), argmins)
    resid = np.full(u.shape, np.nan)
    flags = np.zeros(u.shape, dtype=bool)
    if hj_radius is not None and L.is_model_quadratic:
        for ti, t in enumerate(times):
            # L evolves like the model penalty, so u at t is the table's own row
            plain = hj_residuals(section, float(t), hj_radius, u=u[ti])[0]
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
