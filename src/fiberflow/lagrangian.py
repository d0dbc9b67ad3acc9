"""Convex penalty functions on R+, their certification, and the constrained
Fenchel-Legendre transform.

The transform is taken over the *achievable* speeds w = d(f(y), fiber(z)) / t
for z in the base set, so it is an exact finite maximum, and its domain
[0, ILS] is bounded by the section's global intrinsic Lipschitz estimate.
The Hamiltonian is the same transform under its classical name, a finite
maximum taken by `conjugate`.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import PreconditionError
from .section import FLOAT_MAX, Section, as_floats, bound_K, checked_index, global_ILS, pair_differences

Array = np.ndarray

MODEL_QUADRATIC = "model-quadratic"
# the penalty names a scenario may carry; see lagrangian_from_spec
SPEC_NAMES = (MODEL_QUADRATIC, "power", "zero")
# the power penalty's parameters where a spec leaves them out: the model penalty
POWER_DEFAULTS = {"exponent": 2.0, "scale": 1.0}
# Relative margin of the compatibility bound (see axiom_walk): about 10^6
# ulps of the larger penalty term, above the rounding of t L(D/t), which grows
# with the elasticity v L'(v) / L(v) of L (p for a power v^p).
COMPAT_MARGIN = 2.0**-32
# the largest worst slack with which each axiom passes
CONVEXITY_TOL = 1e-12
COMPATIBILITY_TOL = 1e-9
SCALING_TOL = 1e-12
# the largest |claim_linear - lstar| that counts as agreement
CLAIM_TOL = 1e-9
# largest transform grid: one transform's xi-by-m score table stays under 2.6 m^2 floats at m = 1600
XI_RESOLUTION_MAX = 4096


@dataclass(eq=False)
class Lagrangian:
    """Convex penalty L on R+: a function of the speed alone.

    `fn` must accept numpy arrays elementwise and a single float alike, with
    the same value for a float as for that float in an array; numpy ufuncs
    do.  The curve solver calls `fn` on floats directly.
    `nondecreasing_convex` declares, from L's closed form, that L is
    nondecreasing and convex on R+; only the factories below set it, and
    `axiom_walk` prunes its compatibility scan only for such penalties.
    """

    fn: Callable[[Array], Array]
    nondecreasing_convex: bool = False

    def __call__(self, w):
        return np.asarray(self.fn(np.asarray(w, dtype=float)), dtype=float)

    @property
    def is_model_quadratic(self) -> bool:
        """Whether L is the model penalty: its `fn` is this module's half-square function."""
        return self.fn is _half_square


def certification_grid(section: Section, times) -> Array:
    """257 speeds over [0, D.max() / min t] (at least 1e-6), the speeds the scenario reaches, where
    `check_axioms` certifies convexity and suite item (a) checks L >= 0."""
    w_max = bound_K(section) / float(np.min(times))
    return np.linspace(0.0, max(w_max, 1e-6), 257)


def _half_square(v):
    return 0.5 * v * v


def model_quadratic() -> Lagrangian:
    """The model penalty L(v) = v^2 / 2, normalized so that t L(d/t) = d^2/(2t)."""
    return Lagrangian(fn=_half_square, nondecreasing_convex=True)


@functools.lru_cache(maxsize=64)
def _power_factory(n: int):
    """`make(scale, exponent)`, giving v -> scale * v^n / exponent in one frame.

    v^n is square-and-multiply unrolled from the bits of n, low bit first:
    v^3 = v * v^2, v^4 = v^2 * v^2, v^5 = v * v^4, v^6 = v^2 * v^4.  Each
    step is one correctly rounded IEEE multiplication, so the result is the
    same for a float and for an array, and on every CPU.  The source holds
    only the chain's steps, so building it once per n costs O(log n).
    """
    steps, started = [], False
    while True:
        if n & 1:
            steps.append("r = r * v" if started else "r = v")
            started = True
        n >>= 1
        if not n:
            break
        steps.append("v = v * v")
    body = "".join(f"        {step}\n" for step in steps)
    namespace = {}
    exec(f"def make(scale, exponent):\n    def fn(v):\n{body}        return scale * r / exponent\n    return fn", namespace)
    return namespace["make"]


def power_lagrangian(exponent: float, scale: float = 1.0) -> Lagrangian:
    """L(v) = scale * v^exponent / exponent, convex for finite exponent >= 1.

    Exponent 2 at scale 1 is the model penalty, `model_quadratic`.  Another
    integer exponent evaluates v^exponent by the unrolled multiplication chain
    of `_power_factory`, so L gives the same bits on every CPU.  Any other
    exponent goes through `np.power`, whose last bits may differ by CPU (numpy
    dispatches it to SIMD kernels).
    """
    if not 1 <= exponent <= FLOAT_MAX:
        raise PreconditionError(f"power_lagrangian needs a finite exponent >= 1 for convexity, got {exponent!r}")
    if not -FLOAT_MAX <= scale <= FLOAT_MAX:
        raise PreconditionError(f"power_lagrangian needs a finite scale, got {scale!r}")
    if exponent == 2.0 and scale == 1.0:
        return model_quadratic()
    if float(exponent).is_integer():
        fn = _power_factory(int(exponent))(scale, exponent)
    else:
        fn = lambda v: scale * np.power(v, exponent) / exponent
    return Lagrangian(fn=fn, nondecreasing_convex=scale >= 0)


def zero_lagrangian() -> Lagrangian:
    return Lagrangian(fn=lambda v: np.zeros_like(np.asarray(v, dtype=float)), nondecreasing_convex=True)


def lagrangian_from_spec(spec: dict) -> Lagrangian:
    name = spec.get("name", MODEL_QUADRATIC)
    params = spec.get("params", {}) or {}
    if name == MODEL_QUADRATIC:
        return model_quadratic()
    if name == "power":
        power = {**POWER_DEFAULTS, **params}
        return power_lagrangian(float(power["exponent"]), float(power["scale"]))
    if name == "zero":
        return zero_lagrangian()
    raise PreconditionError(f"unknown lagrangian name {name!r}")


@dataclass
class AxiomReport:
    """Worst slacks of the three penalty axioms over a scenario.

    * convexity: midpoint inequality on all pairs of `certification_grid`
    * compatibility: t L(d(f(y),F_z)/t) - t L(d(f(x),F_z)/t)
      <= 2 K sqrt(L(d(f(y),f(x))/t)) over all triples and all t
    * time scaling: t L(D/t) <= s L(D/s) for 0 < s < t and achievable D

    An axiom passes when its worst slack is at most its tolerance constant.
    """

    convexity_worst: float
    compatibility_worst: float
    compatibility_witness: tuple[int, int, int, float] | None
    scaling_worst: float

    @property
    def passed(self) -> bool:
        return (
            self.convexity_worst <= CONVEXITY_TOL
            and self.compatibility_worst <= COMPATIBILITY_TOL
            and self.scaling_worst <= SCALING_TOL
        )


def check_axioms(L: Lagrangian, section: Section, t_list) -> AxiomReport:
    """Certify `L` against a concrete scenario: the report of `axiom_walk` once its frames are read."""
    report, frames = axiom_walk(L, section, t_list)
    collections.deque(frames, maxlen=0)  # read every frame, keeping none
    return report


def axiom_walk(L: Lagrangian, section: Section, t_list) -> tuple[AxiomReport, Iterator[tuple[Array, Array]]]:
    """The penalty-axiom report of `L` on a concrete scenario, final once every
    frame of its walk over t_list is read, and those frames (L(D / t), rhs) in
    order: rhs = 2 K sqrt(L(E / t)), or L(E / t) if it has a negative entry.  A
    time is scanned when the next frame is asked for; no failed axiom raises.

    The compatibility scan is cubic, lhs[y, x] = max over z of
    A[y, z] - A[x, z] with A = t L(D / t).  For a penalty declared
    `nondecreasing_convex` it skips the pairs that cannot reach the slack of
    the diagonal (y = x, where lhs is exactly 0), a lower bound of the
    maximum at every t.  Distance to a set is 1-Lipschitz, so
    D[y, z] <= D[x, z] + E[y, x], and the increments of a nondecreasing
    convex L grow with their base point, so with Dmax[x] = max over z of
    D[x, z]

        lhs[y, x] <= ub[y, x] = T[y, x] - t L(Dmax[x] / t),
        T[y, x] = t L((Dmax[x] + E[y, x]) / t).

    A pair is scanned unless ub + COMPAT_MARGIN * T - rhs lies below the
    diagonal's slack or the worst slack of the earlier times, which only a
    strictly larger slack replaces.  A skipped pair cannot attain or replace
    the maximum, so the worst slack and its first-wins witness (x, y, z, t)
    are those of the full scan.  Any other penalty is scanned in full.  A
    NaN slack is the worst: the first NaN, in time order and row-major
    within a time, keeps the witness, and no later time is scanned, so no
    pruning threshold is taken from a NaN.

    Time scaling takes t L(d / t) against the running minimum of s L(d / s)
    over earlier times: rounding is monotone, so it equals the pair maximum
    bit for bit.  Fewer than two distinct times give 0; an inf or NaN slack fails.
    """
    t_list = as_floats(t_list, "t_list")
    if t_list.size == 0 or not np.all((0 < t_list) & (t_list < math.inf)):  # NaN too
        raise PreconditionError("t_list must be nonempty and positive, with every time finite")

    grid = certification_grid(section, t_list)
    Lg = L(grid)
    mids = L((grid[:, None] + grid[None, :]) / 2.0)
    convex_worst = float((mids - (Lg[:, None] + Lg[None, :]) / 2.0).max())

    D = section.fiber_distances()
    E = section.value_distances()
    K = bound_K(section)
    Dmax = D.max(axis=1)

    dvals = np.unique(D)
    ts = np.unique(t_list)  # distinct times: the axiom compares s < t
    scaling_worst = 0.0 if ts.size < 2 else -math.inf  # fewer than two distinct times: nothing to compare
    low = ts[0] * L(dvals / ts[0])
    for t in ts[1:]:
        phi = t * L(dvals / t)
        scaling_worst = float(np.maximum(scaling_worst, (phi - low).max()))  # NaN propagates
        np.minimum(low, phi, out=low)
    report = AxiomReport(convex_worst, -math.inf, None, scaling_worst)

    def frames():
        worst, witness = -math.inf, None
        for t in t_list:
            LW = L(D / t)
            rhs = L(E / t)  # 2 K sqrt(L(E / t)) below, in place
            negative = np.any(rhs < 0)
            if not negative:
                np.sqrt(rhs, out=rhs)
                rhs *= 2.0 * K
            yield LW, rhs
            if negative and not math.isnan(worst):  # sqrt undefined: an axiom failure at this t
                worst, witness = math.inf, None
            if negative or math.isnan(worst):  # no later slack replaces the first NaN
                continue
            A = t * LW
            del LW
            if L.nondecreasing_convex:
                bound = L((E + Dmax) / t)  # built in place into ub + margin - rhs
                bound *= t * (1.0 + COMPAT_MARGIN)
                bound -= t * L(Dmax / t)
                bound -= rhs
                scan = ~(bound < max(-rhs.diagonal().min(), worst))
                del bound
            else:
                scan = np.ones(A.shape, dtype=bool)
            ys, xs = np.nonzero(scan)
            if ys.size:
                lhs = np.empty(ys.size)
                for k, G in pair_differences(A, ys, xs):
                    G.max(axis=1, out=lhs[k : k + len(G)])
                slack = lhs - rhs[ys, xs]  # row-major over the scanned pairs: the first maximum, or NaN, wins
                k = int(np.argmax(slack))
                if not slack[k] <= worst:
                    worst = float(slack[k])
                    y, x = int(ys[k]), int(xs[k])
                    witness = (x, y, int(np.argmax(A[y] - A[x])), float(t))
            del A, rhs, scan  # before the next frame is built
        report.compatibility_worst, report.compatibility_witness = worst, witness

    return report, frames()


@dataclass
class TransformTable:
    """Constrained Fenchel-Legendre transform of L at a fixed (y, t).

    `lstar[i] = max over achievable w of (xi_grid[i] * w - L(w))`, an exact
    finite maximum; `argmax_w` records the smallest maximizing achievable
    speed.  `claim_linear` tabulates xi*K/t - min L(w) for comparison (the
    identity it suggests does not hold in general and is reported, never
    asserted).
    """

    y_index: int
    t: float
    xi_grid: Array
    lstar: Array
    argmax_w: Array
    claim_linear: Array

    def claim_mismatch(self) -> Array:
        return np.abs(self.claim_linear - self.lstar) > CLAIM_TOL


def conjugate(xi_grid: Array, w: Array, Lw: Array) -> tuple[Array, Array]:
    """L*(xi) = max over the speeds w of (xi w - L(w)) at every xi of the grid,
    with the index of the first maximizing speed; Lw holds L(w)."""
    scores = xi_grid[:, None] * w[None, :] - Lw[None, :]
    idx = np.argmax(scores, axis=1)
    return scores[np.arange(xi_grid.size), idx], idx


def legendre_transform(
    L: Lagrangian,
    section: Section,
    y: int,
    t: float,
    xi_resolution: int = 101,
) -> TransformTable:
    """Exact finite-max transform over the achievable speeds at (y, t).

    xi samples [0, ILS] uniformly at `xi_resolution` points, an integer in
    [1, XI_RESOLUTION_MAX], ILS being the computable global estimate; an
    infinite ILS, or the 0 of a single base point, is refused.
    """
    y = checked_index(y, section.n_base)
    if not (0 < t <= FLOAT_MAX):  # NaN too
        raise PreconditionError(f"t must be positive and finite, got {t!r}")
    ils = global_ILS(section)
    if not (math.isfinite(ils) and ils != 0.0):
        raise PreconditionError(f"the xi grid [0, ILS] needs a finite nonzero ILS estimate, got ILS = {ils!r}")
    if not (isinstance(xi_resolution, numbers.Integral) and 1 <= xi_resolution <= XI_RESOLUTION_MAX):
        raise PreconditionError(f"xi_resolution must be an integer in [1, {XI_RESOLUTION_MAX}]")
    xi_grid = np.linspace(0.0, ils, xi_resolution)
    w = np.sort(section.fiber_distances()[y] / t)  # the achievable speeds
    Lw = L(w)
    lstar, idx = conjugate(xi_grid, w, Lw)  # w is sorted: idx is the smallest maximizing w
    K = bound_K(section)
    claim = xi_grid * (K / t) - float(Lw.min())
    return TransformTable(
        y_index=y,
        t=float(t),
        xi_grid=xi_grid,
        lstar=lstar,
        argmax_w=w[idx],
        claim_linear=claim,
    )
