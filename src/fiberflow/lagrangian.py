"""Convex penalty functions on R+, their certification, and the constrained
Fenchel-Legendre transform.

The transform is taken over the *achievable* speeds w = d(f(y), fiber(z)) / t
for z in the base set, so it is an exact finite maximum, and its domain
[0, ILS] is bounded by the section's global intrinsic Lipschitz estimate.
The Hamiltonian is the same transform under its classical name.  Both the
transform and the biconjugate are finite maxima taken by `conjugate`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .section import Section, base_index, bound_K, global_ILS, pair_differences

Array = np.ndarray

MODEL_QUADRATIC = "model-quadratic"
# the penalty names a scenario may carry; see lagrangian_from_spec
SPEC_NAMES = (MODEL_QUADRATIC, "power", "zero")
# Relative margin of the compatibility bound (see check_axioms): about 10^6
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
    `check_axioms` prunes its compatibility scan only for such penalties.
    The speeds L is certified on come from the scenario: `certification_grid`.
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
    w_max = float(section.fiber_distances().max()) / float(np.min(times))
    return np.linspace(0.0, max(w_max, 1e-6), 257)


def _half_square(v):
    return 0.5 * v * v


def model_quadratic() -> Lagrangian:
    """The model penalty L(v) = v^2 / 2, normalized so that t L(d/t) = d^2/(2t)."""
    return Lagrangian(fn=_half_square, nondecreasing_convex=True)


def _power_chain(v, n: int):
    """v^n for an integer n >= 1 by square-and-multiply, low bit of n first.

    v^3 = v * v^2, v^4 = v^2 * v^2, v^5 = v * v^4, v^6 = v^2 * v^4.  Each
    step is one correctly rounded IEEE multiplication, so the result is the
    same for a float and for an array, and on every CPU.
    """
    result = None
    while True:
        if n & 1:
            result = v if result is None else result * v
        n >>= 1
        if not n:
            return result
        v = v * v


def power_lagrangian(exponent: float, scale: float = 1.0) -> Lagrangian:
    """L(v) = scale * v^exponent / exponent, convex for finite exponent >= 1.

    Exponent 2 at scale 1 is the model penalty, `model_quadratic`.  Another
    integer exponent evaluates v^exponent by `_power_chain`, so L gives the
    same bits on every CPU.  Any other exponent goes through `np.power`,
    whose last bits may differ by CPU (numpy dispatches it to SIMD kernels).
    """
    if not 1 <= exponent < math.inf:
        raise PreconditionError(f"power_lagrangian needs a finite exponent >= 1 for convexity, got {exponent!r}")
    if not math.isfinite(scale):
        raise PreconditionError(f"power_lagrangian needs a finite scale, got {scale!r}")
    if exponent == 2.0 and scale == 1.0:
        return model_quadratic()
    if float(exponent).is_integer():
        n = int(exponent)
        fn = lambda v: scale * _power_chain(v, n) / exponent
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
        return power_lagrangian(float(params.get("exponent", 2.0)), float(params.get("scale", 1.0)))
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
    """Certify `L` against a concrete scenario, convexity on `certification_grid(section, t_list)`.

    A failed axiom does not raise; proposition checks that rely on the axiom
    are expected to skip when `passed` is false.

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
    are those of the full scan.  Any other penalty is scanned in full.
    """
    t_list = np.asarray(t_list, dtype=float)
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
    compat_worst = -math.inf
    witness = None
    for t in t_list:
        A = t * L(D / t)
        rhs = L(E / t)  # 2 K sqrt(L(E / t)) below, in place
        if np.any(rhs < 0):
            # sqrt undefined: treat as an axiom failure at this t
            compat_worst = math.inf
            witness = None
            continue
        np.sqrt(rhs, out=rhs)
        rhs *= 2.0 * K
        if L.nondecreasing_convex:
            bound = L((E + Dmax) / t)  # built in place into ub + margin - rhs
            bound *= t * (1.0 + COMPAT_MARGIN)
            bound -= t * L(Dmax / t)
            bound -= rhs
            scan = ~(bound < max(-rhs.diagonal().min(), compat_worst))
            del bound
        else:
            scan = np.ones(A.shape, dtype=bool)
        ys, xs = np.nonzero(scan)
        if ys.size == 0:
            continue
        lhs = np.empty(ys.size)
        for k, G in pair_differences(A, ys, xs):
            G.max(axis=1, out=lhs[k : k + len(G)])
        slack = lhs - rhs[ys, xs]  # row-major over the scanned pairs: the first maximum wins
        k = int(np.argmax(slack))
        if slack[k] > compat_worst:
            compat_worst = float(slack[k])
            y, x = int(ys[k]), int(xs[k])
            z = int(np.argmax(A[y] - A[x]))
            witness = (x, y, z, float(t))

    dvals = np.unique(D)
    scaling_worst = -math.inf
    ts = np.sort(t_list)
    for i, s in enumerate(ts):
        for t in ts[i + 1 :]:
            gap = t * L(dvals / t) - s * L(dvals / s)
            scaling_worst = max(scaling_worst, float(gap.max()))
    if not math.isfinite(scaling_worst):
        scaling_worst = 0.0  # single time value: nothing to compare

    return AxiomReport(
        convexity_worst=convex_worst,
        compatibility_worst=compat_worst,
        compatibility_witness=witness,
        scaling_worst=scaling_worst,
    )


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
    achievable_w: Array
    lstar: Array
    argmax_w: Array
    claim_linear: Array

    def claim_mismatch(self) -> Array:
        return np.abs(self.claim_linear - self.lstar) > CLAIM_TOL


def conjugate(xi_grid: Array, w: Array, Lw: Array) -> tuple[Array, Array]:
    """L*(xi) = max over the speeds w of (xi w - L(w)) at every xi of the grid,
    with the index of the first maximizing speed; Lw holds L(w).  With the
    roles swapped, (w, xi, L*) gives the biconjugate H*(w)."""
    scores = xi_grid[:, None] * w[None, :] - Lw[None, :]
    idx = np.argmax(scores, axis=1)
    return scores[np.arange(xi_grid.size), idx], idx


def legendre_transform(
    L: Lagrangian,
    section: Section,
    y: int,
    t: float,
    xi_grid: Array | None = None,
    xi_resolution: int = 101,
) -> TransformTable:
    """Exact finite-max transform over the achievable speeds at (y, t).

    With no explicit grid, xi samples [0, ILS] uniformly at `xi_resolution`
    points, an integer in [1, XI_RESOLUTION_MAX], ILS being the computable
    global estimate.
    """
    y = base_index(section, y)
    if not (0 < t < math.inf):  # NaN too
        raise PreconditionError("t must be positive and finite")
    w = np.sort(section.fiber_distances()[y] / t)  # the achievable speeds
    if xi_grid is None:
        ils = global_ILS(section)
        if not math.isfinite(ils):
            raise PreconditionError("default xi grid needs a finite ILS estimate")
        if not (isinstance(xi_resolution, numbers.Integral) and 1 <= xi_resolution <= XI_RESOLUTION_MAX):
            raise PreconditionError(f"xi_resolution must be an integer in [1, {XI_RESOLUTION_MAX}]")
        xi_grid = np.linspace(0.0, ils, xi_resolution)
    else:
        xi_grid = np.asarray(xi_grid, dtype=float)
        if xi_grid.size == 0 or not np.all((0 <= xi_grid) & (xi_grid < math.inf)):  # NaN too
            raise PreconditionError("xi grid must be nonnegative, finite and nonempty")
    Lw = L(w)
    lstar, idx = conjugate(xi_grid, w, Lw)  # w is sorted: idx is the smallest maximizing w
    K = bound_K(section)
    claim = xi_grid * (K / t) - float(Lw.min())
    return TransformTable(
        y_index=y,
        t=float(t),
        xi_grid=xi_grid,
        achievable_w=w,
        lstar=lstar,
        argmax_w=w[idx],
        claim_linear=claim,
    )


@dataclass
class BiconjugateTable:
    hstar: Array
    gap: Array  # L(w) - H*(w), nonnegative up to grid resolution


def biconjugate(
    L: Lagrangian,
    section: Section,
    y: int,
    t: float,
    w_grid: Array,
    xi_grid: Array | None = None,
    xi_resolution: int = 101,
) -> BiconjugateTable:
    """H*(w) = max over the xi grid of (xi w - H(xi)), compared with L(w).

    Only achievable speeds are allowed in `w_grid`; the one-sided inequality
    H* <= L is grid-exact, while equality appears only under refinement.
    """
    table = legendre_transform(L, section, y, t, xi_grid=xi_grid, xi_resolution=xi_resolution)
    w_grid = np.asarray(w_grid, dtype=float)
    bad = ~(np.abs(table.achievable_w - w_grid[:, None]).min(axis=1) <= 1e-12)  # NaN too
    if bad.any():
        raise PreconditionError(f"w={w_grid[bad][0]!r} is not an achievable speed at this (y, t)")
    hstar = conjugate(w_grid, table.xi_grid, table.lstar)[0]
    return BiconjugateTable(hstar=hstar, gap=L(w_grid) - hstar)
