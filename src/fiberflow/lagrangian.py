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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .section import Section, bound_K, global_ILS, pair_differences

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


@dataclass(eq=False)
class Lagrangian:
    """Convex penalty L on R+, supplied as a black box plus a certification grid.

    The certification grid records where the convexity and time-scaling
    properties were checked (see `check_axioms`); it is not used in
    evaluation.  `fn` must accept numpy arrays elementwise.
    `nondecreasing_convex` declares, from L's closed form, that L is
    nondecreasing and convex on R+; only the factories below set it, and
    `check_axioms` prunes its compatibility scan only for such penalties.
    """

    fn: Callable[[Array], Array]
    name: str
    cert_grid: Array
    nondecreasing_convex: bool = False

    def __post_init__(self):
        self.cert_grid = np.asarray(self.cert_grid, dtype=float)

    def __call__(self, w):
        return np.asarray(self.fn(np.asarray(w, dtype=float)), dtype=float)

    @property
    def is_model_quadratic(self) -> bool:
        return self.name == MODEL_QUADRATIC


def default_cert_grid(w_max: float = 10.0, n: int = 257) -> Array:
    return np.linspace(0.0, max(w_max, 1e-6), n)


def model_quadratic(cert_grid: Array | None = None) -> Lagrangian:
    """The model penalty L(v) = v^2 / 2, normalized so that t L(d/t) = d^2/(2t)."""
    grid = default_cert_grid() if cert_grid is None else cert_grid
    return Lagrangian(fn=lambda v: 0.5 * v * v, name=MODEL_QUADRATIC, cert_grid=grid, nondecreasing_convex=True)


def power_lagrangian(exponent: float, scale: float = 1.0, cert_grid: Array | None = None) -> Lagrangian:
    """L(v) = scale * v^exponent / exponent, convex for exponent >= 1."""
    if exponent < 1:
        raise PreconditionError("power_lagrangian needs exponent >= 1 for convexity")
    grid = default_cert_grid() if cert_grid is None else cert_grid
    name = MODEL_QUADRATIC if (exponent == 2.0 and scale == 1.0) else f"power-{exponent:g}"
    return Lagrangian(
        fn=lambda v: scale * np.power(v, exponent) / exponent,
        name=name,
        cert_grid=grid,
        nondecreasing_convex=scale >= 0,
    )


def zero_lagrangian(cert_grid: Array | None = None) -> Lagrangian:
    grid = default_cert_grid() if cert_grid is None else cert_grid
    return Lagrangian(
        fn=lambda v: np.zeros_like(np.asarray(v, dtype=float)), name="zero", cert_grid=grid, nondecreasing_convex=True
    )


def lagrangian_from_spec(spec: dict, cert_grid: Array | None = None) -> Lagrangian:
    name = spec.get("name", MODEL_QUADRATIC)
    params = spec.get("params", {}) or {}
    if name == MODEL_QUADRATIC:
        return model_quadratic(cert_grid)
    if name == "power":
        return power_lagrangian(float(params.get("exponent", 2.0)), float(params.get("scale", 1.0)), cert_grid)
    if name == "zero":
        return zero_lagrangian(cert_grid)
    raise PreconditionError(f"unknown lagrangian name {name!r}")


@dataclass
class AxiomReport:
    """Worst slacks of the three penalty axioms over a scenario.

    * convexity: midpoint inequality on all certification-grid pairs
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
    """Certify `L` against a concrete scenario.

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
    are those of the full scan.  Any other penalty is scanned in full,
    whatever its name.
    """
    t_list = np.asarray(t_list, dtype=float)
    if t_list.size == 0 or np.any(t_list <= 0):
        raise PreconditionError("t_list must be nonempty and positive")

    grid = np.unique(L.cert_grid)
    Lg = L(grid)
    mids = L((grid[:, None] + grid[None, :]) / 2.0)
    convex_worst = float((mids - (Lg[:, None] + Lg[None, :]) / 2.0).max()) if grid.size else 0.0

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
    points, ILS being the computable global estimate.
    """
    if t <= 0:
        raise PreconditionError("t must be positive")
    w = np.sort(section.fiber_distances()[y] / t)  # the achievable speeds
    if xi_grid is None:
        ils = global_ILS(section)
        if not math.isfinite(ils):
            raise PreconditionError("default xi grid needs a finite ILS estimate")
        xi_grid = np.linspace(0.0, ils, xi_resolution)
    else:
        xi_grid = np.asarray(xi_grid, dtype=float)
        if np.any(xi_grid < 0):
            raise PreconditionError("xi grid must be nonnegative")
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
