"""Sections of the quotient map and their intrinsic Lipschitz constants.

A section assigns to every base point y a point f(y) on the fiber over y.
The intrinsic constants compare the distance between two section values with
the distance from one section value to the *fiber* of the other point; that
asymmetry is what the probe at the bottom of this module quantifies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, PreconditionError
from .geometry import FiberedSpace, fiber_distances_to_points

Array = np.ndarray

DEFAULT_TAU_SEC = 1e-9


@dataclass(eq=False)
class Section:
    """Tabulated section f: one value per base point, values[i] on fiber i.

    The distance matrices D and E and the global ILS estimate are computed on
    first use and cached in the private fields; `values` must not change
    after construction.
    """

    space: FiberedSpace
    values: Array
    _fiber_dist: Array | None = field(default=None, repr=False, compare=False)
    _value_dist: Array | None = field(default=None, repr=False, compare=False)
    _ils: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.space.n_base, self.space.kappa):
            raise GeometryError(
                f"section values must have shape ({self.space.n_base}, {self.space.kappa})"
            )
        self.values = vals

    @property
    def n_base(self) -> int:
        return self.space.n_base

    def fiber_distances(self) -> Array:
        """Matrix D with D[i, j] = d(f(y_i), fiber_j).  Note D is not symmetric."""
        if self._fiber_dist is None:
            cols = [fiber_distances_to_points(self.values, fib) for fib in self.space.fibers]
            self._fiber_dist = np.column_stack(cols)
        return self._fiber_dist

    def value_distances(self) -> Array:
        """Symmetric matrix E with E[i, j] = d(f(y_i), f(y_j))."""
        if self._value_dist is None:
            diffs = self.values[:, None, :] - self.values[None, :, :]
            self._value_dist = np.linalg.norm(diffs, axis=2)
        return self._value_dist

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def g_field(section: Section) -> Array:
    """Scalar field g(y) = max over coordinates of f(y)."""
    return section.values.max(axis=1)


@dataclass
class SectionReport:
    residuals: Array
    tau_sec: float
    off_fiber: list[int]

    @property
    def ok(self) -> bool:
        return not self.off_fiber


def validate_section(section: Section, tau_sec: float = DEFAULT_TAU_SEC) -> SectionReport:
    res = np.diagonal(section.fiber_distances()).copy()  # each value's distance to its own fiber
    off = [int(i) for i in np.nonzero(res > tau_sec)[0]]
    return SectionReport(residuals=res, tau_sec=tau_sec, off_fiber=off)


def _ratios(section: Section) -> Array:
    """R[i, j] = d(f(y_i), f(y_j)) / d(f(y_i), fiber(y_j)) over ordered pairs.

    The supremum conventions live here: c/0 is inf for c > 0, while 0/0 and
    the diagonal enter as 0, neutral for a supremum of nonnegative ratios
    that starts at 0.
    """
    E = section.value_distances()
    D = section.fiber_distances()
    with np.errstate(divide="ignore", invalid="ignore"):
        R = np.where(E == 0.0, 0.0, E / D)
    np.fill_diagonal(R, 0.0)
    return R


def global_ILS(section: Section) -> float:
    """Global intrinsic Lipschitz constant: sup over ordered pairs of
    d(f(y1), f(y2)) / d(f(y1), fiber(y2)).

    Returns inf when some pair has zero fiber distance but distinct values;
    a single-point base set has no pairs and yields 0 with a warning.
    The value is cached on the section.
    """
    if section.n_base < 2:
        warnings.warn("global_ILS is undefined on a single-point base set; returning 0")
        return 0.0
    if section._ils is None:
        section._ils = float(_ratios(section).max())
    return section._ils


def bound_K(section: Section) -> float:
    """Largest section-to-fiber distance over all ordered base pairs."""
    return float(section.fiber_distances().max())


@dataclass
class SlopeReport:
    """Local and asymptotic slope estimates at a decreasing radius schedule.

    ils[r, z] anchors the ratio at z (pairs y -> z with 0 < |y-z| <= r);
    ils_a[r, z] ranges over all ordered pairs inside the ball of radius r.
    Points with no neighbors at a radius get 0, following the convention for
    non-accumulation points.
    """

    radii: Array
    ils: Array
    ils_a: Array
    ILS: float
    K: float


def local_slopes(section: Section, radii) -> SlopeReport:
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise PreconditionError("radius schedule must be nonempty")
    if np.any(radii <= 0) or np.any(np.diff(radii) >= 0):
        raise PreconditionError("radii must be positive and strictly decreasing")
    R = _ratios(section)
    base_dist = section.space.base_distance_matrix()
    ils = np.zeros((radii.size, section.n_base))
    ils_a = np.zeros((radii.size, section.n_base))
    for ri, r in enumerate(radii):
        balls = base_dist <= r  # balls[y, z]: y lies in the ball around z
        ils[ri] = np.where(balls, R, 0.0).max(axis=0)
        ils_a[ri] = [R[np.ix_(ball, ball)].max() for ball in balls.T]
    return SlopeReport(
        radii=radii,
        ils=ils,
        ils_a=ils_a,
        ILS=global_ILS(section),
        K=bound_K(section),
    )


@dataclass
class AsymmetryViolation:
    x: int
    y: int
    z: int
    lhs: float
    rhs: float

    @property
    def excess(self) -> float:
        return self.lhs - self.rhs


@dataclass
class AsymmetryReport:
    """Both orientations of the fiber-distance difference bound.

    The section-anchored form  d(f(y),F_x) - d(f(z),F_x) <= d(f(y),f(z))
    holds for every triple (worst slack reported); the fiber-anchored form
    d(f(x),F_y) - d(f(x),F_z) <= d(f(y),f(z)) can fail, and every failing
    triple is recorded.
    """

    first_form_worst: float
    first_form_argmax: tuple[int, int, int]
    violations: list[AsymmetryViolation]


def max_row_gaps(A: Array) -> Array:
    """G[i, j] = max over k of (A[i, k] - A[j, k]), built one anchor row i at a
    time so that a scan over all triples needs O(m^2) memory."""
    return np.array([(row - A).max(axis=1) for row in A])


def asymmetry_probe(section: Section, excess_tol: float = 1e-9) -> AsymmetryReport:
    m = section.n_base
    if m < 3:
        raise PreconditionError("asymmetry_probe needs at least 3 base points")
    E = section.value_distances()
    D = section.fiber_distances()

    # first form: max over (y, z) of max_x (D[y,x] - D[z,x]) - E[y,z]
    gaps = max_row_gaps(D) - E
    yz = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    y, z = int(yz[0]), int(yz[1])
    x = int(np.argmax(D[y] - D[z]))
    worst = float(gaps[y, z])

    # reverse form: max over x of (D[x,y] - D[x,z]) - E[y,z]; subtraction is
    # monotone, so a pair exceeds the tolerance exactly when one of its anchors does
    bound = max_row_gaps(D.T) - E
    violations: list[AsymmetryViolation] = []
    for yi, zi in np.argwhere(bound > excess_tol):
        lhs = D[:, yi] - D[:, zi]
        for xi in np.nonzero(lhs - E[yi, zi] > excess_tol)[0]:
            violations.append(
                AsymmetryViolation(x=int(xi), y=int(yi), z=int(zi), lhs=float(lhs[xi]), rhs=float(E[yi, zi]))
            )
    violations.sort(key=lambda v: (v.x, v.y, v.z))
    return AsymmetryReport(first_form_worst=worst, first_form_argmax=(x, y, z), violations=violations)
