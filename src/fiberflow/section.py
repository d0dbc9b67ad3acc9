"""Sections of the quotient map and their intrinsic Lipschitz constants.

A section assigns to every base point y a point f(y) on the fiber over y.
The intrinsic constants compare the distance between two section values with
the distance from one section value to the *fiber* of the other point; that
asymmetry is what the probe at the bottom of this module quantifies.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, PreconditionError
from .geometry import (
    MIN_BLOCK_FLOATS,
    PRUNE_MARGIN,
    FiberedSpace,
    distances_to_fibers,
    fiber_groups,
    pairwise_distances,
    segment_distances,
)

Array = np.ndarray

DEFAULT_TAU_SEC = 1e-9
# floats in one difference block of `max_row_gaps`: 256 KB, a cache-sized block
GAP_BLOCK_FLOATS = 1 << 15
# floats in one block of `pair_differences`: 64 KB.  With blocks of 128 KB
# and more, the peak RSS of long check-two-line-400 benchmark runs grew by
# about 1 MB inside the compatibility scan
PAIR_BLOCK_FLOATS = 1 << 13
# `asymmetry_probe` lists a reverse-form triple when D[x, y] - D[x, z] - E[y, z] exceeds this
EXCESS_TOL = 1e-9


@dataclass(eq=False)
class Section:
    """Tabulated section f: one value per base point, values[i] on fiber i.

    The distance matrices D and E and the global ILS estimate are computed on
    first use and cached in the private fields; `values` must not change
    after construction.  E comes from `geometry.pairwise_distances` and D
    from `geometry.distances_to_fibers`, whose distances to points and to
    segments all sum in coordinate order; each build peaks near 2 m^2 floats.
    """

    space: FiberedSpace
    values: Array
    _fiber_dist: Array | None = field(default=None, repr=False, compare=False)
    _value_dist: Array | None = field(default=None, repr=False, compare=False)
    _ils: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.space.base_points.shape:
            raise GeometryError(f"section values must have shape {self.space.base_points.shape}")
        self.values = vals

    @property
    def n_base(self) -> int:
        return self.space.n_base

    def fiber_distances(self) -> Array:
        """Matrix D with D[i, j] = d(f(y_i), fiber_j).  Note D is not symmetric."""
        if self._fiber_dist is None:
            self._fiber_dist = distances_to_fibers(self.values, self.space.fibers)
        return self._fiber_dist

    def value_distances(self) -> Array:
        """Symmetric matrix E with E[i, j] = d(f(y_i), f(y_j))."""
        if self._value_dist is None:
            self._value_dist = pairwise_distances(self.values, self.values)
        return self._value_dist

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def base_index(section: Section, y) -> int:
    """y as an index of the base set, refused unless it is an integer in [0, m)."""
    if not (isinstance(y, numbers.Integral) and 0 <= y < section.n_base):
        raise PreconditionError(f"base index must be an integer in [0, {section.n_base}), got {y!r}")
    return int(y)


def g_field(section: Section) -> Array:
    """Scalar field g(y) = max over coordinates of f(y)."""
    return section.values.max(axis=1)


def validate_section(section: Section) -> Array:
    """Residuals r[i] = d(f(y_i), fiber_i): each value's distance to its own fiber."""
    return np.diagonal(section.fiber_distances()).copy()


def _ratios(section: Section) -> Array:
    """R[i, j] = d(f(y_i), f(y_j)) / d(f(y_i), fiber(y_j)) over ordered pairs.

    The supremum conventions live here: c/0 is inf for c > 0, while 0/0 and
    the diagonal enter as 0, neutral for a supremum of nonnegative ratios
    that starts at 0.
    """
    E = section.value_distances()
    with np.errstate(divide="ignore", invalid="ignore"):
        R = np.divide(E, section.fiber_distances())
    R[E == 0.0] = 0.0
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
    """Slopes at every radius from one padded member table per block of
    centres z: I[z] lists the ball around z and repeats z itself, a member
    of its own ball, up to the largest ball size w.  The repeats change no
    maximum, so ils[r, z] is the maximum of R[I[z], z] and ils_a[r, z] that
    of R[I[z]][:, I[z]], gathered for at most m^2 / w^2 centres at a time.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise PreconditionError("radius schedule must be nonempty")
    if not np.all((0 < radii) & (radii < np.inf)) or np.any(np.diff(radii) >= 0):
        raise PreconditionError("radii must be positive, finite and strictly decreasing")
    ILS = global_ILS(section)  # before R, so that its own ratio table is gone
    R = _ratios(section)
    base_dist = section.space.base_distance_matrix()
    m = section.n_base
    ils = np.zeros((radii.size, m))
    ils_a = np.zeros((radii.size, m))
    for ri, r in enumerate(radii):
        balls = base_dist.T <= r  # balls[z, y]: y lies in the ball around z
        sizes = balls.sum(axis=1)
        w = int(sizes.max())
        step = max(1, m * m // (w * w))  # centres per block: a gather of at most m^2 floats
        for z0 in range(0, m, step):
            z1 = min(m, z0 + step)
            centres = np.arange(z0, z1)
            k, y = np.nonzero(balls[z0:z1])
            offsets = np.cumsum(sizes[z0:z1]) - sizes[z0:z1]
            I = np.repeat(centres[:, None], w, axis=1)
            I[k, np.arange(k.size) - offsets[k]] = y
            ils[ri, z0:z1] = R[I, centres[:, None]].max(axis=1)
            ils_a[ri, z0:z1] = R[I[:, :, None], I[:, None, :]].max(axis=(1, 2))
    return SlopeReport(radii=radii, ils=ils, ils_a=ils_a, ILS=ILS, K=bound_K(section))


@dataclass
class AsymmetryReport:
    """Both orientations of the fiber-distance difference bound.

    The section-anchored form  d(f(y),F_x) - d(f(z),F_x) <= d(f(y),f(z))
    holds for every triple (worst slack reported); the fiber-anchored form
    d(f(x),F_y) - d(f(x),F_z) <= d(f(y),f(z)) can fail, and every failing
    triple is recorded as columns: the rows (x, y, z) of the (n, 3) int array
    `violations` in lexicographic order, with lhs[n] = D[x, y] - D[x, z] and
    rhs[n] = E[y, z].
    """

    first_form_worst: float
    first_form_argmax: tuple[int, int, int]
    violations: Array
    lhs: Array
    rhs: Array


def max_row_gaps(A: Array) -> Array:
    """G[i, j] = max over k of (A[i, k] - A[j, k]) in O(m^2) memory, equal bit
    for bit to a scan of every ordered pair of rows.

    IEEE subtraction rounds symmetrically: fl(a - b) = -fl(b - a) for every
    nonzero, non-NaN difference (Goldberg, "What every computer scientist
    should know about floating-point arithmetic", ACM Comput. Surv. 1991).
    So one difference block A[i] - A[j] over the rows j > i gives both
    orientations: its row maxima are G[i, j], and its negated row minima are
    G[j, i].  The lower-triangle entries that come out zero or NaN, where the
    sign of zero or the NaN payload depends on the orientation, are
    recomputed as A[j] - A[i].  The diagonal is computed, not assumed: the
    blocks start at j = i, and G[i, i] is NaN on a row holding inf or NaN.
    The rows j of one block fill GAP_BLOCK_FLOATS floats, so the block stays
    in cache between its minima and maxima.
    """
    A = np.ascontiguousarray(A, dtype=float)
    m, n = A.shape
    G = np.empty((m, m))
    step = max(1, min(m, GAP_BLOCK_FLOATS // max(1, n)))  # rows j per block
    buf = np.empty((step, n))
    for i in range(m):
        for j0 in range(i, m, step):
            j1 = min(m, j0 + step)
            block = np.subtract(A[i], A[j0:j1], out=buf[: j1 - j0])
            np.negative(block.min(axis=1), out=G[j0:j1, i])
            block.max(axis=1, out=G[i, j0:j1])  # last, so that G[i, i] is the maximum of A[i] - A[i]
    j, i = np.nonzero((G == 0.0) | (G != G))
    below = j > i  # the lower-triangle zeros and NaNs, recomputed in their own orientation
    j, i = j[below], i[below]
    for k in range(0, j.size, step):
        jk, ik = j[k : k + step], i[k : k + step]
        G[jk, ik] = (A[jk] - A[ik]).max(axis=1)
    return G


def pair_differences(A: Array, rows: Array, others: Array):
    """Yield (k, A[rows[k:k + s]] - A[others[k:k + s]]) for k = 0, s, 2s, ...:
    a scan of the selected row pairs of A in blocks of about
    PAIR_BLOCK_FLOATS floats, in the order of `rows` and `others`."""
    step = max(1, PAIR_BLOCK_FLOATS // max(1, A.shape[1]))  # pairs per block
    for k in range(0, len(rows), step):
        yield k, A[rows[k : k + step]] - A[others[k : k + step]]


def fiber_excess_bound(section: Section) -> Array:
    """H[y, z] >= sup over p in F_z of d(p, F_y), plus a rounding margin, so
    that the computed D[x, y] - D[x, z] is at most H[y, z] for every anchor x
    (the point of F_z nearest f(x) lies within that supremum of F_y).

    A point of F_z gives d(p, F_y) itself, the minimum over the pieces s of
    F_y of d(p, s).  A segment [a, b] of F_z gives the minimum over s of
    max(d(a, s), d(b, s)), since the distance to a piece is convex along
    [a, b].  The fibers F_y are taken in the groups of
    `geometry.fiber_groups`, and one `pairwise_distances` call per block of
    point sets, or `segment_distances` call per block of segment unions,
    gives the distances from the ends of every piece of every F_z to the
    block's pieces.  The max over the ends of a segment,
    the min over the c pieces of each F_y and the max over the pieces of
    each F_z are elementwise passes over strided views, one group of F_z at
    a time; no fiber is padded.  A block's distances hold about m^2 / 8
    floats, or MIN_BLOCK_FLOATS when that is more.  The margin is
    PRUNE_MARGIN times the largest distance or coordinate magnitude; it
    covers the rounding of D and of the bound.
    """
    D = section.fiber_distances()  # refuses an empty fiber first
    groups = fiber_groups(section.space.fibers)
    starts = np.cumsum([0] + [len(a) for _, _, a, _ in groups])  # group g owns the pieces starts[g]:starts[g + 1]
    pieces = int(starts[-1])
    first_segment = sum(len(a) for _, _, a, b in groups if b is a)  # the point pieces come first
    # rows: the first end of every piece, then the second ends of the segments
    rows = np.concatenate([a for _, _, a, _ in groups] + [b for _, _, a, b in groups if b is not a])
    m = section.n_base
    H = np.empty((m, m))
    for run, c, a, b in groups:
        step = max(1, max(m * m // 8, MIN_BLOCK_FLOATS) // (len(rows) * c))  # fibers F_y per block
        for k in range(0, len(run), step):
            cols = run[k : k + step]
            q = slice(k * c, (k + step) * c)
            d = pairwise_distances(rows, a[q]) if b is a else segment_distances(rows, a[q], b[q])
            np.maximum(d[first_segment:pieces], d[pieces:], out=d[first_segment:pieces])
            # d[n, y, j]: piece n of any F_z to piece j of F_y; min over j, then max over the pieces of each F_z
            d = d[:pieces].reshape(pieces, len(cols), c)
            nearest = d[..., 0]
            for j in range(1, c):
                np.minimum(nearest, d[..., j], out=nearest)
            for (zs, cz, _, _), z0, z1 in zip(groups, starts[:-1], starts[1:]):
                far = nearest[z0:z1].reshape(len(zs), cz, len(cols))
                for i in range(1, cz):
                    np.maximum(far[:, 0], far[:, i], out=far[:, 0])
                H[np.ix_(cols, zs)] = far[:, 0].T
    magnitudes = (np.abs(rows).max(), np.abs(section.values).max(), H.max(), D.max())
    H += PRUNE_MARGIN * float(max(magnitudes))
    return H


def asymmetry_probe(section: Section) -> AsymmetryReport:
    """The section-anchored form scans every triple.  The reverse form lists
    every (x, y, z) with D[x, y] - D[x, z] - E[y, z] > EXCESS_TOL, and scans
    the anchors x of a pair (y, z) only when H[y, z] - E[y, z] > EXCESS_TOL,
    H being `fiber_excess_bound`.  A skipped pair has no violating anchor,
    so the violations are those of a scan over all triples.  Each block of
    pairs appends its column chunks; one concatenation and one lexsort give
    the report's columns.
    """
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

    # reverse form: anchors x of the pairs (y, z) that the bound H does not clear
    excess = fiber_excess_bound(section)
    excess -= E
    ys, zs = np.nonzero(excess > EXCESS_TOL)
    chunks = [(np.empty(0, dtype=np.intp),) * 3 + (np.empty(0),) * 2]  # x, y, z, lhs, rhs
    for k, lhs in pair_differences(D.T, ys, zs):  # lhs[j, x] = D[x, ys[k + j]] - D[x, zs[k + j]]
        pair_y, pair_z = ys[k : k + len(lhs)], zs[k : k + len(lhs)]
        rhs = E[pair_y, pair_z]
        j, xs = np.nonzero(lhs - rhs[:, None] > EXCESS_TOL)
        chunks.append((xs, pair_y[j], pair_z[j], lhs[j, xs], rhs[j]))
    vx, vy, vz, lhs, rhs = map(np.concatenate, zip(*chunks))
    order = np.lexsort((vz, vy, vx))
    violations = np.column_stack((vx, vy, vz))[order]
    return AsymmetryReport(worst, (x, y, z), violations, lhs[order], rhs[order])
