"""Sections of the quotient map and their intrinsic Lipschitz constants.

A section assigns to every base point y a point f(y) on the fiber over y.
The intrinsic constants compare the distance between two section values with
the distance from one section value to the *fiber* of the other point; that
asymmetry is what the probe at the bottom of this module quantifies.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, PreconditionError
from .geometry import PRUNE_MARGIN, FiberedSpace, columns, distances_to_fibers, fiber_groups, pairwise_distances

Array = np.ndarray

DEFAULT_TAU_SEC = 1e-9
# floats in one difference block of `first_form_scan`: 256 KB, a cache-sized block
GAP_BLOCK_FLOATS = 1 << 15
# floats in one block of `pair_differences`: 64 KB.  With blocks of 128 KB
# and more, the peak RSS of long check-two-line-400 benchmark runs grew by
# about 1 MB inside the compatibility scan
PAIR_BLOCK_FLOATS = 1 << 13
# `asymmetry_probe` lists a reverse-form triple when D[x, y] - D[x, z] - E[y, z] exceeds this
EXCESS_TOL = 1e-9
# slack checks pass at a worst slack <= this; `asymmetry_probe` scans the first form only above it
SLACK_TOLERANCE = 1e-9
# arguments are checked `<= FLOAT_MAX`, not `< inf`: a Python int too large for a float compares below inf
FLOAT_MAX = float(np.finfo(float).max)


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
            self._fiber_dist = distances_to_fibers(self.values, fiber_groups(self.space.fibers))
        return self._fiber_dist

    def value_distances(self) -> Array:
        """Symmetric matrix E with E[i, j] = d(f(y_i), f(y_j))."""
        if self._value_dist is None:
            self._value_dist = pairwise_distances(self.values, self.values)
        return self._value_dist

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def checked_index(i, n: int, what: str = "base index") -> int:
    """i as an index of n items, refused unless it is an integer in [0, n)."""
    if not (isinstance(i, numbers.Integral) and 0 <= i < n):
        raise PreconditionError(f"{what} must be an integer in [0, {n}), got {i!r}")
    return int(i)


def as_floats(values, what: str) -> Array:
    """`values` as a float array, refused when it holds a Python int too large for a float."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise PreconditionError(f"{what} must be finite, got a Python int too large for a float") from None


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
    a single-point base set has no pairs and yields 0, the supremum of no
    ratios under the convention of `_ratios`, which leaves the readers of
    [0, ILS] nothing to tabulate.  The value is cached on the section.
    """
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
    radii = as_floats(radii, "radii")
    if radii.size == 0 or not np.all((0 < radii) & (radii < np.inf)) or np.any(np.diff(radii) >= 0):
        raise PreconditionError("radii must be positive, finite, strictly decreasing and nonempty")
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

    The section-anchored form d(f(y),F_x) - d(f(z),F_x) <= d(f(y),f(z))
    holds for every triple: `first_form_worst` is its rounding bound
    `first_form_bound` with `first_form_argmax` None, or, where that bound
    exceeds SLACK_TOLERANCE, the worst slack of `first_form_scan` and its
    location (x, y, z).  The fiber-anchored form
    d(f(x),F_y) - d(f(x),F_z) <= d(f(y),f(z)) can fail, and every failing
    triple is recorded as columns: the rows (x, y, z) of the (n, 3) int array
    `violations` in lexicographic order, with lhs[n] = D[x, y] - D[x, z] and
    rhs[n] = E[y, z].
    """

    first_form_worst: float
    first_form_argmax: tuple[int, int, int] | None
    first_form_bound: float
    violations: Array
    lhs: Array
    rhs: Array


def pair_differences(A: Array, rows: Array, others: Array):
    """Yield (k, A[rows[k:k + s]] - A[others[k:k + s]]) for k = 0, s, 2s, ...:
    a scan of the selected row pairs of A in blocks of about
    PAIR_BLOCK_FLOATS floats, in the order of `rows` and `others`."""
    step = max(1, PAIR_BLOCK_FLOATS // max(1, A.shape[1]))  # pairs per block
    for k in range(0, len(rows), step):
        yield k, A[rows[k : k + step]] - A[others[k : k + step]]


def first_form_bound(kappa: int, magnitude: float, segments: bool) -> float:
    """beta >= every computed first-form gap fl(fl(D[y, x] - D[z, x]) - E[y, z])
    of distances built by `geometry.pairwise_distances` and, if `segments`,
    by `geometry.segment_distances`, from coordinates in R^kappa of
    magnitude at most M = `magnitude`, with D <= M.  NaN or inf in M gives
    a beta that is not finite.

    In exact arithmetic the gap is at most 0, since the distance to a set
    is 1-Lipschitz (Burago, Burago & Ivanov, A Course in Metric Geometry,
    2001).  If e_D and e_E bound the absolute errors of D and E, the
    computed gap is at most (2 e_D + e_E + u M)(1 + u): u M covers the first
    subtraction, |D[y, x] - D[z, x]| <= M, and 1 + u the second.  Here
    u = 2^-53, gamma_n = n u / (1 - n u) as in Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed. (2002), ch. 3, and
    r = sqrt(kappa).

    Points: a squared difference carries 3 roundings and the in-order sum
    kappa - 1 more, on nonnegative terms, so the sum is exact times 1 + theta
    with |theta| <= gamma_{kappa+2}; the sqrt halves theta and rounds once,
    so a distance d is exact to gamma_{kappa+3} d.  Counting theta in full,
    not halved, leaves a slack that covers the second-order terms below and
    the roundings of beta itself.  A minimum over pieces keeps the bound,
    so e_D = gamma_{kappa+3} M, and E <= 2 r M gives e_E = 2 r gamma_{kappa+3} M.

    Segments: p is measured to q = fl(a + s fl(b - a)), s the clamped
    projection.  The numerator (p - a).(b - a) errs by gamma_{kappa+2}
    |p - a| |b - a| (Cauchy-Schwarz), the denominator by gamma_{kappa+2}
    relative and the division by u, and clamping is 1-Lipschitz, so s is
    within (2 gamma_{kappa+2} + u) |p - a| / |b - a| of the nearest point's
    parameter, whose distance the point a + s (b - a) exceeds by at most
    (2 gamma_{kappa+2} + u) |p - a|.  q lies within gamma_3 |b - a| + u |q|
    of that point, and |p - a|, |b - a| <= 2 r M, |q| <= r M: a segment
    distance errs by at most (4 kappa + 17) u r M more than a point distance.

    Gradual underflow adds under kappa 2^-500 over the three distances: a
    square below 2^-1074 is lost, and a segment shorter than 2^-511, whose
    squared length is subnormal, may be measured from any of its points.
    So beta = C M + kappa 2^-500, with C about 12.6 eps on point fibers and
    48 eps with segments at kappa = 2.
    """
    u = 2.0**-53
    r = kappa**0.5
    gamma = (kappa + 3) * u / (1.0 - (kappa + 3) * u)
    e_D = gamma + (4 * kappa + 17) * u * r * segments  # the errors per unit of M
    e_E = 2.0 * r * gamma
    return (2.0 * e_D + e_E + u) * (1.0 + u) * magnitude + kappa * 2.0**-500


def fiber_excess_bound(section: Section) -> tuple[Array, float]:
    """H[y, z] >= sup over p in F_z of d(p, F_y), plus a rounding margin, so
    that the computed D[x, y] - D[x, z] is at most H[y, z] for every anchor x
    (the point of F_z nearest f(x) lies within that supremum of F_y), and
    the first form's rounding bound beta of `first_form_bound`.

    A point of F_z gives d(p, F_y) itself, and a segment [a, b] of F_z the
    minimum over the pieces s of F_y of max(d(a, s), d(b, s)): both are
    `geometry.distances_to_fibers` of the pieces' ends, with the far ends b
    for segments.  The fibers are grouped once, by `geometry.fiber_groups`;
    it runs on blocks of whole fibers F_z of one group, about m/2 pieces at
    a time, and H[:, z] is the maximum over the pieces of F_z.  The margin
    is PRUNE_MARGIN times M, the largest distance or coordinate magnitude;
    it covers the rounding of D and of the bound.  M also scales beta, which
    a NaN section value makes NaN.
    """
    D = section.fiber_distances()  # refuses an empty fiber first
    groups = fiber_groups(section.space.fibers)
    m = section.n_base
    H = np.empty((m, m))
    coordinates, segments = 0.0, False
    for run, c, a, b in groups:
        step = max(1, m // (2 * c))  # fibers F_z per block
        for k in range(0, len(run), step):
            zs, q = run[k : k + step], slice(k * c, (k + step) * c)
            d = distances_to_fibers(a[q], groups, None if b is a else b[q])  # d[n, y]: piece n of F_z to F_y
            H[:, columns(zs)] = d.reshape(len(zs), c, m).max(axis=1).T
            del d  # before the next block's distances
        coordinates = max(coordinates, np.abs(a).max(), np.abs(b).max())
        segments |= b is not a
    magnitudes = np.array([coordinates, np.abs(section.values).max(), H.max(), D.max()])
    H += PRUNE_MARGIN * float(np.nanmax(magnitudes))  # the fiber coordinates are finite
    return H, first_form_bound(section.values.shape[1], float(magnitudes.max()), segments)


def first_form_scan(section: Section) -> tuple[float, tuple[int, int, int]]:
    """The first form's worst slack over all triples, the maximum over
    (y, z) of max_x (D[y, x] - D[z, x]) - E[y, z], and its first location
    (x, y, z) in row-major order, as `np.argmax` gives it, NaN counting largest.

    One pass over the pairs z >= y, in blocks of GAP_BLOCK_FLOATS floats of
    D[y] - D[z], writes both orientations.  IEEE subtraction rounds
    symmetrically (Goldberg, ACM Comput. Surv. 1991), so max_x (D[z, x] - D[y, x])
    is minus a row minimum of the block; it is written before the row
    maximum, so that the diagonal reads +0.0, not -0.0.
    """
    m = section.n_base
    E = section.value_distances()
    D = section.fiber_distances()
    gaps = np.empty((m, m))  # gaps[y, z] = max_x fl(D[y, x] - D[z, x]), then minus E[y, z]
    step = max(1, GAP_BLOCK_FLOATS // m)  # rows z per block
    buf = np.empty((min(m, step), m))
    for y in range(m):
        for z0 in range(y, m, step):
            z1 = min(m, z0 + step)
            block = np.subtract(D[y], D[z0:z1], out=buf[: z1 - z0])
            np.negative(block.min(axis=1), out=gaps[z0:z1, y])
            block.max(axis=1, out=gaps[y, z0:z1])
    gaps -= E
    y, z = divmod(int(np.argmax(gaps)), m)
    return float(gaps[y, z]), (int(np.argmax(D[y] - D[z])), y, z)


def asymmetry_probe(section: Section) -> AsymmetryReport:
    """The first form holds by theorem: its verdict is the rounding bound
    beta from `fiber_excess_bound`, an O(m^2) certificate, and only a beta
    above SLACK_TOLERANCE or not finite runs the cubic `first_form_scan`.

    The reverse form lists every (x, y, z) with
    D[x, y] - D[x, z] - E[y, z] > EXCESS_TOL, and scans the anchors x of a
    pair (y, z) only when H[y, z] - E[y, z] > EXCESS_TOL, H being
    `fiber_excess_bound`.  A skipped pair has no violating anchor, so the
    violations are those of a scan over all triples.  Each block of pairs
    appends its column chunks; one concatenation and one lexsort give the
    report's columns.
    """
    if section.n_base < 3:
        raise PreconditionError("asymmetry_probe needs at least 3 base points")
    E = section.value_distances()
    D = section.fiber_distances()
    excess, beta = fiber_excess_bound(section)
    worst, argmax = (beta, None) if beta <= SLACK_TOLERANCE else first_form_scan(section)

    # reverse form: anchors x of the pairs (y, z) that the bound H does not clear
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
    return AsymmetryReport(worst, argmax, beta, violations, lhs[order], rhs[order])
