"""Fibered subsets of R^kappa and exact point-to-fiber distances.

The quotient map pi: X -> Y is represented by its finite data: an ordered
list of base points sampled from Y together with one fiber geometry per base
point (the sample of pi^{-1}(y)).  A fiber is either a finite point set or a
finite union of line segments: a list of pieces.  This module alone splits
fibers into pieces (`fiber_groups`) and measures distances to them, exactly
(`segment_distances`, `pairwise_distances` for points), summing in
coordinate order so that every distance has the same bits on every CPU.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import GeometryError

Array = np.ndarray

DEFAULT_TAU_GEO = 1e-9
# Relative margin (4096 ulps) by which a pruning bound must clear its
# threshold before a pair is skipped; it covers the rounding of the computed
# distances, a few ulps of the magnitudes involved.
PRUNE_MARGIN = 2.0**-40
# floats in the smallest block of `distances_to_fibers` (256 KB), so that a
# few-point load makes one block
MIN_BLOCK_FLOATS = 1 << 15


def _as_float_array(data, name: str) -> Array:
    arr = np.asarray(data, dtype=float)
    if arr.size and not np.isfinite(arr).all():
        raise GeometryError(f"{name} contains non-finite coordinates")
    return arr


@dataclass(frozen=True, eq=False)
class PointSet:
    """Fiber sampled as a finite set of points, shape (n, kappa)."""

    points: Array

    def __post_init__(self):
        arr = _as_float_array(self.points, "PointSet.points")
        if arr.ndim != 2:
            raise GeometryError("PointSet.points must be a 2-d array (n, kappa)")
        object.__setattr__(self, "points", arr)

    @property
    def kappa(self) -> int:
        return self.points.shape[1]

    @property
    def is_empty(self) -> bool:
        return self.points.shape[0] == 0


@dataclass(frozen=True, eq=False)
class SegmentUnion:
    """Fiber given as a union of segments, shape (n, 2, kappa)."""

    segments: Array

    def __post_init__(self):
        arr = _as_float_array(self.segments, "SegmentUnion.segments")
        if arr.ndim != 3 or arr.shape[1] != 2:
            raise GeometryError("SegmentUnion.segments must have shape (n, 2, kappa)")
        object.__setattr__(self, "segments", arr)

    @property
    def kappa(self) -> int:
        return self.segments.shape[2]

    @property
    def is_empty(self) -> bool:
        return self.segments.shape[0] == 0

    def degenerate_segments(self) -> list[int]:
        """Indices of segments whose endpoints coincide."""
        if self.is_empty:
            return []
        gaps = np.linalg.norm(self.segments[:, 0] - self.segments[:, 1], axis=1)
        return [int(i) for i in np.nonzero(gaps == 0.0)[0]]


FiberGeometry = Union[PointSet, SegmentUnion]


def pairwise_distances(P: Array, Q: Array) -> Array:
    """Euclidean distances between the rows of P (m, kappa) and Q (n, kappa),
    kappa >= 1.

    The squared coordinate differences are summed in coordinate order into
    one (m, n) array, and one sqrt follows: no (m, n, kappa) temporaries, and
    no BLAS or pairwise reduction whose order of sums depends on the CPU or
    on kappa.  For kappa < 8 this is np.linalg.norm(P[:, None] - Q[None],
    axis=2) bit for bit, since numpy sums fewer than 8 terms in order.
    """
    m, kappa = P.shape
    out = np.empty((m, Q.shape[0]))
    Qt = np.ascontiguousarray(Q.T)
    np.subtract(P[:, 0, None], Qt[0], out=out)
    np.multiply(out, out, out=out)
    term = np.empty_like(out) if kappa > 1 else None
    for k in range(1, kappa):
        np.subtract(P[:, k, None], Qt[k], out=term)
        np.multiply(term, term, out=term)
        np.add(out, term, out=out)
    return np.sqrt(out, out=out)


def segment_distances(points: Array, a: Array, b: Array) -> Array:
    """d[n, q] = |p - (a + s (b - a))| for p = points[n], a = a[q], b = b[q],
    with the clamped projection s = (p - a).(b - a) / |b - a|^2 in [0, 1]
    (Ericson, Real-Time Collision Detection, 2005, 5.1.2), or s = 0 where
    b = a; every sum in coordinate order, in three (n, q) arrays.  When no
    piece has length, this is `pairwise_distances(points, a)`."""
    ab = b - a
    if not ab.any():
        return pairwise_distances(points, a)
    denom = ab[:, 0] * ab[:, 0]
    for k in range(1, ab.shape[1]):
        denom += ab[:, k] * ab[:, k]
    at, abt = np.ascontiguousarray(a.T), np.ascontiguousarray(ab.T)
    s = np.empty((points.shape[0], a.shape[0]))
    term = np.empty_like(s)
    np.subtract(points[:, 0, None], at[0], out=s)
    np.multiply(s, abt[0], out=s)
    for k in range(1, len(at)):
        np.subtract(points[:, k, None], at[k], out=term)
        np.multiply(term, abt[k], out=term)
        np.add(s, term, out=s)
    flat = denom == 0.0
    np.divide(s, np.where(flat, 1.0, denom), out=s)  # faster than a masked divide
    s[:, flat] = 0.0
    np.clip(s, 0.0, 1.0, out=s)
    out = np.empty_like(s)
    for k in range(len(at)):
        gap = out if k == 0 else term
        np.multiply(s, abt[k], out=gap)
        np.add(at[k], gap, out=gap)
        np.subtract(points[:, k, None], gap, out=gap)
        np.multiply(gap, gap, out=gap)
        if k:
            np.add(out, gap, out=out)
    return np.sqrt(out, out=out)


def fiber_groups(fibers) -> list[tuple[list[int], int, Array, Array]]:
    """The fibers grouped by kind and piece count, point sets first: one
    (indices, c, a, b) per group, with the group's fiber indices in order,
    their piece count c and the ends a[q], b[q] of their pieces, c rows per
    fiber.  A point is a piece whose b is a, the same array."""
    runs = {}
    for j, fib in enumerate(fibers):
        segment = isinstance(fib, SegmentUnion)
        runs.setdefault((segment, len(fib.segments if segment else fib.points)), []).append(j)
    groups = []
    for (segment, c), run in sorted(runs.items()):
        ends = np.concatenate([fibers[j].segments if segment else fibers[j].points for j in run])
        groups.append((run, c, ends[:, 0], ends[:, 1]) if segment else (run, c, ends, ends))
    return groups


def distances_to_fibers(points: Array, fibers) -> Array:
    """Matrix D with D[i, j] = distance from points[i] to fibers[j].

    The groups of `fiber_groups` are taken in blocks of whole fibers holding
    about m/4 pieces (at least MIN_BLOCK_FLOATS / 2m), so that a block's
    distances and temporaries stay near m^2 floats: one `pairwise_distances`
    or `segment_distances` call per block, then c - 1 elementwise np.minimum
    passes over strided views of its columns for fibers of c pieces.
    """
    if any(fib.is_empty for fib in fibers):
        raise GeometryError("cannot compute distances to an empty fiber")
    m = points.shape[0]
    D = np.empty((m, len(fibers)))
    per_block = max(m // 4, MIN_BLOCK_FLOATS // max(1, 2 * m))  # fiber pieces per block
    for run, c, a, b in fiber_groups(fibers):
        step = max(1, per_block // c)  # fibers per block
        for k in range(0, len(run), step):
            cols = run[k : k + step]
            q = slice(k * c, (k + step) * c)
            d = pairwise_distances(points, a[q]) if b is a else segment_distances(points, a[q], b[q])
            d = d.reshape(m, len(cols), c)  # d[:, n, i]: piece i of fiber cols[n]
            nearest = d[..., 0]
            for i in range(1, c):
                np.minimum(nearest, d[..., i], out=nearest)
            contiguous = cols[-1] - cols[0] == len(cols) - 1  # a slice writes far faster than a column list
            D[:, slice(cols[0], cols[-1] + 1) if contiguous else cols] = nearest
    return D


def _dot(u: Array, v: Array) -> float:
    """u . v summed in coordinate order (see `segment_distances`)."""
    total = 0.0  # not the builtin sum, which compensates float sums
    for a, b in zip(u, v):
        total += a * b
    return float(total)


def _norm(v: Array) -> float:
    # np.linalg.norm of a 1-d vector is sqrt(v @ v), a BLAS sum
    return math.sqrt(_dot(v, v))


def segment_segment_distance(p1: Array, q1: Array, p2: Array, q2: Array) -> float:
    """Minimal distance between segments p1-q1 and p2-q2 (any dimension)."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    f = _dot(d2, r)
    if a == 0.0 and e == 0.0:
        return _norm(r)
    if a == 0.0:
        t = min(1.0, max(0.0, f / e))
        return _norm(p1 - (p2 + t * d2))
    c = _dot(d1, r)
    if e == 0.0:
        s = min(1.0, max(0.0, -c / a))
        return _norm(p1 + s * d1 - p2)
    b = _dot(d1, d2)
    denom = a * e - b * b
    s = min(1.0, max(0.0, (b * f - c * e) / denom)) if denom != 0.0 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(1.0, max(0.0, -c / a))
    elif t > 1.0:
        t = 1.0
        s = min(1.0, max(0.0, (b - c) / a))
    return _norm(p1 + s * d1 - (p2 + t * d2))


def fiber_min_distance(fa: FiberGeometry, fb: FiberGeometry) -> float:
    """Minimal distance between two fibers (exact for points and segments)."""
    if fa.is_empty or fb.is_empty:
        raise GeometryError("cannot compute distance between empty fibers")
    if isinstance(fb, PointSet):
        fa, fb = fb, fa
    if isinstance(fa, PointSet):
        _, _, a, b = fiber_groups([fb])[0]
        return float(segment_distances(fa.points, a, b).min())
    best = np.inf
    for a1, b1 in fa.segments:
        for a2, b2 in fb.segments:
            best = min(best, segment_segment_distance(a1, b1, a2, b2))
    return float(best)


@dataclass(frozen=True, eq=False)
class FiberedSpace:
    """Finite sample of a fibered space: base points of Y in R^kappa, an
    (m, kappa) array, plus one fiber each.

    Immutable after construction; the base-distance matrix is computed on
    first use by `pairwise_distances` (the m x m result and one m x m
    temporary) and cached in the private field.
    """

    base_points: Array
    fibers: tuple[FiberGeometry, ...]
    _base_dist: Array | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = _as_float_array(self.base_points, "base_points")
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] < 1:
            raise GeometryError(f"base_points need m >= 1 rows, and kappa must be at least 1; got shape {pts.shape}")
        if len(self.fibers) != pts.shape[0]:
            raise GeometryError("need exactly one fiber per base point")
        for i, fib in enumerate(self.fibers):
            if fib.kappa != pts.shape[1]:
                raise GeometryError(f"fiber {i} has ambient dimension {fib.kappa} != {pts.shape[1]}")
        object.__setattr__(self, "base_points", pts)
        object.__setattr__(self, "fibers", tuple(self.fibers))

    @property
    def n_base(self) -> int:
        return self.base_points.shape[0]

    def base_distance_matrix(self) -> Array:
        """Matrix of Euclidean distances between base points; the cached
        array is shared, so callers must not write to it."""
        if self._base_dist is None:
            object.__setattr__(self, "_base_dist", pairwise_distances(self.base_points, self.base_points))
        return self._base_dist


@dataclass
class SpaceReport:
    """Outcome of the foliation checks; failures are carried, not raised."""

    duplicate_base_pairs: list[tuple[int, int]]
    empty_fibers: list[int]
    degenerate_segments: list[tuple[int, int]]
    overlaps: list[tuple[int, int, float]]

    @property
    def ok(self) -> bool:
        return (
            not self.duplicate_base_pairs
            and not self.empty_fibers
            and not self.overlaps
            and not self.degenerate_segments
        )


def _box_candidates(fibers: list[FiberGeometry], tau_geo: float) -> list[tuple[int, int]]:
    """Sorted index pairs (i < j) of nonempty fibers whose axis-aligned boxes
    lie closer than `tau_geo` plus PRUNE_MARGIN times the largest coordinate
    magnitude, by a sort-and-sweep of the boxes along the axis where their
    lower corners spread most (Cohen et al., I-COLLIDE, 1995).  The boxes
    are plain lists: per-call numpy overhead would dominate few-fiber loads."""
    lo, hi = [], []
    for f in fibers:
        rows = (f.points if isinstance(f, PointSet) else f.segments.reshape(-1, f.kappa)).tolist()
        lo.append(list(map(min, *rows)) if len(rows) > 1 else rows[0])  # per-axis minimum
        hi.append(list(map(max, *rows)) if len(rows) > 1 else rows[0])
    reach = tau_geo + PRUNE_MARGIN * max(-min(map(min, lo)), max(map(max, hi)), tau_geo)
    spreads = [top - bottom for bottom, top in zip(map(min, *lo), map(max, *lo))]
    axis = spreads.index(max(spreads))
    keys = [box[axis] for box in lo]
    order = sorted(range(len(fibers)), key=keys.__getitem__)
    pairs = []
    for p, i in enumerate(order):
        stop = hi[i][axis] + reach
        for q in range(p + 1, len(order)):
            j = order[q]
            if keys[j] > stop:
                break
            gap2 = 0.0
            for lo_i, hi_i, lo_j, hi_j in zip(lo[i], hi[i], lo[j], hi[j]):
                gap = max(lo_j - hi_i, lo_i - hi_j, 0.0)
                gap2 += gap * gap
            if gap2 < reach * reach:
                pairs.append((min(i, j), max(i, j)))
    return sorted(pairs)


def _duplicate_pairs(points: Array) -> list[tuple[int, int]]:
    """Sorted index pairs (i < j) of base points with equal coordinates, -0.0
    counting equal to 0.0, from one sort of the rows (plain lists, as in
    `_box_candidates`).  The coordinates are finite (`FiberedSpace` refuses
    others), so these are the pairs at computed distance 0, except rows that
    differ only by less than 2^-537 per coordinate, whose squared differences
    underflow to 0."""
    rows = points.tolist()
    order = sorted(range(len(rows)), key=rows.__getitem__)  # stable: each run of equal rows ascends
    pairs = []
    for _, run in itertools.groupby(order, key=rows.__getitem__):
        pairs.extend(itertools.combinations(run, 2))
    return sorted(pairs)


def validate_space(space: FiberedSpace, tau_geo: float = DEFAULT_TAU_GEO) -> SpaceReport:
    """Check base-point distinctness and fiber disjointness; `FiberedSpace`
    and its fibers already refuse non-finite coordinates.

    Two fibers closer than `tau_geo` count as overlapping: the sampled
    quotient map would not foliate the ambient space.  The distance between
    two fibers is at least the distance between their axis-aligned boxes, so
    `fiber_min_distance` runs only on the pairs whose boxes lie closer than
    `tau_geo` plus a margin of PRUNE_MARGIN times the largest coordinate
    magnitude; the margin covers the rounding of the computed distances, whose
    closest points may stray a few ulps outside the boxes.  The overlaps are
    the same, in the same (i, j) order, as with a scan over all pairs.
    """
    duplicates = _duplicate_pairs(space.base_points)
    empty = [i for i, fib in enumerate(space.fibers) if fib.is_empty]
    degenerate = [
        (i, k) for i, fib in enumerate(space.fibers) if isinstance(fib, SegmentUnion) for k in fib.degenerate_segments()
    ]
    live = [i for i, fib in enumerate(space.fibers) if not fib.is_empty]
    overlaps = []
    if len(live) > 1:
        fibers = [space.fibers[i] for i in live]
        for a, b in _box_candidates(fibers, tau_geo):
            d = fiber_min_distance(fibers[a], fibers[b])
            if d < tau_geo:
                overlaps.append((live[a], live[b], d))
    return SpaceReport(
        duplicate_base_pairs=duplicates,
        empty_fibers=empty,
        degenerate_segments=degenerate,
        overlaps=overlaps,
    )
