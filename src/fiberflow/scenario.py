"""Scenario files: the JSON data model tying spaces, sections, penalties and
evaluation grids together, plus the bundled scenario builders.

The schema (version 1) is documented in the README.  Loading performs three
stages with separate error types: JSON parsing (ScenarioFormatError with
line/column), structural checks against the schema (ScenarioFormatError
naming the offending field), and semantic validation of the geometry and the
section (ScenarioValidationError naming base ids).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ScenarioFormatError, ScenarioValidationError
from .geometry import DEFAULT_TAU_GEO, FiberGeometry, FiberedSpace, PointSet, SegmentUnion, SpaceReport, validate_space
from .lagrangian import MODEL_QUADRATIC, SPEC_NAMES, Lagrangian, default_cert_grid, lagrangian_from_spec
from .section import DEFAULT_TAU_SEC, Section, validate_section
from .semigroup import DEFAULT_TAU_TIE

Array = np.ndarray

SCHEMA_VERSION = 1
_FLOAT_MAX = sys.float_info.max
# largest coordinate magnitude: squared coordinate differences stay below
# 2^1002, so the distance kernels' sums of squares cannot overflow
COORD_MAX = 2.0**500
# largest transform grid: one transform's xi-by-m score table stays under
# 2.6 m^2 floats at m = 1600
XI_RESOLUTION_MAX = 4096


@dataclass
class GridSpec:
    """Evaluation grids and tolerances carried by a scenario."""

    times: list[float]
    xi_resolution: int = 101
    radii: list[float] = field(default_factory=lambda: [1.0])
    hj_radius: float | None = None
    hj_times: list[float] | None = None
    hj_base_stride: int = 1
    tau_geo: float = DEFAULT_TAU_GEO
    tau_sec: float = DEFAULT_TAU_SEC
    tau_tie: float = DEFAULT_TAU_TIE

    def effective_hj_times(self) -> list[float]:
        return self.hj_times if self.hj_times is not None else self.times


@dataclass(eq=False)
class Scenario:
    name: str
    description: str
    kappa: int
    base_ids: list[str]
    base_points: Array
    params: Array | None
    fibers: tuple[FiberGeometry, ...]
    section_values: Array
    lagrangian_spec: dict
    grids: GridSpec
    reference_triple: dict | None = None
    _space: FiberedSpace | None = field(default=None, repr=False, compare=False)
    _section: Section | None = field(default=None, repr=False, compare=False)
    _space_report: SpaceReport | None = field(default=None, repr=False, compare=False)

    @property
    def n_base(self) -> int:
        return len(self.base_ids)

    @property
    def report_prefix(self) -> str:
        """Prefix of the scenario's report file names."""
        return self.name.replace(" ", "-")

    def id_index(self, base_id: str) -> int:
        try:
            return self.base_ids.index(base_id)
        except ValueError:
            raise ScenarioValidationError(f"unknown base id {base_id!r}") from None

    def space(self) -> FiberedSpace:
        if self._space is None:
            self._space = FiberedSpace(kappa=self.kappa, base_points=self.base_points, fibers=self.fibers)
        return self._space

    def section(self) -> Section:
        if self._section is None:
            self._section = Section(space=self.space(), values=self.section_values)
        return self._section

    def space_report(self) -> SpaceReport:
        """Foliation checks of the space at the scenario's `tau_geo`, run once."""
        if self._space_report is None:
            self._space_report = validate_space(self.space(), tau_geo=self.grids.tau_geo)
        return self._space_report

    def lagrangian(self) -> Lagrangian:
        D = self.section().fiber_distances()
        w_max = float(D.max()) / min(self.grids.times) if self.grids.times else 10.0
        return lagrangian_from_spec(self.lagrangian_spec, cert_grid=default_cert_grid(w_max))


def _expect(cond: bool, message: str):
    if not cond:
        raise ScenarioFormatError(message)


def _is_number(v, bound: float = _FLOAT_MAX) -> bool:
    """A JSON number of magnitude at most `bound` (default: a finite float);
    booleans are not numbers here."""
    return type(v) in (int, float) and -bound <= v <= bound


def _is_count(v) -> bool:
    return type(v) is int and v >= 1


def _as_point(value, kappa: int, where: str) -> list[float]:
    _expect(isinstance(value, list) and len(value) == kappa, f"{where}: expected a list of {kappa} numbers")
    _expect(
        all(_is_number(v, COORD_MAX) for v in value), f"{where}: coordinates must be numbers of magnitude at most 2^500"
    )
    return [float(v) for v in value]


def _parse_fiber(raw, kappa: int, where: str) -> FiberGeometry:
    _expect(isinstance(raw, dict), f"{where}: fiber must be an object")
    ftype = raw.get("type")
    data = raw.get("data")
    _expect(ftype in ("points", "segments"), f"{where}: fiber type must be 'points' or 'segments'")
    _expect(isinstance(data, list), f"{where}: fiber data must be a list")
    if ftype == "points":
        pts = [_as_point(p, kappa, f"{where}.data[{i}]") for i, p in enumerate(data)]
        return PointSet(points=np.array(pts, dtype=float).reshape(len(pts), kappa))
    segs = []
    for i, seg in enumerate(data):
        _expect(isinstance(seg, list) and len(seg) == 2, f"{where}.data[{i}]: segment must be a pair of points")
        segs.append([_as_point(seg[0], kappa, f"{where}.data[{i}][0]"), _as_point(seg[1], kappa, f"{where}.data[{i}][1]")])
    return SegmentUnion(segments=np.array(segs, dtype=float).reshape(len(segs), 2, kappa))


def scenario_from_dict(doc: dict) -> Scenario:
    _expect(isinstance(doc, dict), "top level: expected a JSON object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION, f"schema_version: expected {SCHEMA_VERSION}")
    meta = doc.get("meta", {})
    _expect(isinstance(meta, dict), "meta: expected an object")
    name = str(meta.get("name", "unnamed"))
    # the name prefixes the report files, so it must stay a single path component
    _expect(
        name not in ("", ".", "..") and not any(c in name for c in "/\\\0"),
        "meta.name: expected a file name (not empty, '.' or '..', and no '/', '\\' or NUL)",
    )
    kappa = doc.get("kappa")
    _expect(_is_count(kappa), "kappa: expected a positive integer")

    base = doc.get("base")
    _expect(isinstance(base, list) and base, "base: expected a nonempty list")
    ids: list[str] = []
    points: list[list[float]] = []
    params: list[float | None] = []
    for i, rec in enumerate(base):
        _expect(isinstance(rec, dict), f"base[{i}]: expected an object")
        bid = rec.get("id")
        _expect(isinstance(bid, str) and bid, f"base[{i}].id: expected a nonempty string")
        _expect(bid not in ids, f"base[{i}].id: duplicate base id {bid!r}")
        ids.append(bid)
        points.append(_as_point(rec.get("point"), kappa, f"base[{i}].point"))
        p = rec.get("param")
        if p is not None:
            _expect(_is_number(p), f"base[{i}].param: expected a finite number")
        params.append(None if p is None else float(p))

    fibers_raw = doc.get("fibers")
    _expect(isinstance(fibers_raw, dict), "fibers: expected an object keyed by base id")
    for key in fibers_raw:
        _expect(key in ids, f"fibers[{key!r}]: unknown base id")
    fibers = []
    for bid in ids:
        _expect(bid in fibers_raw, f"fibers: missing fiber for base id {bid!r}")
        fibers.append(_parse_fiber(fibers_raw[bid], kappa, f"fibers[{bid!r}]"))

    section_raw = doc.get("section")
    _expect(isinstance(section_raw, dict), "section: expected an object keyed by base id")
    for key in section_raw:
        _expect(key in ids, f"section[{key!r}]: unknown base id")
    values = []
    for bid in ids:
        _expect(bid in section_raw, f"section: missing value for base id {bid!r}")
        values.append(_as_point(section_raw[bid], kappa, f"section[{bid!r}]"))

    lag = doc.get("lagrangian", {"name": MODEL_QUADRATIC, "params": {}})
    _expect(isinstance(lag, dict), "lagrangian: expected {name, params}")
    _expect(lag.get("name") in SPEC_NAMES, f"lagrangian.name: expected one of {', '.join(SPEC_NAMES)}")
    lag_params = lag.get("params", {}) or {}
    _expect(isinstance(lag_params, dict), "lagrangian.params: expected an object")
    if lag["name"] == "power":
        for key in ("exponent", "scale"):
            _expect(_is_number(lag_params.get(key, 1.0)), f"lagrangian.params.{key}: expected a finite number")
        _expect(lag_params.get("exponent", 2.0) >= 1, "lagrangian.params.exponent: expected a number >= 1")

    grids_raw = doc.get("grids")
    _expect(isinstance(grids_raw, dict), "grids: expected an object")
    times = grids_raw.get("times")
    _expect(isinstance(times, list) and len(times) > 0, "grids.times: expected a nonempty list")
    _expect(all(_is_number(t) and t > 0 for t in times), "grids.times: times must be positive finite numbers")
    radii = grids_raw.get("radii", [1.0])
    _expect(isinstance(radii, list) and radii, "grids.radii: expected a nonempty list")
    _expect(all(_is_number(r) and r > 0 for r in radii), "grids.radii: radii must be positive finite numbers")
    _expect(all(radii[i] > radii[i + 1] for i in range(len(radii) - 1)), "grids.radii: must be strictly decreasing")
    tol = grids_raw.get("tolerances", {})
    _expect(isinstance(tol, dict), "grids.tolerances: expected an object")
    hj_times = grids_raw.get("hj_times")
    if hj_times is not None:
        _expect(
            isinstance(hj_times, list) and hj_times and all(_is_number(t) and t > 0 for t in hj_times),
            "grids.hj_times: expected a nonempty list of positive finite numbers",
        )
        hj_times = [float(t) for t in hj_times]
    hj_radius = grids_raw.get("hj_radius")
    if hj_radius is not None:
        _expect(_is_number(hj_radius) and hj_radius > 0, "grids.hj_radius: expected a positive finite number")
    xi_resolution = grids_raw.get("xi_resolution", 101)
    _expect(
        _is_count(xi_resolution) and xi_resolution <= XI_RESOLUTION_MAX,
        f"grids.xi_resolution: expected an integer in [1, {XI_RESOLUTION_MAX}]",
    )
    hj_base_stride = grids_raw.get("hj_base_stride", 1)
    _expect(_is_count(hj_base_stride), "grids.hj_base_stride: expected an integer >= 1")
    taus = {"tau_geo": DEFAULT_TAU_GEO, "tau_sec": DEFAULT_TAU_SEC, "tau_tie": DEFAULT_TAU_TIE}
    taus = {key: tol.get(key, default) for key, default in taus.items()}
    for key, value in taus.items():
        _expect(_is_number(value) and value >= 0, f"grids.tolerances.{key}: expected a finite number >= 0")
    grids = GridSpec(
        times=[float(t) for t in times],
        xi_resolution=xi_resolution,
        radii=[float(r) for r in radii],
        hj_radius=None if hj_radius is None else float(hj_radius),
        hj_times=hj_times,
        hj_base_stride=hj_base_stride,
        **{key: float(value) for key, value in taus.items()},
    )

    ref = doc.get("reference_triple")
    if ref is not None:
        _expect(isinstance(ref, dict), "reference_triple: expected an object")
        for k in ("x", "y", "z"):
            _expect(ref.get(k) in ids, f"reference_triple.{k}: unknown base id")
        if "stated_constant" in ref:
            _expect(_is_number(ref["stated_constant"]), "reference_triple.stated_constant: expected a finite number")

    has_params = all(p is not None for p in params)
    return Scenario(
        name=name,
        description=str(meta.get("description", "")),
        kappa=kappa,
        base_ids=ids,
        base_points=np.array(points, dtype=float),
        params=np.array(params, dtype=float) if has_params else None,
        fibers=tuple(fibers),
        section_values=np.array(values, dtype=float),
        lagrangian_spec={"name": lag["name"], "params": lag_params},
        grids=grids,
        reference_triple=dict(ref) if ref is not None else None,
    )


def validate_scenario(scenario: Scenario) -> None:
    """Geometry and section validation; raises with offending base ids."""
    space_report = scenario.space_report()
    if not space_report.ok:
        parts = []
        for i, j in space_report.duplicate_base_pairs:
            parts.append(f"duplicate base points {scenario.base_ids[i]!r} and {scenario.base_ids[j]!r}")
        for i in space_report.empty_fibers:
            parts.append(f"empty fiber for base id {scenario.base_ids[i]!r}")
        for i, k in space_report.degenerate_segments:
            parts.append(f"degenerate segment {k} in fiber {scenario.base_ids[i]!r}")
        for i, j, d in space_report.overlaps:
            parts.append(
                f"fibers {scenario.base_ids[i]!r} and {scenario.base_ids[j]!r} overlap (distance {d:.3e})"
            )
        raise ScenarioValidationError("invalid fibered space: " + "; ".join(parts))
    section_report = validate_section(scenario.section(), tau_sec=scenario.grids.tau_sec)
    if not section_report.ok:
        bad = ", ".join(
            f"{scenario.base_ids[i]!r} (residual {section_report.residuals[i]:.3e})"
            for i in section_report.off_fiber
        )
        raise ScenarioValidationError(f"section values off their fibers: {bad}")


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileNotFoundError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    scenario = scenario_from_dict(doc)
    validate_scenario(scenario)
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    base = []
    for i, bid in enumerate(scenario.base_ids):
        rec = {"id": bid, "point": [float(v) for v in scenario.base_points[i]]}
        if scenario.params is not None:
            rec["param"] = float(scenario.params[i])
        base.append(rec)
    fibers = {}
    for bid, fib in zip(scenario.base_ids, scenario.fibers):
        if isinstance(fib, PointSet):
            fibers[bid] = {"type": "points", "data": [[float(v) for v in p] for p in fib.points]}
        else:
            fibers[bid] = {
                "type": "segments",
                "data": [[[float(v) for v in seg[0]], [float(v) for v in seg[1]]] for seg in fib.segments],
            }
    grids = {
        "times": scenario.grids.times,
        "xi_resolution": scenario.grids.xi_resolution,
        "radii": scenario.grids.radii,
        "hj_base_stride": scenario.grids.hj_base_stride,
        "tolerances": {
            "tau_geo": scenario.grids.tau_geo,
            "tau_sec": scenario.grids.tau_sec,
            "tau_tie": scenario.grids.tau_tie,
        },
    }
    if scenario.grids.hj_radius is not None:
        grids["hj_radius"] = scenario.grids.hj_radius
    if scenario.grids.hj_times is not None:
        grids["hj_times"] = scenario.grids.hj_times
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"name": scenario.name, "description": scenario.description},
        "kappa": scenario.kappa,
        "base": base,
        "fibers": fibers,
        "section": {bid: [float(v) for v in scenario.section_values[i]] for i, bid in enumerate(scenario.base_ids)},
        "lagrangian": scenario.lagrangian_spec,
        "grids": grids,
    }
    if scenario.reference_triple is not None:
        doc["reference_triple"] = scenario.reference_triple
    return doc


def write_scenario(scenario: Scenario, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# bundled scenarios


def two_point_scenario() -> Scenario:
    """Two base points with singleton fibers at the section values.

    Closed forms: u(b0, t) = 0 and u(b1, t) = min(1, 1/t), with the kink at
    t = 1; the global intrinsic constant is exactly 1 and K = sqrt(2).
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"name": "two-point", "description": "two singleton fibers on a line"},
        "kappa": 2,
        "base": [
            {"id": "b0", "point": [0.0, 0.0], "param": 0.0},
            {"id": "b1", "point": [1.0, 1.0], "param": 1.0},
        ],
        "fibers": {
            "b0": {"type": "points", "data": [[0.0, 0.0]]},
            "b1": {"type": "points", "data": [[1.0, 1.0]]},
        },
        "section": {"b0": [0.0, 0.0], "b1": [1.0, 1.0]},
        "lagrangian": {"name": "model-quadratic", "params": {}},
        "grids": {
            "times": [1.0, 1.5, 2.0, 4.0],
            "xi_resolution": 101,
            "radii": [2.0, 1.0],
            "hj_radius": 2.0,
            "tolerances": {"tau_geo": 1e-9, "tau_sec": 1e-9, "tau_tie": 1e-9},
        },
    }
    scenario = scenario_from_dict(doc)
    validate_scenario(scenario)
    return scenario


def paper_counterexample() -> Scenario:
    """Two-line scenario exhibiting the asymmetry of the fiber distance.

    The ambient set is the pair of segments (0,8)-(8,8) and (0,3)-(8,7); the
    base segment (0,0)-(8,0) is sampled at 81 points.  Fibers are the
    vertical slices of the two lines.  Three section values are pinned:
    f(1,0) = (1,4), f(7,0) = (8,7), f(6,0) = (8,6); those points are added to
    the fibers of their own base points so the section stays on its fibers
    (and (8,7) is removed from the slice at x = 8 to keep fibers disjoint).
    Everywhere else the section follows the lower line.

    The grid times sit below the first activation threshold of the evolution
    (about t = 0.05 here), where every base point is its own minimizer; this
    is the regime in which the finite pair-scan inequalities hold with no
    limit argument.
    """
    xs = np.arange(81) / 10.0
    ids = [f"y{k:03d}" for k in range(81)]
    base = [{"id": ids[k], "point": [float(xs[k]), 0.0], "param": float(xs[k])} for k in range(81)]
    fibers: dict[str, dict] = {}
    section: dict[str, list[float]] = {}
    for k, x in enumerate(xs):
        upper = [float(x), 8.0]
        lower = [float(x), 3.0 + float(x) / 2.0]
        pts = [upper, lower]
        value = lower
        if x == 1.0:
            value = [1.0, 4.0]
            pts = [upper, lower, value]
        elif x == 6.0:
            value = [8.0, 6.0]
            pts = [upper, lower, value]
        elif x == 7.0:
            value = [8.0, 7.0]
            pts = [upper, lower, value]
        elif x == 8.0:
            # the slice point (8,7) lives on the fiber of x=7; drop it here
            value = upper
            pts = [upper]
        fibers[ids[k]] = {"type": "points", "data": pts}
        section[ids[k]] = value
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": {
            "name": "paper-counterexample",
            "description": "two-line fibered set over an 81-point base segment with three pinned section values",
        },
        "kappa": 2,
        "base": base,
        "fibers": fibers,
        "section": section,
        "lagrangian": {"name": "model-quadratic", "params": {}},
        "grids": {
            "times": [0.01, 0.02, 0.03, 0.04],
            "xi_resolution": 101,
            "radii": [0.35, 0.25, 0.15],
            "hj_radius": 0.05,
            "hj_times": [0.5, 1.0, 2.0, 4.0, 8.0],
            "hj_base_stride": 20,
            "tolerances": {"tau_geo": 1e-9, "tau_sec": 1e-9, "tau_tie": 1e-9},
        },
        "reference_triple": {
            "x": "y010",
            "y": "y070",
            "z": "y060",
            "stated_constant": math.sqrt(5.0 / 4.0),
        },
    }
    scenario = scenario_from_dict(doc)
    validate_scenario(scenario)
    return scenario


def singleton_constant_scenario() -> Scenario:
    """Three singleton fibers whose section values share the same maximum
    coordinate, so the evolved field is constant in both arguments."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"name": "singleton-constant", "description": "constant scalar field on singleton fibers"},
        "kappa": 2,
        "base": [
            {"id": "p0", "point": [0.0, 0.0], "param": 0.0},
            {"id": "p1", "point": [1.0, 0.0], "param": 1.0},
            {"id": "p2", "point": [2.0, 0.0], "param": 2.0},
        ],
        "fibers": {
            "p0": {"type": "points", "data": [[5.0, 0.0]]},
            "p1": {"type": "points", "data": [[5.0, 1.0]]},
            "p2": {"type": "points", "data": [[5.0, 2.0]]},
        },
        "section": {"p0": [5.0, 0.0], "p1": [5.0, 1.0], "p2": [5.0, 2.0]},
        "lagrangian": {"name": "model-quadratic", "params": {}},
        "grids": {
            "times": [0.5, 1.0, 2.0],
            "xi_resolution": 101,
            "radii": [1.5],
            "hj_radius": 1.5,
            "tolerances": {"tau_geo": 1e-9, "tau_sec": 1e-9, "tau_tie": 1e-9},
        },
    }
    scenario = scenario_from_dict(doc)
    validate_scenario(scenario)
    return scenario


def tie_scenario() -> Scenario:
    """Engineered exact tie: two minimizers at fiber distances 1 and 2."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"name": "tie", "description": "two exact-tie minimizers at distinct fiber distances"},
        "kappa": 1,
        "base": [
            {"id": "a", "point": [0.0], "param": 0.0},
            {"id": "b", "point": [10.0], "param": 10.0},
            {"id": "c", "point": [20.0], "param": 20.0},
        ],
        "fibers": {
            "a": {"type": "points", "data": [[0.0]]},
            "b": {"type": "points", "data": [[1.0], [-1.5]]},
            "c": {"type": "points", "data": [[2.0], [-3.0]]},
        },
        "section": {"a": [0.0], "b": [-1.5], "c": [-3.0]},
        "lagrangian": {"name": "model-quadratic", "params": {}},
        "grids": {
            "times": [1.0],
            "xi_resolution": 101,
            "radii": [15.0],
            "hj_radius": 0.5,
            "tolerances": {"tau_geo": 1e-9, "tau_sec": 1e-9, "tau_tie": 1e-9},
        },
    }
    scenario = scenario_from_dict(doc)
    validate_scenario(scenario)
    return scenario


def _jittered_lattice(rng, count: int, kappa: int, spacing: float, jitter: float) -> Array:
    """`count` points with pairwise gaps >= spacing - 2*jitter, any dimension."""
    per_axis = int(math.ceil(count ** (1.0 / kappa))) + 1
    axes = [np.arange(per_axis, dtype=float) * spacing] * kappa
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, kappa)
    mesh -= mesh.mean(axis=0)
    idx = rng.permutation(mesh.shape[0])[:count]
    return mesh[idx] + rng.uniform(-jitter, jitter, size=(count, kappa))


def random_scenario(seed: int) -> Scenario:
    """Seeded valid scenario: well-separated fiber clusters, section values on
    their own fibers, model penalty.  Used by the randomized property runs."""
    rng = np.random.default_rng(seed)
    kappa = int(rng.integers(1, 4))
    n = int(rng.integers(3, 9))
    base_points = _jittered_lattice(rng, n, kappa, spacing=1.0, jitter=0.2)
    centers = _jittered_lattice(rng, n, kappa, spacing=2.5, jitter=0.2)
    fibers = []
    values = []
    for i in range(n):
        n_pts = int(rng.integers(1, 4))
        pts = centers[i] + rng.uniform(-0.4, 0.4, size=(n_pts, kappa))
        fibers.append(PointSet(points=pts))
        values.append(pts[0])
    times = np.sort(rng.uniform(0.3, 5.0, size=3))
    scenario = Scenario(
        name=f"random-{seed}",
        description="seeded random scenario",
        kappa=kappa,
        base_ids=[f"r{i:02d}" for i in range(n)],
        base_points=base_points,
        params=np.arange(n, dtype=float),
        fibers=tuple(fibers),
        section_values=np.array(values),
        lagrangian_spec={"name": "model-quadratic", "params": {}},
        grids=GridSpec(times=[float(t) for t in times], radii=[4.0, 2.0], hj_radius=0.25),
    )
    validate_scenario(scenario)
    return scenario
