"""Scenario files: the JSON data model tying spaces, sections, penalties and
evaluation grids together, plus the bundled scenario builders, whose
documents are read as a file is.

The schema (version 1) is documented in the README.  Loading performs three
stages with separate error types: JSON parsing (ScenarioFormatError with
line/column), structural checks against the schema (ScenarioFormatError
naming the offending field), and semantic validation of the geometry and the
section (ScenarioValidationError naming base ids).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import PreconditionError, ScenarioFormatError, ScenarioValidationError
from .geometry import DEFAULT_TAU_GEO, FiberGeometry, FiberedSpace, PointSet, SegmentUnion, SpaceReport, validate_space
from .lagrangian import (
    MODEL_QUADRATIC,
    POWER_DEFAULTS,
    SPEC_NAMES,
    XI_RESOLUTION_MAX,
    Lagrangian,
    lagrangian_from_spec,
    model_quadratic,
)
from .section import DEFAULT_TAU_SEC, FLOAT_MAX, Section, bound_K, validate_section
from .semigroup import DEFAULT_TAU_TIE, FD_STEP_SCALE

Array = np.ndarray

SCHEMA_VERSION = 1
# largest coordinate magnitude: squared coordinate differences stay below
# 2^1002, so the distance kernels' sums of squares cannot overflow
COORD_MAX = 2.0**500
# largest ambient dimension: a sum of KAPPA_MAX such squares stays below 2^1022
KAPPA_MAX = 2**20
# what a base id may not hold: the report CSVs' separators of columns, argmin ids, locations and quotes
ID_FORBIDDEN = frozenset(',;="')
# GridSpec's tolerance fields, which a document holds in grids.tolerances
TOLERANCES = ("tau_geo", "tau_sec", "tau_tie")


@dataclass
class GridSpec:
    """Evaluation grids and tolerances carried by a scenario.

    The fields are checked on construction, with the scenario file's field
    names in the messages, so that a file and a scenario built in code are
    refused alike; times, radii and tolerances are stored as floats.
    """

    times: list[float]
    xi_resolution: int = 101
    radii: list[float] = field(default_factory=lambda: [1.0])
    hj_radius: float | None = None
    hj_times: list[float] | None = None
    hj_base_stride: int = 1
    tau_geo: float = DEFAULT_TAU_GEO
    tau_sec: float = DEFAULT_TAU_SEC
    tau_tie: float = DEFAULT_TAU_TIE

    def __post_init__(self):
        times, radii, hj_times = self.times, self.radii, self.hj_times
        _expect(isinstance(times, list) and len(times) > 0, "grids.times: expected a nonempty list")
        _expect(all(_is_number(t) and t > 0 for t in times), "grids.times: times must be positive finite numbers")
        _expect(isinstance(radii, list) and radii, "grids.radii: expected a nonempty list")
        _expect(all(_is_number(r) and r > 0 for r in radii), "grids.radii: radii must be positive finite numbers")
        _expect(all(radii[i] > radii[i + 1] for i in range(len(radii) - 1)), "grids.radii: must be strictly decreasing")
        if hj_times is not None:
            _expect(
                isinstance(hj_times, list) and hj_times and all(_is_number(t) and t > 0 for t in hj_times),
                "grids.hj_times: expected a nonempty list of positive finite numbers",
            )
            self.hj_times = [float(t) for t in hj_times]
        if self.hj_radius is not None:
            _expect(
                _is_number(self.hj_radius) and self.hj_radius > 0, "grids.hj_radius: expected a positive finite number"
            )
            self.hj_radius = float(self.hj_radius)
        _expect(
            _is_count(self.xi_resolution) and self.xi_resolution <= XI_RESOLUTION_MAX,
            f"grids.xi_resolution: expected an integer in [1, {XI_RESOLUTION_MAX}]",
        )
        _expect(_is_count(self.hj_base_stride), "grids.hj_base_stride: expected an integer >= 1")
        for key in TOLERANCES:
            value = getattr(self, key)
            _expect(_is_number(value) and value >= 0, f"grids.tolerances.{key}: expected a finite number >= 0")
            setattr(self, key, float(value))
        self.times = [float(t) for t in times]
        self.radii = [float(r) for r in radii]

    def effective_hj_times(self) -> list[float]:
        return self.hj_times if self.hj_times is not None else self.times

    def effective_hj_radius(self) -> float:
        return self.hj_radius if self.hj_radius is not None else max(self.radii)


# the keys of a document's grids object besides tolerances, GridSpec's other
# fields, each mapped to whether a document must give it (it has no default)
_GRID_KEYS = {
    f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(GridSpec) if f.name not in TOLERANCES
}


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
            raise PreconditionError(f"unknown base id {base_id!r}") from None

    def space(self) -> FiberedSpace:
        return self.section().space

    def section(self) -> Section:
        if self._section is None:
            space = FiberedSpace(base_points=self.base_points, fibers=self.fibers)
            self._section = Section(space=space, values=self.section_values)
        return self._section

    def space_report(self) -> SpaceReport:
        """Foliation checks of the space at the scenario's `tau_geo`, run once."""
        if self._space_report is None:
            self._space_report = validate_space(self.space(), tau_geo=self.grids.tau_geo)
        return self._space_report

    def lagrangian(self) -> Lagrangian:
        return lagrangian_from_spec(self.lagrangian_spec)


def _expect(cond: bool, message: str, *args):
    """Raise ScenarioFormatError unless `cond`; with `args`, the message is
    message.format(*args), formatted only when it is raised."""
    if not cond:
        raise ScenarioFormatError(message.format(*args) if args else message)


def _is_number(v, bound: float = FLOAT_MAX) -> bool:
    """A JSON number of magnitude at most `bound` (default: a finite float);
    booleans are not numbers here."""
    return type(v) in (int, float) and -bound <= v <= bound


def _is_count(v) -> bool:
    return type(v) is int and v >= 1


def _points(rows, kappa: int, name) -> Array:
    """The JSON points `rows` as an (n, kappa) float array.

    A few whole-list passes check every row at once.  Only when they fail
    are the rows checked one by one, so that the error names the first bad
    row, `name(i)`.  max and min may skip a NaN, but then the sum is NaN;
    the sum of numbers within COORD_MAX is finite.
    """
    ok = set(map(type, rows)) <= {list} and set(map(len, rows)) <= {kappa}
    flat = list(itertools.chain.from_iterable(rows)) if ok else []
    if flat:
        ok = set(map(type, flat)) <= {int, float} and -COORD_MAX <= min(flat) and max(flat) <= COORD_MAX
        ok = ok and not math.isnan(sum(flat))
    if not ok:
        for i, row in enumerate(rows):
            _expect(isinstance(row, list) and len(row) == kappa, "{}: expected a list of {} numbers", name(i), kappa)
            bounded = all(_is_number(v, COORD_MAX) for v in row)
            _expect(bounded, "{}: coordinates must be numbers of magnitude at most 2^500", name(i))
    return np.array(rows, dtype=float).reshape(len(rows), kappa)


def _parse_fiber(raw, kappa: int, bid: str) -> FiberGeometry:
    _expect(isinstance(raw, dict), "fibers[{!r}]: fiber must be an object", bid)
    ftype = raw.get("type")
    data = raw.get("data")
    _expect(ftype in ("points", "segments"), "fibers[{!r}]: fiber type must be 'points' or 'segments'", bid)
    _expect(isinstance(data, list), "fibers[{!r}]: fiber data must be a list", bid)
    if ftype == "points":
        return PointSet(points=_points(data, kappa, lambda i: f"fibers[{bid!r}].data[{i}]"))
    ends = []  # both endpoints of each segment, in order
    name = lambda r: f"fibers[{bid!r}].data[{r // 2}][{r % 2}]"
    try:
        for i, seg in enumerate(data):
            pair = isinstance(seg, list) and len(seg) == 2
            _expect(pair, "fibers[{!r}].data[{}]: segment must be a pair of points", bid, i)
            ends += seg
    except ScenarioFormatError:
        _points(ends, kappa, name)  # a bad endpoint of an earlier segment is reported first
        raise
    return SegmentUnion(segments=_points(ends, kappa, name).reshape(len(data), 2, kappa))


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario a JSON document describes, or ScenarioFormatError naming
    the first bad field.  The lists of points are checked whole (`_points`),
    and the base ids are kept in a set beside their list, so a load is linear
    in the size of the document."""
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
    _expect(_is_count(kappa) and kappa <= KAPPA_MAX, f"kappa: expected an integer in [1, {KAPPA_MAX}]")

    base = doc.get("base")
    _expect(isinstance(base, list) and base, "base: expected a nonempty list")
    ids: list[str] = []
    known: set[str] = set()
    rows = []
    params: list[float | None] = []
    try:
        for i, rec in enumerate(base):
            _expect(isinstance(rec, dict), "base[{}]: expected an object", i)
            bid = rec.get("id")
            good = isinstance(bid, str) and bid and bid.isprintable() and ID_FORBIDDEN.isdisjoint(bid)
            _expect(good, "base[{}].id: expected a nonempty printable string without , ; = or \"", i)
            _expect(bid not in known, "base[{}].id: duplicate base id {!r}", i, bid)
            ids.append(bid)
            known.add(bid)
            rows.append(rec.get("point"))
            p = rec.get("param")
            if p is not None:
                _expect(_is_number(p), "base[{}].param: expected a finite number", i)
            params.append(None if p is None else float(p))
    except ScenarioFormatError:
        _points(rows, kappa, "base[{}].point".format)  # a bad point checked before the failed check comes first
        raise
    points = _points(rows, kappa, "base[{}].point".format)

    fibers_raw = doc.get("fibers")
    _expect(isinstance(fibers_raw, dict), "fibers: expected an object keyed by base id")
    for key in fibers_raw:
        _expect(key in known, "fibers[{!r}]: unknown base id", key)
    fibers = []
    for bid in ids:
        _expect(bid in fibers_raw, "fibers: missing fiber for base id {!r}", bid)
        fibers.append(_parse_fiber(fibers_raw[bid], kappa, bid))

    section_raw = doc.get("section")
    _expect(isinstance(section_raw, dict), "section: expected an object keyed by base id")
    for key in section_raw:
        _expect(key in known, "section[{!r}]: unknown base id", key)
    rows = []
    value_name = lambda i: f"section[{ids[i]!r}]"
    try:
        for bid in ids:
            _expect(bid in section_raw, "section: missing value for base id {!r}", bid)
            rows.append(section_raw[bid])
    except ScenarioFormatError:
        _points(rows, kappa, value_name)  # a bad value of an earlier base id is reported first
        raise
    values = _points(rows, kappa, value_name)

    lag = doc.get("lagrangian", {"name": MODEL_QUADRATIC, "params": {}})
    _expect(isinstance(lag, dict), "lagrangian: expected {name, params}")
    _expect(lag.get("name") in SPEC_NAMES, f"lagrangian.name: expected one of {', '.join(SPEC_NAMES)}")
    lag_params = lag.get("params", {}) or {}
    _expect(isinstance(lag_params, dict), "lagrangian.params: expected an object")
    if lag["name"] == "power":
        power = {**POWER_DEFAULTS, **lag_params}
        for key in POWER_DEFAULTS:
            _expect(_is_number(power[key]), f"lagrangian.params.{key}: expected a finite number")
        _expect(power["exponent"] >= 1, "lagrangian.params.exponent: expected a number >= 1")

    grids_raw = doc.get("grids")
    _expect(isinstance(grids_raw, dict), "grids: expected an object")
    given = {key: grids_raw.get(key) for key, required in _GRID_KEYS.items() if required or key in grids_raw}
    tol = grids_raw.get("tolerances", {})
    if not isinstance(tol, dict):
        # a document's times and radii are checked before its tolerances object, its other grid keys after it
        GridSpec(**{key: given[key] for key in ("times", "radii") if key in given})
        raise ScenarioFormatError("grids.tolerances: expected an object")
    grids = GridSpec(**given, **{key: tol[key] for key in TOLERANCES if key in tol})

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
        base_points=points,
        params=np.array(params, dtype=float) if has_params else None,
        fibers=tuple(fibers),
        section_values=values,
        lagrangian_spec={"name": lag["name"], "params": lag_params},
        grids=grids,
        reference_triple=dict(ref) if ref is not None else None,
    )


def distance_bound(scenario: Scenario) -> float:
    """D.max + span, where span, the diagonal of the section values' bounding
    box, bounds E.max without building E: a bound of every distance that
    `check` turns into a speed at time t by dividing by t, the largest being
    the compatibility bound's E + Dmax in `check_axioms`."""
    values = scenario.section_values
    span = math.dist(values.max(axis=0).tolist(), values.min(axis=0).tolist())
    return bound_K(scenario.section()) + span


def time_refusal(t: float, distance: float, penalties: dict[str, Lagrangian]) -> tuple[str | None, str] | None:
    """The one rule for the times `check` runs: None when it can evaluate a
    scenario whose `distance_bound` is `distance` at time t, else (name,
    reason), name being the key of the penalty that overflows (None for the
    step test) and reason the text that follows "time t" in a message.
    The step test: t > 0, the HJ step FD_STEP_SCALE t is not 0, and 2t (the
    pair scan divides by it, and it exceeds t + h) is finite.  The overflow
    test: w = distance / t, L(w) and the branch cost t L(w) are finite for
    each penalty; a factory |L| grows with the speed, so one evaluation decides."""
    if not (t > 0 and FD_STEP_SCALE * t > 0 and math.isfinite(2.0 * t)):  # NaN fails t > 0
        return None, "must be a finite number > 0 with 2t finite and a nonzero step sqrt(eps) t"
    w = distance / t
    with np.errstate(over="ignore", invalid="ignore"):  # np.power warns; Python floats overflow to inf silently
        for name, L in penalties.items():
            if not (math.isfinite(w) and math.isfinite(max(t, 1.0) * float(L.fn(w)))):
                return name, f"is too small: the {name} overflows at speed {w:.6g}"
    return None


def validate_scenario(scenario: Scenario) -> None:
    """Geometry and section validation; raises with offending base ids.  Then
    the extreme times of grids.times and grids.hj_times must pass
    `time_refusal`, and suite item i's bound must stay in the float range: an
    overflow would give NaN slacks, or an inf bound that passes any u."""
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
    residuals = validate_section(scenario.section())
    off_fiber = np.flatnonzero(residuals > scenario.grids.tau_sec)
    if off_fiber.size:
        bad = ", ".join(f"{scenario.base_ids[i]!r} (residual {residuals[i]:.3e})" for i in off_fiber.tolist())
        raise ScenarioValidationError(f"section values off their fibers: {bad}")
    distance, grids, model = distance_bound(scenario), scenario.grids, model_quadratic()
    checks = [("grids.times", grids.times, {"penalty": scenario.lagrangian(), "model penalty": model})]
    if grids.hj_times is not None:
        checks.append(("grids.hj_times", grids.hj_times, {"model penalty": model}))
    for field, times, penalties in checks:
        for t in sorted({min(times), max(times)}):
            refusal = time_refusal(t, distance, penalties)
            if refusal is not None:
                first = "lagrangian" if refusal[0] == "penalty" else field
                raise ScenarioValidationError(f"{first}: time {t!r} in {field} {refusal[1]}")
    # suite item i's K * K * (s - t) / (2.0 * t * s), K <= distance: the test above bounds only the quotient
    t, s = min(grids.times), max(grids.times)
    if t < s and not (math.isfinite(distance * distance * (s - t)) and 0.0 < 2 * t * t and math.isfinite(2 * s * s)):
        raise ScenarioValidationError(
            f"grids.times: suite item i's bound K^2 (s - t) / (2 t s) leaves the float range at K = {distance:.6g} "
            f"between times {t!r} and {s!r}"
        )


def _read(doc: dict) -> Scenario:
    """The scenario `doc` describes, parsed and validated: the one route by
    which a file and a bundled builder's document become a Scenario."""
    scenario = scenario_from_dict(doc)
    validate_scenario(scenario)
    return scenario


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
    return _read(doc)


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
    values = vars(scenario.grids)  # an unset hj_radius or hj_times (None) is left out
    grids = {key: values[key] for key in _GRID_KEYS if values[key] is not None}
    grids["tolerances"] = {key: values[key] for key in TOLERANCES}
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


def _bundled(name: str, description: str, rows, grids: dict, **extra) -> Scenario:
    """The scenario of a bundled builder's document, read as a file is.

    `rows` holds one (id, point, param, fiber points, section value) per base
    point, in order; every fiber is a point set, and kappa is the length of
    the points.  `extra` holds further top-level keys, such as reference_triple.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"name": name, "description": description},
        "kappa": len(rows[0][1]),
        "base": [{"id": bid, "point": point, "param": param} for bid, point, param, _, _ in rows],
        "fibers": {bid: {"type": "points", "data": fiber} for bid, _, _, fiber, _ in rows},
        "section": {bid: value for bid, _, _, _, value in rows},
        "grids": grids,
        **extra,
    }
    return _read(doc)


def two_point_scenario() -> Scenario:
    """Two base points with singleton fibers at the section values.

    Closed forms: u(b0, t) = 0 and u(b1, t) = min(1, 1/t), with the kink at
    t = 1; the global intrinsic constant is exactly 1 and K = sqrt(2).
    """
    rows = [
        ("b0", [0.0, 0.0], 0.0, [[0.0, 0.0]], [0.0, 0.0]),
        ("b1", [1.0, 1.0], 1.0, [[1.0, 1.0]], [1.0, 1.0]),
    ]
    grids = {"times": [1.0, 1.5, 2.0, 4.0], "radii": [2.0, 1.0], "hj_radius": 2.0}
    return _bundled("two-point", "two singleton fibers on a line", rows, grids)


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
    rows = []
    for k, x in enumerate((np.arange(81) / 10.0).tolist()):
        upper = [x, 8.0]
        lower = [x, 3.0 + x / 2.0]
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
        rows.append((f"y{k:03d}", [x, 0.0], x, pts, value))
    grids = {
        "times": [0.01, 0.02, 0.03, 0.04],
        "radii": [0.35, 0.25, 0.15],
        "hj_radius": 0.05,
        "hj_times": [0.5, 1.0, 2.0, 4.0, 8.0],
        "hj_base_stride": 20,
    }
    return _bundled(
        "paper-counterexample",
        "two-line fibered set over an 81-point base segment with three pinned section values",
        rows,
        grids,
        reference_triple={"x": "y010", "y": "y070", "z": "y060", "stated_constant": math.sqrt(5.0 / 4.0)},
    )


def singleton_constant_scenario() -> Scenario:
    """Three singleton fibers whose section values share the same maximum
    coordinate, so the evolved field is constant in both arguments."""
    rows = [
        ("p0", [0.0, 0.0], 0.0, [[5.0, 0.0]], [5.0, 0.0]),
        ("p1", [1.0, 0.0], 1.0, [[5.0, 1.0]], [5.0, 1.0]),
        ("p2", [2.0, 0.0], 2.0, [[5.0, 2.0]], [5.0, 2.0]),
    ]
    grids = {"times": [0.5, 1.0, 2.0], "radii": [1.5], "hj_radius": 1.5}
    return _bundled("singleton-constant", "constant scalar field on singleton fibers", rows, grids)


def tie_scenario() -> Scenario:
    """Engineered exact tie: two minimizers at fiber distances 1 and 2."""
    rows = [
        ("a", [0.0], 0.0, [[0.0]], [0.0]),
        ("b", [10.0], 10.0, [[1.0], [-1.5]], [-1.5]),
        ("c", [20.0], 20.0, [[2.0], [-3.0]], [-3.0]),
    ]
    grids = {"times": [1.0], "radii": [15.0], "hj_radius": 0.5}
    return _bundled("tie", "two exact-tie minimizers at distinct fiber distances", rows, grids)


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
    base_points = _jittered_lattice(rng, n, kappa, spacing=1.0, jitter=0.2).tolist()
    centers = _jittered_lattice(rng, n, kappa, spacing=2.5, jitter=0.2)
    rows = []
    for i in range(n):
        n_pts = int(rng.integers(1, 4))
        pts = (centers[i] + rng.uniform(-0.4, 0.4, size=(n_pts, kappa))).tolist()
        rows.append((f"r{i:02d}", base_points[i], float(i), pts, pts[0]))
    grids = {"times": np.sort(rng.uniform(0.3, 5.0, size=3)).tolist(), "radii": [4.0, 2.0], "hj_radius": 0.25}
    return _bundled(f"random-{seed}", "seeded random scenario", rows, grids)
