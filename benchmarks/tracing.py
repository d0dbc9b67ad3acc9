"""Layer spans recorded from outside the program.

`Tracer.install` replaces each traced fiberflow function with a wrapper at
every module-level name bound to it, so internal callers that look the name
up in their own module (for example `evolution_table` calling `hj_residual`)
are traced too.  Methods are wrapped on their class.  Spans stay in memory
until `layer_metrics` reduces them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from fiberflow import geometry, lagrangian, reports, runner, scenario, section, semigroup, variational

# span name -> (module defining the function, attribute name)
FUNCTIONS = {
    "scenario.load": (scenario, "load_scenario"),
    "geometry.validate_space": (geometry, "validate_space"),
    "section.global_ILS": (section, "global_ILS"),
    "section.local_slopes": (section, "local_slopes"),
    "section.asymmetry_probe": (section, "asymmetry_probe"),
    "lagrangian.check_axioms": (lagrangian, "check_axioms"),
    "lagrangian.legendre_transform": (lagrangian, "legendre_transform"),
    "semigroup.evolution_table": (semigroup, "evolution_table"),
    "semigroup.hj_residual": (semigroup, "hj_residual"),
    "semigroup.evolve_all": (semigroup, "evolve_all"),
    "semigroup.proposition_suite": (semigroup, "proposition_suite"),
    "semigroup.quasi_minimizer_trace": (semigroup, "quasi_minimizer_trace"),
    "semigroup.slope_estimate_check": (semigroup, "slope_estimate_check"),
    "variational.solve_variational": (variational, "solve_variational"),
    "variational.minimize_interior": (variational, "minimize_interior"),
    "runner.run_check": (runner, "run_check"),
}
REPORT_WRITERS = (
    "write_evolution_csv",
    "write_slopes_csv",
    "write_transform_csv",
    "write_verdicts_json",
    "write_asymmetry_csv",
)
METHODS = {
    "geometry.base_distance_matrix": (geometry.FiberedSpace, "base_distance_matrix"),
    "section.fiber_distances": (section.Section, "fiber_distances"),
}
# the two triple scans, the only spans that run under tracemalloc
MEMORY_SPANS = ("section.asymmetry_probe", "lagrangian.check_axioms")

PER_LAYER = {
    "scenario.load_s": "s",
    "geometry.validate_space_s": "s",
    "geometry.validate_space_calls": "count",
    "geometry.base_distance_matrix_s": "s",
    "geometry.base_distance_matrix_calls": "count",
    "section.fiber_distances_s": "s",
    "section.global_ILS_s": "s",
    "section.local_slopes_s": "s",
    "section.asymmetry_probe_s": "s",
    "section.asymmetry_probe_peak_mb": "MB",
    "section.asymmetry_violations": "count",
    "lagrangian.check_axioms_s": "s",
    "lagrangian.check_axioms_peak_mb": "MB",
    "lagrangian.legendre_transform_s": "s",
    "lagrangian.legendre_transform_calls": "count",
    "semigroup.evolution_table_s": "s",
    "semigroup.hj_residual_s": "s",
    "semigroup.hj_residual_calls": "count",
    "semigroup.evolve_all_s": "s",
    "semigroup.evolve_all_calls": "count",
    "semigroup.proposition_suite_s": "s",
    "semigroup.quasi_minimizer_trace_s": "s",
    "semigroup.slope_estimate_check_s": "s",
    "variational.minimize_interior_s": "s",
    "variational.minimize_interior_calls": "count",
    "variational.sweeps": "count",
    "variational.converged_ratio": "ratio",
    "reports.write_s": "s",
    "reports.bytes": "B",
    "runner.run_check_self_s": "s",
    "trace.overhead_s": "s",
}


_MAX_SWEEPS_DEFAULT = inspect.signature(variational.minimize_interior).parameters["max_sweeps"].default


def _sweeps(result, kwargs):
    return result[1], kwargs.get("max_sweeps", _MAX_SWEEPS_DEFAULT)


# what a span keeps of its call; results are dropped otherwise, because some
# (the m x m matrices) would pile up over thousands of calls
EXTRACT = {
    "variational.minimize_interior": _sweeps,
    "section.asymmetry_probe": lambda result, kwargs: len(result.violations),
    **{f"reports.{w}": (lambda result, kwargs: Path(result).stat().st_size) for w in REPORT_WRITERS},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    child_s: float = 0.0
    peak_bytes: int = 0
    info: object = None

    @property
    def self_s(self) -> float:
        # children of one span never overlap: the program is single-threaded
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        memory = name in MEMORY_SPANS
        extract = EXTRACT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if memory:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
            if extract is not None:
                span.info = extract(result, kwargs)
            return result

        return traced

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start, end (seconds), parent index."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                rec = {"name": sp.name, "start": sp.start - t0, "end": sp.end - t0, "parent": sp.parent}
                fh.write(json.dumps(rec) + "\n")

    def _patch(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function at each fiberflow name bound to it."""
        targets = {name: getattr(mod, attr) for name, (mod, attr) in FUNCTIONS.items()}
        targets.update({f"reports.{w}": getattr(reports, w) for w in REPORT_WRITERS})
        modules = [m for key, m in sorted(sys.modules.items()) if key.startswith("fiberflow") and m is not None]
        for name, fn in targets.items():
            traced = self.wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, traced)
        for name, (cls, attr) in METHODS.items():
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(spans: list[Span], iterations: int, overhead_s: float) -> dict[str, float]:
    """Reduce spans to the PER_LAYER metrics, averaged per workload iteration."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    peak: dict[str, int] = {}
    for sp in spans:
        key = "reports.write" if sp.name.startswith("reports.") else sp.name
        self_s[key] = self_s.get(key, 0.0) + sp.self_s
        calls[key] = calls.get(key, 0) + 1
        peak[key] = max(peak.get(key, 0), sp.peak_bytes)

    out = {}
    for metric in PER_LAYER:
        if metric.endswith("_calls"):
            out[metric] = calls.get(metric[: -len("_calls")], 0) / iterations
        elif metric.endswith("_peak_mb"):
            out[metric] = peak.get(metric[: -len("_peak_mb")], 0) / 2**20
        elif metric.endswith("_s"):
            out[metric] = self_s.get(metric[: -len("_s")], 0.0) / iterations
    # the metrics the suffix rule above does not name
    minimize = [sp.info for sp in spans if sp.name == "variational.minimize_interior"]
    out["variational.sweeps"] = sum(sweeps for sweeps, _ in minimize) / iterations
    converged = sum(1 for sweeps, cap in minimize if sweeps < cap)
    out["variational.converged_ratio"] = converged / len(minimize) if minimize else 0.0
    out["section.asymmetry_violations"] = (
        sum(sp.info for sp in spans if sp.name == "section.asymmetry_probe") / iterations
    )
    out["reports.bytes"] = sum(sp.info for sp in spans if sp.name.startswith("reports.")) / iterations
    out["runner.run_check_self_s"] = self_s.get("runner.run_check", 0.0) / iterations
    out["trace.overhead_s"] = overhead_s
    return out
