"""Deterministic report files: CSV tables and the JSON verdict list.

Every number has 12 significant digits, so identical inputs give
byte-identical files.  Rows follow the base order, then the times (or radii)
in the order given, unsorted, then increasing xi.  Each CSV writer formats
its rows with one "%"-template over whole columns; "%.12g" % x is the text
of fmt(x) for every float x.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .lagrangian import TransformTable
from .scenario import Scenario
from .section import AsymmetryReport, SlopeReport
from .semigroup import EvolutionTable


def fmt(x) -> str:
    """12 significant digits; inf, -inf, nan and integers render naturally."""
    return format(float(x), ".12g")


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_evolution_csv(path, scenario: Scenario, table: EvolutionTable) -> Path:
    T, m = table.u.shape
    # the argmin ids of every (y, t) row, from one pass over the masks in row order
    y, ti, z = np.nonzero(table.argmins.transpose(1, 0, 2))
    ids = [scenario.base_ids[k] for k in z.tolist()]
    cuts = np.cumsum(np.bincount(y * T + ti, minlength=m * T)).tolist()
    argmins = [";".join(ids[start:stop]) for start, stop in zip([0] + cuts, cuts)]
    rows = zip(
        [bid for bid in scenario.base_ids for _ in range(T)],
        np.tile(table.times, m).tolist(),
        table.u.T.ravel().tolist(),
        argmins,
        table.iD_minus.T.ravel().tolist(),
        table.iD_plus.T.ravel().tolist(),
        table.hj_residual.T.ravel().tolist(),
        table.hj_no_neighbors.T.ravel().tolist(),
    )
    lines = ["base_id,t,u,argmin,iD_minus,iD_plus,hj_residual,hj_no_neighbors"]
    lines += ["%s,%.12g,%.12g,%s,%.12g,%.12g,%.12g,%d" % row for row in rows]
    return _write_lines(Path(path), lines)


def write_slopes_csv(path, scenario: Scenario, report: SlopeReport) -> Path:
    n_radii, m = report.ils.shape
    rows = zip(
        [bid for bid in scenario.base_ids for _ in range(n_radii)],
        np.tile(report.radii, m).tolist(),
        report.ils.T.ravel().tolist(),
        report.ils_a.T.ravel().tolist(),
    )
    tail = f",{fmt(report.ILS)},{fmt(report.K)}"
    lines = ["base_id,radius,ils,ils_a,ILS,K"]
    lines += ["%s,%.12g,%.12g,%.12g" % row + tail for row in rows]
    return _write_lines(Path(path), lines)


def write_transform_csv(path, scenario: Scenario, tables: list[TransformTable]) -> Path:
    lines = ["base_id,t,xi,lstar,hamiltonian,argmax_w,claim_linear,claim_matches"]
    for table in tables:
        n = table.xi_grid.size
        lstar = table.lstar.tolist()
        rows = zip(
            [scenario.base_ids[table.y_index]] * n,
            [table.t] * n,
            table.xi_grid.tolist(),
            lstar,
            lstar,
            table.argmax_w.tolist(),
            table.claim_linear.tolist(),
            (~table.claim_mismatch()).tolist(),
        )
        lines += ["%s,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%d" % row for row in rows]
    return _write_lines(Path(path), lines)


def write_asymmetry_csv(path, scenario: Scenario, report: AsymmetryReport | None) -> Path:
    lines = ["x_id,y_id,z_id,lhs,rhs,excess"]
    if report is not None:
        labels = ([scenario.base_ids[k] for k in col] for col in report.violations.T.tolist())
        rows = zip(*labels, report.lhs.tolist(), report.rhs.tolist(), (report.lhs - report.rhs).tolist())
        lines += ["%s,%s,%s,%.12g,%.12g,%.12g" % row for row in rows]
    return _write_lines(Path(path), lines)


def write_variational_csv(path, t: float, nodes: np.ndarray) -> Path:
    """Node k of a curve over [0, t] in len(nodes) - 1 equal steps, at s = k t / steps."""
    ds = t / (len(nodes) - 1)
    rows = zip(range(len(nodes)), [k * ds for k in range(len(nodes))], nodes.tolist())
    return _write_lines(Path(path), ["k,s,w"] + ["%d,%.12g,%.12g" % row for row in rows])


def write_verdicts_json(path, verdicts: list[dict]) -> Path:
    return _write_lines(Path(path), [json.dumps(verdicts, indent=2)])


@dataclass
class ReportBundle:
    evolution_csv: Path
    slopes_csv: Path
    transform_csv: Path
    verdicts_json: Path
    asymmetry_csv: Path

    def all_files(self) -> list[Path]:
        return [getattr(self, f.name) for f in fields(self)]
