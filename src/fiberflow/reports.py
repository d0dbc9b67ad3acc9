"""Deterministic report files: CSV tables and the JSON verdict list.

Every number is formatted with 12 significant digits and rows are ordered by
base id, then time, then xi, so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    lines = ["base_id,t,u,argmin,iD_minus,iD_plus,hj_residual,hj_no_neighbors"]
    for yi, bid in enumerate(scenario.base_ids):
        for ti, t in enumerate(table.times):
            argmin = ";".join(scenario.base_ids[z] for z in np.flatnonzero(table.argmins[ti, yi]))
            lines.append(
                ",".join(
                    [
                        bid,
                        fmt(t),
                        fmt(table.u[ti, yi]),
                        argmin,
                        fmt(table.iD_minus[ti, yi]),
                        fmt(table.iD_plus[ti, yi]),
                        fmt(table.hj_residual[ti, yi]),
                        "1" if table.hj_no_neighbors[ti, yi] else "0",
                    ]
                )
            )
    return _write_lines(Path(path), lines)


def write_slopes_csv(path, scenario: Scenario, report: SlopeReport) -> Path:
    lines = ["base_id,radius,ils,ils_a,ILS,K"]
    for yi, bid in enumerate(scenario.base_ids):
        for ri, r in enumerate(report.radii):
            lines.append(
                ",".join(
                    [bid, fmt(r), fmt(report.ils[ri, yi]), fmt(report.ils_a[ri, yi]), fmt(report.ILS), fmt(report.K)]
                )
            )
    return _write_lines(Path(path), lines)


def write_transform_csv(path, scenario: Scenario, tables: list[TransformTable]) -> Path:
    lines = ["base_id,t,xi,lstar,hamiltonian,argmax_w,claim_linear,claim_matches"]
    for table in tables:
        bid = scenario.base_ids[table.y_index]
        mismatch = table.claim_mismatch()
        for i in range(table.xi_grid.size):
            lines.append(
                ",".join(
                    [
                        bid,
                        fmt(table.t),
                        fmt(table.xi_grid[i]),
                        fmt(table.lstar[i]),
                        fmt(table.lstar[i]),
                        fmt(table.argmax_w[i]),
                        fmt(table.claim_linear[i]),
                        "0" if mismatch[i] else "1",
                    ]
                )
            )
    return _write_lines(Path(path), lines)


def write_asymmetry_csv(path, scenario: Scenario, report: AsymmetryReport | None) -> Path:
    lines = ["x_id,y_id,z_id,lhs,rhs,excess"]
    if report is not None:
        for v in report.violations:
            lines.append(
                ",".join(
                    [
                        scenario.base_ids[v.x],
                        scenario.base_ids[v.y],
                        scenario.base_ids[v.z],
                        fmt(v.lhs),
                        fmt(v.rhs),
                        fmt(v.excess),
                    ]
                )
            )
    return _write_lines(Path(path), lines)


def write_verdicts_json(path, verdicts: list[dict]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(verdicts, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    return path


@dataclass
class ReportBundle:
    evolution_csv: Path
    slopes_csv: Path
    transform_csv: Path
    verdicts_json: Path
    asymmetry_csv: Path

    def all_files(self) -> list[Path]:
        return [
            self.evolution_csv,
            self.slopes_csv,
            self.transform_csv,
            self.verdicts_json,
            self.asymmetry_csv,
        ]
