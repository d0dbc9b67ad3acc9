"""Orchestration of the full verification run behind the `check` command.

Collects machine-readable verdicts, writes the report bundle, and decides the
exit status: zero exactly when no non-skipped verdict failed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import PreconditionError
from .reports import (
    ReportBundle,
    write_asymmetry_csv,
    write_evolution_csv,
    write_slopes_csv,
    write_transform_csv,
    write_verdicts_json,
)
from .scenario import Scenario
from .section import asymmetry_probe, g_field, local_slopes, validate_section
from .lagrangian import legendre_transform, model_quadratic
from .semigroup import (
    SLACK_TOLERANCE,
    Verdict,
    evolution_table,
    hj_residuals,
    proposition_suite,
    slope_estimate_check,
    worst_case,
)

HJ_TOLERANCE = 1e-6


def run_check(scenario: Scenario, outdir) -> tuple[ReportBundle, list[Verdict], int]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    prefix = scenario.report_prefix
    section = scenario.section()
    L = scenario.lagrangian()
    grids = scenario.grids
    verdicts: list[Verdict] = []

    # geometry and section validity
    space_report = scenario.space_report()
    note = f"{len(space_report.overlaps)} overlaps, {len(space_report.empty_fibers)} empty fibers"
    verdicts.append(Verdict("geometry", "PASS" if space_report.ok else "FAIL", None, None, note=note))
    sec_report = validate_section(section, tau_sec=grids.tau_sec)
    worst_res = float(sec_report.residuals.max())
    verdicts.append(
        Verdict.from_slack("section", worst_res - grids.tau_sec, 0.0, None, note=f"max residual {worst_res:.3e}")
    )

    # the evolution under L and under the model penalty, read by every check below
    table = evolution_table(section, L, grids.times, tau_tie=grids.tau_tie, hj_radius=grids.hj_radius)
    model = table
    if not L.is_model_quadratic:
        model = evolution_table(section, model_quadratic(), grids.times, tau_tie=grids.tau_tie)

    # proposition suite; its penalty-axiom report gives the axiom verdicts
    suite = proposition_suite(section, L, table, model, labels=scenario.base_ids)
    axioms = suite.axiom_report
    verdicts.append(
        Verdict.from_slack("axiom_convexity", axioms.convexity_worst, axioms.convexity_tol, None)
    )
    loc = None
    if axioms.compatibility_witness is not None:
        x, y, z, t = axioms.compatibility_witness
        loc = f"x={scenario.base_ids[x]},y={scenario.base_ids[y]},z={scenario.base_ids[z]},t={t:g}"
    verdicts.append(
        Verdict.from_slack("axiom_compatibility", axioms.compatibility_worst, axioms.compatibility_tol, loc)
    )
    verdicts.append(
        Verdict.from_slack("axiom_time_scaling", axioms.scaling_worst, axioms.scaling_tol, None)
    )

    # asymmetry probe (needs at least three base points)
    probe = None
    if scenario.n_base >= 3:
        probe = asymmetry_probe(section)
        x, y, z = probe.first_form_argmax
        verdicts.append(
            Verdict.from_slack(
                "asymmetry_first_form",
                probe.first_form_worst,
                SLACK_TOLERANCE,
                f"x={scenario.base_ids[x]},y={scenario.base_ids[y]},z={scenario.base_ids[z]}",
                note=f"{len(probe.violations)} reverse-form violations recorded",
            )
        )
    else:
        verdicts.append(
            Verdict("asymmetry_first_form", "SKIPPED", None, None, note="fewer than 3 base points")
        )

    # pinned reference triple, when the scenario carries one
    if scenario.reference_triple is not None and probe is not None:
        ref = scenario.reference_triple
        xi, yi, zi = (scenario.id_index(ref[k]) for k in ("x", "y", "z"))
        D = section.fiber_distances()
        E = section.value_distances()
        lhs = float(D[xi, yi] - D[xi, zi])
        rhs = float(E[yi, zi])
        stated = float(ref.get("stated_constant", math.nan))
        note = (
            f"gap={lhs!r} vs bound={rhs!r}; stated constant {stated!r}, "
            f"|gap-stated|={abs(lhs - stated):.6e}"
            + ("" if abs(lhs - stated) <= 1e-9 else " (discrepancy flagged)")
        )
        verdicts.append(
            Verdict.from_slack(
                "reference_triple_violation",
                rhs - lhs,  # the reverse-form bound must be strictly exceeded
                -SLACK_TOLERANCE,
                f"x={ref['x']},y={ref['y']},z={ref['z']}",
                note=note,
            )
        )

    # invariants of the evolution table
    g = g_field(section)
    L0 = float(L(0.0))
    upper = table.u - (g[None, :] + table.times[:, None] * L0)
    order = table.iD_minus - table.iD_plus
    inv_slack = max(float(upper.max()), float(order.max()))
    verdicts.append(
        Verdict.from_slack(
            "evolution_invariants",
            inv_slack,
            SLACK_TOLERANCE,
            None,
            note="u <= g + t L(0) and iD- <= iD+ over the grid",
        )
    )

    verdicts.extend(suite.items)

    # finite pair scan of the slope estimate, one grid time's slack table at a time
    violations = []

    def pair_scans():
        for ti, t in enumerate(model.times):
            slack = slope_estimate_check(section, model, ti)
            violations.append(np.count_nonzero(slack > SLACK_TOLERANCE))
            yield slack, "zy", f"t={t:g}"
            del slack  # worst_case has read it; the next table replaces it

    slack, loc = worst_case(pair_scans(), scenario.base_ids)
    note = f"{sum(violations)} violating pairs"
    verdicts.append(Verdict.from_slack("pair_slope_estimate", slack, SLACK_TOLERANCE, loc, note=note))

    # Hamilton-Jacobi residual grids, at every hj_base_stride-th base point
    hj_ids = list(range(0, scenario.n_base, max(1, grids.hj_base_stride)))
    hj_times = grids.effective_hj_times()
    radius = grids.hj_radius if grids.hj_radius is not None else max(grids.radii)
    plain, lipschitz, flagged = [], [], 0
    for t in hj_times:
        hj, hj_lipschitz = hj_residuals(section, float(t), radius, hj_ids)
        flagged += int(np.count_nonzero(hj.n_neighbors == 0))
        plain.append((hj.residual, "y", f"t={t:g}"))
        if hj_lipschitz is not None:
            lipschitz.append((hj_lipschitz.residual, "y", f"t={t:g}"))
    hj_labels = [scenario.base_ids[y] for y in hj_ids]
    slack, loc = worst_case(plain, hj_labels)
    note = f"{flagged} nodes had no neighbors in radius"
    verdicts.append(Verdict.from_slack("hj_residual_grid", slack, HJ_TOLERANCE, loc, note=note))
    if lipschitz:  # hj_residuals gives no Lipschitz form without a finite nonzero ILS
        slack, loc = worst_case(lipschitz, hj_labels)
        verdicts.append(Verdict.from_slack("hj_residual_lipschitz_grid", slack, HJ_TOLERANCE, loc))
    else:
        verdicts.append(
            Verdict("hj_residual_lipschitz_grid", "SKIPPED", None, None, note="ILS estimate not finite")
        )

    # reports
    slopes = local_slopes(section, grids.radii)
    transforms = []
    for yi in hj_ids:
        for t in grids.times:
            try:
                transforms.append(legendre_transform(L, section, yi, float(t), xi_resolution=grids.xi_resolution))
            except PreconditionError:
                break
    bundle = ReportBundle(
        evolution_csv=write_evolution_csv(outdir / f"{prefix}_evolution.csv", scenario, table),
        slopes_csv=write_slopes_csv(outdir / f"{prefix}_slopes.csv", scenario, slopes),
        transform_csv=write_transform_csv(outdir / f"{prefix}_transform.csv", scenario, transforms),
        verdicts_json=write_verdicts_json(outdir / f"{prefix}_verdicts.json", [v.to_dict() for v in verdicts]),
        asymmetry_csv=write_asymmetry_csv(outdir / f"{prefix}_asymmetry.csv", scenario, probe),
    )
    exit_code = 0 if all(v.status != "FAIL" for v in verdicts) else 1
    return bundle, verdicts, exit_code
