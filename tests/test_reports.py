import math
from types import SimpleNamespace

import numpy as np
import pytest

from fiberflow.lagrangian import TransformTable
from fiberflow.reports import fmt, write_evolution_csv, write_slopes_csv, write_transform_csv
from fiberflow.section import SlopeReport
from fiberflow.semigroup import EvolutionTable

# non-finite values, signed zeros, extremes of the exponent range, integral floats
SPECIAL = [math.inf, -math.inf, math.nan, -math.nan, -0.0, 0.0, 1e-300, -2.5e-300, 5e-324, 1e308, 3.0, -7.0]
SPECIAL += [1e16, 2.0**53 + 2.0, 1.0 / 3.0, 123456789012.5, -0.1]


def test_fmt_non_finite_signed_zero_and_digits():
    assert [fmt(x) for x in (math.inf, -math.inf, math.nan, -math.nan)] == ["inf", "-inf", "nan", "nan"]
    assert [fmt(x) for x in (-0.0, 0.0, np.float64(-0.0))] == ["-0", "0", "-0"]
    assert [fmt(x) for x in (3, np.int64(7), 1.0 / 3.0, -2.5e-300, np.float64(1e16))] == [
        "3",
        "7",
        "0.333333333333",
        "-2.5e-300",
        "1e+16",
    ]


def test_percent_template_formats_like_fmt():
    assert ["%.12g" % x for x in SPECIAL] == [fmt(x) for x in SPECIAL]


# The per-cell writers that the column writers replaced: one fmt call per cell.
def reference_evolution_lines(scenario, table):
    lines = ["base_id,t,u,argmin,iD_minus,iD_plus,hj_residual,hj_no_neighbors"]
    for yi, bid in enumerate(scenario.base_ids):
        for ti, t in enumerate(table.times):
            argmin = ";".join(scenario.base_ids[z] for z in np.flatnonzero(table.argmins[ti, yi]))
            cells = [bid, fmt(t), fmt(table.u[ti, yi]), argmin, fmt(table.iD_minus[ti, yi])]
            cells += [fmt(table.iD_plus[ti, yi]), fmt(table.hj_residual[ti, yi])]
            lines.append(",".join(cells + ["1" if table.hj_no_neighbors[ti, yi] else "0"]))
    return lines


def reference_slopes_lines(scenario, report):
    lines = ["base_id,radius,ils,ils_a,ILS,K"]
    for yi, bid in enumerate(scenario.base_ids):
        for ri, r in enumerate(report.radii):
            cells = [bid, fmt(r), fmt(report.ils[ri, yi]), fmt(report.ils_a[ri, yi]), fmt(report.ILS), fmt(report.K)]
            lines.append(",".join(cells))
    return lines


def reference_transform_lines(scenario, tables):
    lines = ["base_id,t,xi,lstar,hamiltonian,argmax_w,claim_linear,claim_matches"]
    for table in tables:
        bid = scenario.base_ids[table.y_index]
        mismatch = table.claim_mismatch()
        for i in range(table.xi_grid.size):
            cells = [bid, fmt(table.t), fmt(table.xi_grid[i]), fmt(table.lstar[i]), fmt(table.lstar[i])]
            cells += [fmt(table.argmax_w[i]), fmt(table.claim_linear[i]), "0" if mismatch[i] else "1"]
            lines.append(",".join(cells))
    return lines


def _read_lines(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    return text[:-1].split("\n")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_column_writers_equal_the_per_cell_writers(tmp_path, seed):
    rng = np.random.default_rng(seed)
    m, T, R = 7, 3, 4
    scenario = SimpleNamespace(base_ids=["y0", "y%d", "a;b", "%s%%", "y4", "b 5", "y6"])

    def special(*shape):
        return rng.choice(np.array(SPECIAL), size=shape)

    table = EvolutionTable(
        times=special(T),
        u=special(T, m),
        argmins=rng.random((T, m, m)) < 0.3,  # some sets empty, some with several ids
        iD_minus=special(T, m),
        iD_plus=special(T, m),
        hj_residual=special(T, m),
        hj_no_neighbors=rng.random((T, m)) < 0.5,
        tau_tie=1e-9,
        is_model_quadratic=True,
    )
    assert not table.argmins.any(axis=2).all() and (table.argmins.sum(axis=2) > 1).any()
    report = SlopeReport(radii=special(R), ils=special(R, m), ils_a=special(R, m), ILS=math.inf, K=-0.0)
    tables = [
        TransformTable(
            y_index=int(y),
            t=float(special(1)[0]),
            xi_grid=special(n),
            achievable_w=special(m),
            lstar=special(n),
            argmax_w=special(n),
            claim_linear=special(n),
        )
        for y, n in ((3, 5), (0, 1), (3, 9), (1, 0))
    ]
    evolution = write_evolution_csv(tmp_path / "evolution.csv", scenario, table)
    assert _read_lines(evolution) == reference_evolution_lines(scenario, table)
    slopes = write_slopes_csv(tmp_path / "slopes.csv", scenario, report)
    assert _read_lines(slopes) == reference_slopes_lines(scenario, report)
    transform = write_transform_csv(tmp_path / "transform.csv", scenario, tables)
    assert _read_lines(transform) == reference_transform_lines(scenario, tables)
