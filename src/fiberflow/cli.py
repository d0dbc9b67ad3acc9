"""Command-line surface.

Exit codes: 0 success (and every non-skipped check PASSed), 1 a check FAILed,
2 usage error (also an --out that cannot be written), 3 scenario file missing,
4 scenario format error, 5 scenario validation error, 6 refused precondition,
7 internal error (any other exception, reported on one line, never as a
traceback, whose exit code 1 would read as a failed check).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import PreconditionError, ScenarioFormatError, ScenarioValidationError
from .lagrangian import legendre_transform
from .reports import fmt, write_evolution_csv, write_slopes_csv, write_transform_csv, write_variational_csv
from .runner import run_check
from .scenario import distance_bound, load_scenario, paper_counterexample, time_refusal, write_scenario
from .section import local_slopes
from .semigroup import evolution_table
from .variational import solve_variational

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_FORMAT = 4
EXIT_VALIDATION = 5
EXIT_PRECONDITION = 6
EXIT_INTERNAL = 7


def _checked_times(times: list[float], scenario) -> list[float]:
    """`times`, refused unless `time_refusal` passes each of them with the
    scenario's penalty, the rule `validate_scenario` applies to the grid times."""
    distance, penalty = distance_bound(scenario), {"penalty": scenario.lagrangian()}
    for t in times:
        refusal = time_refusal(t, distance, penalty)
        if refusal is not None:
            raise PreconditionError(f"time {t!r} {refusal[1]}")
    return times


def _parse_times(text: str, scenario) -> list[float]:
    try:
        times = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise PreconditionError(f"bad time list {text!r}: {exc}") from exc
    if not times:
        raise PreconditionError(f"bad time list {text!r}: no times")
    return _checked_times(times, scenario)


def cmd_validate(ns) -> int:
    scenario = load_scenario(ns.scenario)
    print(f"scenario {scenario.name!r}: {scenario.n_base} base points, kappa={scenario.kappa} — valid")
    return 0


def cmd_evolve(ns) -> int:
    scenario = load_scenario(ns.scenario)
    times = _parse_times(ns.times, scenario) if ns.times else scenario.grids.times
    table = evolution_table(
        scenario.section(),
        scenario.lagrangian(),
        times,
        tau_tie=scenario.grids.tau_tie,
        hj_radius=scenario.grids.effective_hj_radius(),
    )
    out = Path(ns.out) / f"{scenario.report_prefix}_evolution.csv"
    write_evolution_csv(out, scenario, table)
    print(f"wrote {out}")
    return 0


def cmd_slopes(ns) -> int:
    scenario = load_scenario(ns.scenario)
    report = local_slopes(scenario.section(), scenario.grids.radii)
    out = Path(ns.out) / f"{scenario.report_prefix}_slopes.csv"
    write_slopes_csv(out, scenario, report)
    print(f"wrote {out}")
    return 0


def cmd_transform(ns) -> int:
    scenario = load_scenario(ns.scenario)
    y = scenario.id_index(ns.y)
    (t,) = _checked_times([ns.t], scenario)
    table = legendre_transform(
        scenario.lagrangian(), scenario.section(), y, t, xi_resolution=scenario.grids.xi_resolution
    )
    out = Path(ns.out) / f"{scenario.report_prefix}_transform.csv"
    write_transform_csv(out, scenario, [table])
    print(f"wrote {out}")
    return 0


def cmd_variational(ns) -> int:
    scenario = load_scenario(ns.scenario)
    y = scenario.id_index(ns.y)
    (t,) = _checked_times([ns.t], scenario)
    out = Path(ns.out) / f"{scenario.report_prefix}_variational.csv"
    out.parent.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before the solve
    result = solve_variational(scenario.section(), scenario.lagrangian(), y, t, ns.steps, scenario.params)
    write_variational_csv(out, t, result.nodes)
    print(f"value={fmt(result.value)} best_z={scenario.base_ids[result.best_z]} gap_vs_evolve={fmt(result.gap)} converged={result.converged}")
    print(f"wrote {out}")
    return 0


def _print_verdicts(verdicts) -> None:
    for v in verdicts:
        slack = "" if v.worst_slack is None else f" worst_slack={fmt(v.worst_slack)}"
        loc = "" if not v.location else f" at {v.location}"
        print(f"{v.status:7s} {v.check}{slack}{loc}")


def cmd_check(ns) -> int:
    scenario = load_scenario(ns.scenario)
    _, verdicts, code = run_check(scenario, ns.out)
    _print_verdicts(verdicts)
    return code


def cmd_paper_example(ns) -> int:
    scenario = paper_counterexample()
    path = Path(ns.out) / "paper_counterexample.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_scenario(scenario, path)
    print(f"wrote {path}")
    reloaded = load_scenario(path)
    _, verdicts, code = run_check(reloaded, ns.out)
    _print_verdicts(verdicts)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberflow",
        description="Evolve sections of fibered subsets of R^k and verify the asserted inequalities.",
    )
    parser.add_argument("--out", default="reports", help="output directory for report files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="geometry and section checks")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("evolve", help="evolution table CSV (u, argmin, iD+-)")
    p.add_argument("scenario")
    p.add_argument("--times", default=None, help="comma-separated list, overrides the scenario grid")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("slopes", help="slope report CSV (ILS, local/asymptotic slopes, K)")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_slopes)

    p = sub.add_parser("transform", help="Fenchel-Legendre transform table at one (y, t)")
    p.add_argument("scenario")
    p.add_argument("--y", required=True, help="base id")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("variational", help="curve problem value vs the direct evolution")
    p.add_argument("scenario")
    p.add_argument("--y", required=True, help="base id")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--steps", type=int, default=8, help="number of time steps m")
    p.set_defaults(fn=cmd_variational)

    p = sub.add_parser("check", help="full verification run, nonzero exit on any FAIL")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("paper-example", help="write the bundled counterexample scenario and check it")
    p.set_defaults(fn=cmd_paper_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except OSError as exc:  # scenario reads raise FileNotFoundError, so this is the output path
        print(f"error: cannot write under --out {ns.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ScenarioValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
