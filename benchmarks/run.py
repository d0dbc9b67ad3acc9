"""Benchmark of `fiberflow check` and the curve solver.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from its `src/`.
With `--trace 0` the run prints the end-to-end metrics (median wall time of
the timed operation, median scenario load time, peak RSS); with `--trace 1`
it prints per-layer self times and counts from one traced iteration.  The
last line of standard output is one JSON object.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
# scratch inputs and report bundles, removed after each run; traced runs
# leave their spans under spans/
WORK = ROOT / ".bench_work"

WORKLOADS = ("check-two-line-400", "check-segments-power-300", "variational-quartic", "check-small-batch")
# the tier-1 quartic case: solve_variational(two-point, power-4, y=b1, t=2, steps=6)
VARIATIONAL = {"y": "b1", "t": 2.0, "steps": 6}
VARIATIONAL_GAP_TOL = 1e-9
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# setup_s sampling (see measure)
SETUP_MIN_SAMPLES = 3
SETUP_WINDOW_S = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program():
    """Import fiberflow from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fiberflow" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fiberflow sources under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import fiberflow

    if Path(fiberflow.__file__).resolve().parent != (src / "fiberflow").resolve():
        raise SystemExit(f"benchmark: imported fiberflow from {fiberflow.__file__}, not {src}")
    return fiberflow


def outcome(verdicts, exit_code: int) -> str:
    """Exit code and verdict statuses in one comparable string, e.g. '1:PPFS'."""
    return f"{exit_code}:" + "".join(v.status[0] for v in verdicts)


class Workload:
    """Loads each input fresh from its file and runs the timed operation."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import workloads

        self.name = name
        self.inputs = workloads.write_workload(name, seed, workdir / "inputs")
        self.outdir = workdir / "reports"
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        self.expected = {key: expected.get(key) for key, _ in self.inputs}
        self.digest = ""

    def _load(self, key: str, path: Path):
        """(scenario or None when loading raised, seconds spent)."""
        from fiberflow import scenario

        t0 = time.perf_counter()
        try:
            sc = scenario.load_scenario(path)
        except Exception as exc:  # a failed load is a failed operation, not a crash
            print(f"{key}: load raised {exc!r}", file=sys.stderr)
            sc = None
        return sc, time.perf_counter() - t0

    def load_pass(self) -> tuple[list, float, int]:
        """Load every input once: ([(key, scenario or None)], seconds, failed loads)."""
        loaded = [(key, *self._load(key, path)) for key, path in self.inputs]
        scenarios = [(key, sc) for key, sc, _ in loaded]
        return scenarios, sum(dt for *_, dt in loaded), sum(sc is None for _, sc in scenarios)

    def run_ops(self, scenarios: list) -> tuple[float, int]:
        """The timed operation on each freshly loaded scenario: (seconds, failed)."""
        from fiberflow import runner, variational

        op_s = 0.0
        failed = 0
        digest = hashlib.sha256()
        for key, sc in scenarios:
            if sc is None:
                continue  # counted by load_pass
            t1 = time.perf_counter()
            try:
                if self.name == "variational-quartic":
                    result = variational.solve_variational(
                        sc.section(), sc.lagrangian(), sc.id_index(VARIATIONAL["y"]),
                        VARIATIONAL["t"], VARIATIONAL["steps"], sc.params,
                    )
                    op_s += time.perf_counter() - t1
                    digest.update(result.nodes.tobytes())
                    ok = abs(result.gap) <= VARIATIONAL_GAP_TOL
                    got = f"gap={result.gap!r}"
                else:
                    bundle, verdicts, code = runner.run_check(sc, self.outdir)
                    op_s += time.perf_counter() - t1
                    for f in bundle.all_files():
                        digest.update(f.read_bytes())
                    got = outcome(verdicts, code)
                    ok = got == self.expected[key]
            except Exception as exc:
                print(f"{key}: operation raised {exc!r}", file=sys.stderr)
                failed += 1
                continue
            if not ok:
                print(f"{key}: got {got}, expected {self.expected[key]}", file=sys.stderr)
                failed += 1
        self.digest = digest.hexdigest()
        return op_s, failed

    def iteration(self) -> tuple[float, float, int]:
        """Load every input, then run the operation: (load s, operation s, failed)."""
        scenarios, load_s, f_load = self.load_pass()
        op_s, f_op = self.run_ops(scenarios)
        return load_s, op_s, f_load + f_op


def warm_up(workdir: Path) -> None:
    from fiberflow import runner, two_point_scenario

    runner.run_check(two_point_scenario(), workdir / "warmup")


def measure(work: Workload, seconds: float) -> dict:
    """Median end-to-end metrics over as many iterations as fit in `seconds`.

    Each iteration's load pass is one setup_s sample.  When a pass is cheap
    (under a tenth of SETUP_WINDOW_S), passes also repeat for SETUP_WINDOW_S
    before the first operation.  After the iterations, passes alone fill the
    rest of the run, to at least SETUP_MIN_SAMPLES samples.  Sampling at
    both ends of the run keeps one phase of the host's speed from setting
    setup_s.
    """
    start = time.perf_counter()
    deadline = start + seconds
    loads, ops = [], []
    attempted = failed = 0

    def load_pass():
        nonlocal attempted, failed
        scenarios, load_s, f = work.load_pass()
        loads.append(load_s)
        attempted += len(work.inputs)
        failed += f
        return scenarios

    longest = 0.0
    while not ops or time.perf_counter() + longest <= deadline:
        t0 = time.perf_counter()
        scenarios = load_pass()
        if len(loads) == 1 and loads[0] < SETUP_WINDOW_S / 10:
            while time.perf_counter() - t0 < SETUP_WINDOW_S:
                load_pass()
        t1 = time.perf_counter()
        op_s, f = work.run_ops(scenarios)
        longest = max(longest, loads[-1] + time.perf_counter() - t1)
        ops.append(op_s)
        failed += f
    while len(loads) < SETUP_MIN_SAMPLES or time.perf_counter() + max(loads) <= deadline:
        load_pass()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{work.name}: {len(ops)} iterations, wall_s {ops}, {len(loads)} setup samples", file=sys.stderr)
    metrics = {
        "wall_s": statistics.median(ops),
        "setup_s": statistics.median(loads),
        "peak_rss_mb": rss_mb,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def measure_traced(work: Workload, spans_path: Path) -> dict:
    """One untraced then one traced iteration; per-layer metrics from the latter.

    The spans of the traced iteration are written to `spans_path`.
    """
    import tracing

    _, untraced_s, f0 = work.iteration()
    with tracing.Tracer() as tracer:
        _, traced_s, f1 = work.iteration()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    per_layer = tracing.layer_metrics(tracer.spans, iterations=1, overhead_s=traced_s - untraced_s)
    return {
        "attempted": 2 * len(work.inputs),
        "failed": f0 + f1,
        "metrics": {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in per_layer.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    # one thread, one CPU: numpy's thread pools are sized when it is imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_program()

    workdir = WORK / f"{ns.workload}-{os.getpid()}"
    try:
        work = Workload(ns.workload, ns.seed, workdir)
        warm_up(workdir)
        if ns.trace:
            result = measure_traced(work, WORK / "spans" / f"{ns.workload}-seed{ns.seed}.jsonl")
        else:
            result = measure(work, ns.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(f"{ns.workload}: bundle sha256 {work.digest}")
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
