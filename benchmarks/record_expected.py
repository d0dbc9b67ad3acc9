"""Record expected.json: the exit code and verdict statuses of every input the
check workloads can generate, for every seed.

    python3 benchmarks/record_expected.py

Run from the root of a checkout.  A benchmark operation fails when its
outcome differs from this record, so re-record only when a change to the
program is meant to change verdicts, and say so where the change is
described.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from run import HERE, WORK, WORKLOADS, import_program, outcome


def main() -> None:
    import_program()
    import workloads
    from fiberflow import load_scenario
    from fiberflow.runner import run_check

    tmp = WORK / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        inputs = []
        for name in WORKLOADS:
            if name.startswith("check-"):
                inputs += workloads.write_workload(name, 0, tmp)
        for s in range(workloads.RANDOM_SEED_SPAN):
            key = f"random-{s}"
            doc = workloads.scenario_to_dict(workloads.random_scenario(s))
            inputs.append((key, workloads.write_doc(doc, tmp / f"{key}.json")))
        record = {}
        for key, path in inputs:
            _, verdicts, code = run_check(load_scenario(path), tmp / "reports")
            record[key] = outcome(verdicts, code)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    text = json.dumps(dict(sorted(record.items())), indent=0) + "\n"
    (HERE / "expected.json").write_text(text, encoding="utf-8")
    print(f"recorded {len(record)} inputs")


if __name__ == "__main__":
    main()
