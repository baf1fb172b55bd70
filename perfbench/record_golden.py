"""Record the golden outcome of every catalogue case of a workload.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Run at the commit whose answers are the reference.  Each case runs once;
its outcome class and triangle parameters go to ``golden/<workload>.json``.
A case with more than ``CONTINUUM_MIN`` triangles is a continuum: the
curve admits a whole family of solutions and the solver returns one per
grid crossing, so the count and parameters follow the sweep grid.  Such
cases are listed under ``continuum`` with the reason, verified by residual
and on-curve checks only, and kept out of ``answer_drift``.  A case that
fails verification here is recorded under ``failed_at_record`` and printed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import env

env.pin_threads()  # before anything loads numpy

import harness  # noqa: E402
import workloads  # noqa: E402

CONTINUUM_MIN = 32
CONTINUUM_REASON = (
    "{n} triangles: the right angle at the wedge corner (base 0) or on the quarter-circle "
    "arc (Thales) admits a one-parameter family of right isosceles triangles; the solver "
    "returns one per grid crossing, so the set follows the grid"
)


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=env.ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def record(program, workload):
    executor = harness.Executor(program)
    cases, continuum, failed = {}, {}, {}
    try:
        for case in workloads.catalogue(workload):
            _, outcome = executor.run(case)
            reason = harness.check(case, outcome, executor.polyline(case))
            if reason is not None:
                failed[case.key] = reason
                print(f"FAILED {case.key}: {reason}", flush=True)
            cases[case.key] = harness.comparable(outcome)
            n = len(outcome["triangles"])
            if n > CONTINUUM_MIN:
                continuum[case.key] = CONTINUUM_REASON.format(n=n)
    finally:
        executor.close()
    doc = {
        "commit": _commit(),
        "workload": workload,
        "cases": cases,
        "continuum": continuum,
        "failed_at_record": failed,
    }
    os.makedirs(harness.GOLDEN_DIR, exist_ok=True)
    path = os.path.join(harness.GOLDEN_DIR, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(cases)} cases, {len(continuum)} continuum, "
          f"{len(failed)} failed -> {path}", flush=True)


def main(argv):
    program = env.import_program()
    for workload in argv or workloads.WORKLOADS:
        record(program, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
