"""Self-test of the benchmark at minimal size (about a minute).

    python3 perfbench/selftest.py

Checks that

* the tracer sees calls through ``from ... import`` bindings, reads zero for
  a name the program no longer has, and restores every binding;
* a corrupted answer (``t_p`` shifted by 1e-3) fails verification and counts
  as drift, for a library solve and for a CLI report;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the run
  exits non-zero without printing a result;
* every workload in ``BENCHMARK.json``, with ``--trace 0`` and ``--trace 1``
  and one round, prints exactly the metrics named there with their units, and
  reports its answers correct.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import env

env.pin_threads()  # before anything loads numpy

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

RUN = os.path.join(env.HERE, "run.py")


def _spec():
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_metrics(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=env.ROOT, capture_output=True, text=True, timeout=300, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} solves", flush=True)


def _first_with_triangles(executor, workload):
    golden = harness.load_golden(workload)
    for case in workloads.catalogue(workload):
        expected = golden["cases"][case.key]
        if expected["class"] == "triangles" and case.key not in golden["continuum"]:
            _, outcome = executor.run(case)
            return case, outcome, golden
    raise AssertionError(f"{workload} has no case with triangles")


def check_corruption(program):
    executor = harness.Executor(program)
    try:
        for workload in ("equilateral-large", "cli-small"):
            case, outcome, golden = _first_with_triangles(executor, workload)
            poly = executor.polyline(case)
            assert harness.check(case, outcome, poly) is None
            assert not harness.drifted(case, outcome, golden)
            outcome["triangles"][0]["t_p"] += 1e-3
            reason = harness.check(case, outcome, poly)
            assert reason is not None, "corrupted answer passed verification"
            assert harness.drifted(case, outcome, golden), "corrupted answer did not drift"
            print(f"ok  corrupted {case.via} answer fails ({reason}) and drifts", flush=True)
    finally:
        executor.close()


def check_tracer(program):
    """Patched bindings are seen and restored; a missing name reads zero."""
    curve = program.curve.make_curve("ellipse", samples=256)
    shape = program.shape.shape_from_degrees(60, 60, 60)
    saved = program.frames.apply_frame
    del program.frames.apply_frame  # as if a later change removed it
    try:
        tracer = Tracer()
        with tracer:
            span = tracer.open("bench.solve")
            program.solvers.solve_similar(curve, shape)
            tracer.close(span)
    finally:
        program.frames.apply_frame = saved
    assert tracer.missing == ["frames.apply_frame"], tracer.missing
    values = layers.per_layer(tracer, Tracer(), 1)
    assert values["frames.apply_frame.calls"]["value"] == 0
    assert values["frames.canonical_frame.calls"]["value"] > 0  # seen via solvers' binding
    assert len(tracer.roots) == 1 and layers.self_sum_error(tracer) < 1e-9
    for mod in (program, program.solvers, program.frames, program.cli, program.curve):
        for name, value in vars(mod).items():
            assert not hasattr(value, "__traced_original__"), f"{mod.__name__}.{name}"
    assert not hasattr(program.curve.Curve.extent.fget, "__traced_original__")
    print("ok  tracer sees caller bindings, tolerates a missing name, restores all",
          flush=True)


def check_bare_directory():
    bare = os.path.join(env.ROOT, ".perfbench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(env.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    assert proc.returncode != 0, "run succeeded without the program"
    assert '"metrics"' not in proc.stdout, "run printed a result without the program"
    print(f"ok  bare directory exits {proc.returncode} without a result", flush=True)


def main():
    program = env.import_program()
    check_tracer(program)
    check_corruption(program)
    check_bare_directory()
    check_metrics(_spec())
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
