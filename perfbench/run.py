"""triscribe benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The workload's cases are drawn from ``--seed`` (see ``workloads.py``) and
run as a closed loop with one client, round after round, until the next
round would end past ``--seconds``.  Every answer is checked (``verify.py``)
and compared with the outcome recorded at the seed commit (``golden/``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the drawn
cases twice, untraced and then traced, each for half of ``--seconds``, and
prints the per-layer metrics (``tracer.py``).  The last stdout line is the
result object; the line before it holds details (sample count, percentiles,
failures, drift, thread settings).  Exit code 2 means the program could not
be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import env

env.pin_threads()  # before anything loads numpy

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 5
WARMUP_M = 256


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


# -- set-up ------------------------------------------------------------------


def setup(program, workload, seed):
    """Build the workload's curves and warm every code path it will time."""
    executor = harness.Executor(program)
    first = next(workloads.rounds(workload, seed))
    for case in workloads.catalogue(workload):
        if case.via == "lib":
            executor.curve(case)
    warm = {(c.via, c.command): c for c in first}
    for case in warm.values():
        small = workloads.Case(case.via, case.command, "ellipse", (), WARMUP_M,
                               case.angles, 0.0)
        executor.run(small)
    return executor


def probe_setup_seconds(args):
    """Wall seconds from spawning a fresh process to its first timed solve."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


# -- timed passes ------------------------------------------------------------


def timed_pass(executor, cases_source, seconds, tracer=None):
    """Closed loop over whole rounds; stops when another round would end
    more than half a round past ``seconds``.  Returns (samples, wall)."""
    samples = []
    started = time.perf_counter()
    for round_cases in cases_source:
        round_started = time.perf_counter()
        for case in round_cases:
            elapsed, outcome = executor.run(case, tracer)
            samples.append((case, elapsed, outcome))
        now = time.perf_counter()
        if now - started + 0.5 * (now - round_started) >= seconds:
            break
    return samples, time.perf_counter() - started


def judge(executor, golden, samples):
    failures, drift = [], []
    for case, _, outcome in samples:
        reason = harness.check(case, outcome, executor.polyline(case))
        if reason is not None:
            failures.append(f"{case.key}: {reason}")
        if harness.drifted(case, outcome, golden):
            drift.append(f"{case.key}: {outcome['class']} x{len(outcome['triangles'])}")
    return failures, drift


def percentile_summary(times):
    ordered = sorted(times)
    summary = {"n": len(ordered), "p50": statistics.median(ordered)}
    # the highest of these percentiles with at least ten samples beyond it
    for pct in (99, 95, 90, 75):
        if len(ordered) * (100 - pct) / 100 >= 10:
            summary[f"p{pct}"] = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
            break
    return summary


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    process_start = time.perf_counter()
    args = parse_args(argv)
    program = env.import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 64

    if args.setup_probe:
        executor = setup(program, args.workload, args.seed)
        executor.close()
        print("ready", flush=True)
        return 0

    golden = harness.load_golden(args.workload)
    probes = [probe_setup_seconds(args) for _ in range(SETUP_PROBES)]
    executor = setup(program, args.workload, args.seed)
    own_setup = time.perf_counter() - process_start
    try:
        if args.trace:
            result, details = traced_run(program, executor, args)
        else:
            result, details = plain_run(program, executor, args)
    finally:
        executor.close()
    if not args.trace:
        result["setup_s"] = metric(statistics.median(probes), "s")
        result["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    failures, drift = judge(executor, golden, details.pop("samples"))
    attempted = details["attempted"]
    details.update(
        workload=args.workload,
        seed=args.seed,
        setup_probes_s=probes,
        own_setup_s=own_setup,
        failed_frac=len(failures) / attempted,
        answer_drift=len(drift),
        failures=failures[:20],
        drift=drift[:20],
        env=env.describe(program),
    )
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": not failures and not drift,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result,
    }))
    return 0


def plain_run(program, executor, args):
    samples, wall = timed_pass(executor, workloads.rounds(args.workload, args.seed),
                               args.seconds)
    times = [elapsed for _, elapsed, _ in samples]
    summary = percentile_summary(times)
    result = {
        "solves_per_s": metric(len(samples) / wall, "1/s"),
        "solve_s.p50": metric(summary["p50"], "s"),
    }
    details = {"attempted": len(samples), "solve_s": summary, "wall_s": wall,
               "samples": samples}
    return result, details


def traced_run(program, executor, args):
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    samples, wall = timed_pass(executor, workloads.rounds(args.workload, args.seed),
                               args.seconds / 2)
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    cases = [case for case, _, _ in samples]

    setup_tracer = Tracer()
    with setup_tracer:
        rebuilt = harness.Executor(program)
        for case in cases:
            rebuilt.curve(case)
        rebuilt.close()
    tracer = Tracer()
    with tracer:
        traced, _ = timed_pass(executor, [cases], 0.0, tracer)
    untraced_s = sum(elapsed for _, elapsed, _ in samples)
    traced_s = sum(elapsed for _, elapsed, _ in traced)
    result = layers.per_layer(tracer, setup_tracer, len(traced))
    result["process.cpu_util"] = metric(cpu / wall, "ratio")
    result["trace.overhead_frac"] = metric(traced_s / untraced_s - 1.0, "ratio")
    details = {"attempted": len(samples) + len(traced), "untraced_s": untraced_s,
               "traced_s": traced_s, "missing_names": tracer.missing,
               "worker_threads": len(tracer.worker_threads),
               "self_sum_err": layers.self_sum_error(tracer),
               "samples": samples + traced}
    return result, details


if __name__ == "__main__":
    sys.exit(main())
