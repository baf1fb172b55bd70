"""Running cases against the program and judging what comes back.

``Executor.run(case)`` makes one timed call: a library call with a curve
built at set-up, or an in-process ``triscribe.cli.run`` with stdout and
stderr captured (the no-bracket diagnostic goes to stdout even with
``--out``; refine failures go to stderr).  Every call looks its entry point
up on the module at call time, so a tracer's patches are seen.

``outcome_of()`` turns the raw result into an outcome and ``check()`` judges it:

* ``triangles``: every triangle must pass ``verify.check_triangle``;
* ``no-bracket``, ``refine-failed``, ``no-triangles``: documented no-results;
* ``error:<kind>``: an undocumented error, which counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import time

import numpy as np

import verify
from env import HERE, ROOT

GOLDEN_DIR = os.path.join(HERE, "golden")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
NO_RESULTS = ("no-bracket", "refine-failed", "no-triangles")


class Executor:
    def __init__(self, program):
        self.program = program
        self.curves = {}
        self.polylines = {}
        os.makedirs(TMP_PARENT, exist_ok=True)
        self.tmpdir = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
        self.out_path = os.path.join(self.tmpdir, "report.json")

    def close(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_PARENT)

    def curve(self, case):
        key = case.curve_key
        if key not in self.curves:
            self.curves[key] = self.program.curve.make_curve(
                case.generator, samples=case.samples, **dict(case.params)
            )
        return self.curves[key]

    def polyline(self, case):
        key = case.curve_key
        if key not in self.polylines:
            self.polylines[key] = verify.Polyline(self.curve(case).points)
        return self.polylines[key]

    def run(self, case, tracer=None):
        """One timed call; returns (seconds, outcome).

        The outcome is built outside the timed region and holds plain lists,
        so no result keeps the solver's arrays alive.
        """
        if case.via == "cli":
            elapsed, raw = self._run_cli(case, tracer)
        else:
            elapsed, raw = self._run_lib(case, tracer)
        return elapsed, outcome_of(case, raw, self.program.errors)

    def _run_lib(self, case, tracer):
        solvers = self.program.solvers
        curve = self.curve(case)
        span = tracer.open("bench.solve") if tracer else None
        started = time.perf_counter()
        try:
            if case.command == "similar":
                shape = self.program.shape.shape_from_degrees(*case.angles)
                raw = ("ok", solvers.solve_similar(curve, shape, base_param=case.base))
            else:
                raw = ("ok", solvers.solve_equilateral(curve, base_param=case.base))
        except Exception as exc:  # classified by outcome_of()
            raw = ("raised", exc)
        elapsed = time.perf_counter() - started
        if span is not None:
            tracer.close(span)
        return elapsed, raw

    def _run_cli(self, case, tracer):
        argv = case.cli_argv(self.out_path)
        out, err = io.StringIO(), io.StringIO()
        span = tracer.open("bench.solve") if tracer else None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.program.cli.run(argv)
        except Exception as exc:  # classified by outcome_of()
            code = exc
        elapsed = time.perf_counter() - started
        if span is not None:
            tracer.close(span)
        report = None
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                report = fh.read()
            os.remove(self.out_path)
        return elapsed, ("cli", code, out.getvalue(), err.getvalue(), report)


def _triangle_dict(tri):
    return {
        "t_p": float(tri.t_p),
        "t_q": float(tri.t_q),
        "point_o": np.asarray(tri.point_o, dtype=float).tolist(),
        "point_p": np.asarray(tri.point_p, dtype=float).tolist(),
        "point_q": np.asarray(tri.point_q, dtype=float).tolist(),
    }


def outcome_of(case, raw, errors):
    """Map a raw result to {"class", "triangles"}; ``triangles`` holds dicts."""
    if raw[0] == "ok":
        result = raw[1]
        if case.command == "similar":
            tris = [_triangle_dict(t) for t in result.triangles]
        else:
            tris = [_triangle_dict(result.triangle)] if result.triangle else []
        return {"class": "triangles" if tris else "no-triangles", "triangles": tris}
    if raw[0] == "raised":
        exc = raw[1]
        if isinstance(exc, errors.NoBracketError):
            return {"class": "no-bracket", "triangles": []}
        if isinstance(exc, errors.RefineFailedError):
            return {"class": "refine-failed", "triangles": []}
        return {"class": f"error:{type(exc).__name__}", "triangles": []}
    _, code, stdout, stderr, report = raw
    if isinstance(code, Exception):
        return {"class": f"error:{type(code).__name__}", "triangles": []}
    if code in (0, 2) and report is not None:
        tris = json.loads(report).get("triangles", [])
        if tris and code == 0:
            return {"class": "triangles", "triangles": tris}
        if not tris and code == 2:
            return {"class": "no-triangles", "triangles": []}
    if code == 2 and report is None:
        with contextlib.suppress(ValueError):
            if json.loads(stdout).get("result") == "no-bracket":
                return {"class": "no-bracket", "triangles": []}
        if stderr.startswith("refinement failed"):
            return {"class": "refine-failed", "triangles": []}
    return {"class": f"error:exit{code}", "triangles": []}


def check(case, outcome, poly):
    """None when the outcome is acceptable, else the reason it fails."""
    cls = outcome["class"]
    if cls in NO_RESULTS:
        return None
    if cls != "triangles":
        return cls
    angles = case.angles if case.angles is not None else (60, 60, 60)
    for tri in outcome["triangles"]:
        reason = verify.check_triangle(poly, angles, case.base, tri)
        if reason is not None:
            return reason
    return None


def comparable(outcome):
    """The part of an outcome compared against the golden record."""
    return {
        "class": outcome["class"],
        "triangles": [[t["t_p"], t["t_q"]] for t in outcome["triangles"]],
    }


def load_golden(workload):
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def drifted(case, outcome, golden):
    """True when the outcome differs from the seed commit's; continuum cases
    (a family of answers whose sampling follows the grid) never count."""
    if case.key in golden["continuum"]:
        return False
    expected = golden["cases"].get(case.key)
    if expected is None:
        return True
    return not verify.same_outcome(comparable(outcome), expected)
