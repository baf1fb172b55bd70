"""Per-layer metrics from a traced pass.

Conventions: ``.calls`` is calls per solve; ``.ms`` is milliseconds per solve
spent inside the span (inclusive); ``.us`` is microseconds per call.  The one
exception is ``curve.make_curve.ms``, milliseconds per call, because most
workloads build their curves at set-up (traced separately) and not per solve.
A name the program no longer has reads zero.
"""

from __future__ import annotations

LAYERS = ("curve", "frames", "winding", "shape", "solvers", "cli", "bench")

PER_CALL_US = (
    "solvers.sphere_winding",
    "frames.third_vertex_sphere",
    "frames.canonical_frame",
    "frames.apply_frame",
    "frames.cylindrical_project",
    "winding.passes_through",
    "winding.winding_closed",
)
CALLS = PER_CALL_US + (
    "curve.min_distance_excluding",
    "curve.eval",
    "curve.extent",
    "solvers.refine_similar",
    "shape.residuals",
    "solvers.ratio_path",
)
PER_SOLVE_MS = (
    "curve.min_distance_excluding",
    "curve.farthest_param",
    "curve.extent",
    "solvers.refine_similar",
    "solvers.near_base_param",
    "solvers.ratio_path",
)
LADDER = ("solvers.chord_angle_bounds", "solvers.check_strong_monotone")


def names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    out += [(f"{n}.calls", "count") for n in CALLS]
    out += [(f"{n}.us", "us") for n in PER_CALL_US]
    out += [(f"{n}.ms", "ms") for n in PER_SOLVE_MS]
    out += [
        ("solvers.sweep.grid_evals", "count"),
        ("solvers.sweep.bisect_evals", "count"),
        ("solvers.sweep.computed_mb", "MB"),
        ("solvers.sweep.parallelism", "ratio"),
        ("solvers.ladder.ms", "ms"),
        ("solvers.ladder.rungs", "count"),
        ("curve.make_curve.ms", "ms"),
        ("cli.self_ms", "ms"),
    ]
    out += [(f"self.{layer}.ms", "ms") for layer in LAYERS]
    out += [
        ("process.cpu_util", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


def self_sum_error(tracer):
    """Largest relative miss, over solves, of: self times in the solve's tree
    minus the overlap of parallel pool spans equals the solve span."""
    return max(
        (abs(self_sum - excess - dur) / dur for dur, self_sum, excess in tracer.roots),
        default=0.0,
    )


def per_layer(tracer, setup_tracer, solves):
    """Metrics from ``tracer`` (the solves) and ``setup_tracer`` (curve builds);
    ``process.cpu_util`` and ``trace.overhead_frac`` are filled by the caller."""
    per = 1.0 / max(solves, 1)
    values = {}
    for n in CALLS:
        values[f"{n}.calls"] = tracer.calls[n] * per
    for n in PER_CALL_US:
        calls = tracer.calls[n]
        values[f"{n}.us"] = tracer.total[n] / calls * 1e6 if calls else 0.0
    for n in PER_SOLVE_MS:
        values[f"{n}.ms"] = tracer.total[n] * 1e3 * per

    grid = bisect = mb = sweep_wall = winding_time = 0.0
    for wall, grid_size, calls, nbytes, w_time in tracer.sweeps:
        # the grid is evaluated before any bisection step
        grid += min(calls, grid_size)
        bisect += max(calls - grid_size, 0)
        mb += nbytes / 1e6
        sweep_wall += wall
        winding_time += w_time
    values["solvers.sweep.grid_evals"] = grid * per
    values["solvers.sweep.bisect_evals"] = bisect * per
    values["solvers.sweep.computed_mb"] = mb * per
    values["solvers.sweep.parallelism"] = winding_time / sweep_wall if sweep_wall else 0.0
    values["solvers.ladder.ms"] = sum(tracer.total[n] for n in LADDER) * 1e3 * per
    values["solvers.ladder.rungs"] = sum(tracer.calls[n] for n in LADDER) * per

    make_calls = tracer.calls["curve.make_curve"] + setup_tracer.calls["curve.make_curve"]
    make_time = tracer.total["curve.make_curve"] + setup_tracer.total["curve.make_curve"]
    values["curve.make_curve.ms"] = make_time / make_calls * 1e3 if make_calls else 0.0
    values["cli.self_ms"] = tracer.self_time["cli.run"] * 1e3 * per

    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in tracer.self_time.items():
        by_layer[name.split(".")[0]] += seconds
    for layer in LAYERS:
        values[f"self.{layer}.ms"] = by_layer[layer] * 1e3 * per
    units = dict(names())
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}
