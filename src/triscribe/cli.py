"""Command-line front end.

Subcommands: solve-similar, solve-equilateral, check-hypothesis,
check-monotone, sweep, plot.  Reports are JSON on stdout (or --out); curves
come from JSON files or generator shorthand like ``gen:ellipse,a=2,b=1``.

Exit codes: 0 success (solve commands require at least one triangle),
2 clean no-result, 1 error (also an output file that cannot be written),
64 usage error, 66 unreadable input file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .curve import load_curve, make_curve
from .errors import InvalidArgumentError, NoBracketError, RefineFailedError, TriscribeError
from .shape import shape_from_degrees
from .solvers import (
    EPSILON_LADDER,
    MAX_GRID_SIZE,
    AngleConditionReport,
    InscribedTriangle,
    check_strong_monotone,
    chord_angle_bounds,
    ratio_path,
    similar_window,
    solve_equilateral,
    solve_similar,
    sweep_similar,
)
from .svgplot import render_svg, write_svg

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_RESULT = 2
EXIT_USAGE = 64
EXIT_NO_INPUT = 66


class CLIUsageError(Exception):
    pass


class _InputError(Exception):
    """The --curve file cannot be read or parsed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIUsageError(message)


def _checked(kind, accept, requirement):
    """argparse type: convert with ``kind``, then reject values failing ``accept``."""

    def parse(text):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid <type> value" message reads it
    return parse


_grid = _checked(int, lambda v: 2 <= v <= MAX_GRID_SIZE, f"in [2, {MAX_GRID_SIZE}]")
_finite = _checked(float, math.isfinite, "finite")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_window = _checked(float, lambda v: 0.0 < v < 0.5, "in (0, 0.5)")


def _ratio_spec(text):
    """argparse type of --plot-ratio-path: ``<s>,<file>`` with s in (0, 1)."""
    s_text, _, path = text.partition(",")
    try:
        s = float(s_text)
    except ValueError:
        s = math.nan
    if not (0.0 < s < 1.0 and path):
        raise argparse.ArgumentTypeError(f"must be <s>,<file> with s in (0, 1), got {text}")
    return s, path


def _parse_value(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_curve_arg(arg):
    """Load a curve from ``gen:name,k=v,...`` shorthand or a JSON file path."""
    if arg.startswith("gen:"):
        body = arg[len("gen:"):]
        parts = [p for p in body.split(",") if p]
        if not parts:
            raise CLIUsageError("empty generator spec")
        name = parts[0]
        params = {}
        for item in parts[1:]:
            if "=" not in item:
                raise CLIUsageError(f"bad generator parameter {item!r}; expected key=value")
            key, value = item.split("=", 1)
            params[key] = _parse_value(value)
        try:
            return make_curve(name, **params)
        except InvalidArgumentError as exc:
            raise CLIUsageError(str(exc)) from exc
        except (ValueError, TypeError, OverflowError) as exc:  # a value the generator cannot take
            key = next((k for k, v in params.items() if isinstance(v, str)), None)
            if key is None:
                raise CLIUsageError(f"bad generator parameter value: {exc}") from exc
            raise CLIUsageError(f"generator parameter {key} must be a number, got {params[key]}") from exc
    try:
        return load_curve(arg)
    except TriscribeError:
        raise
    except OSError as exc:
        raise _InputError(str(exc)) from exc
    except (ValueError, TypeError) as exc:  # not JSON, or JSON of the wrong shape
        raise _InputError(f"cannot parse curve file {arg!r}: {exc}") from exc


def parse_angles(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise CLIUsageError("--angles expects three comma-separated degrees")
    try:
        degs = [float(p) for p in parts]
    except ValueError as exc:
        raise CLIUsageError(f"bad angle value: {exc}") from exc
    return shape_from_degrees(*degs)


def _json_default(obj):
    """Write the solver dataclasses field by field and arrays as lists."""
    if isinstance(obj, (InscribedTriangle, AngleConditionReport)):
        return vars(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _shape_dict(shape):
    return {
        "angles_deg": [
            math.degrees(shape.angle_o),
            math.degrees(shape.angle_p),
            math.degrees(shape.angle_q),
        ],
        "ratio_oq": shape.ratio_oq,
        "ratio_pq": shape.ratio_pq,
        "vertex_angle_deg": math.degrees(shape.vertex_angle),
    }


def _windings(grid):
    return [[s.t, s.winding, s.status] for s in grid]


def _sweep_dict(sweep):
    return {
        "grid_size": len(sweep.grid),
        "t_near": sweep.t_near,
        "t_far": sweep.t_far,
        "epsilon": sweep.epsilon,
        "bracket": sweep.bracket,
        "windings": _windings(sweep.grid),
    }


def _emit(report, args):
    text = json.dumps(report, indent=2, default=_json_default)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cylindrical_project(x):
    """Collapse the first n-1 coordinates to their radius: x -> (d, x_n),
    the plane in which ``plot --project`` draws a curve that is not 2-D.
    After the canonical frame of a candidate sphere, every point of the
    sphere maps to (1, 0)."""
    x = np.asarray(x, dtype=float)
    d = np.sqrt((x[..., :-1] ** 2).sum(axis=-1))
    return np.stack([d, x[..., -1]], axis=-1)


def _plot(args, curve, triangles):
    """Write the SVGs asked for.  ``run`` has already refused --plot-svg on a
    curve that is not 2-D, unless ``plot --project`` asked for its projection."""
    if args.plot_svg:
        points, base = curve.points, curve.origin
        if curve.dimension != 2:
            points, base = cylindrical_project(points), cylindrical_project(base)
        doc = render_svg(
            curve_points=points,
            base_point=base,
            triangles=[np.vstack([t.point_o, t.point_p, t.point_q]) for t in triangles],
        )
        write_svg(args.plot_svg, doc)
    if args.plot_ratio_path:
        s, path_out = args.plot_ratio_path
        path = ratio_path(curve, s)
        doc = render_svg(path_points=path, markers=[path[0], path[-1]])
        write_svg(path_out, doc)


def _options(args):
    """Solver keyword arguments for the --grid and --tol flags that were given."""
    given = {"grid_size": args.grid, "residual_tol": args.tol}
    return {key: value for key, value in given.items() if value is not None}


# Each subcommand takes the parsed flags, the curve rebased to --base and the
# --angles shape, and returns its report body (None: no report) and its
# triangles (None: the command does not solve, is not timed and always exits 0).


def _solve_similar(args, curve, shape):
    outcome = solve_similar(curve, shape, **_options(args))
    body = {
        "hypothesis": outcome.hypothesis,
        "triangles": outcome.triangles,
        "sweep": _sweep_dict(outcome.sweep),
        "warnings": outcome.warnings,
    }
    return body, outcome.triangles


def _solve_equilateral(args, curve, shape):
    outcome = solve_equilateral(curve, **_options(args))
    triangles = [outcome.triangle]
    body = {
        "monotone": {
            "epsilon": outcome.epsilon,
            "strongly_monotone": outcome.strongly_monotone,
            "loop_winding": outcome.loop_winding,
            "s_far": outcome.s_far,
            "s_near": outcome.s_near,
        },
        "triangles": triangles,
        "warnings": outcome.warnings,
    }
    return body, triangles


def _check_hypothesis(args, curve, shape):
    ladder = EPSILON_LADDER if args.delta is None else [args.delta]
    reports = [chord_angle_bounds(curve, delta, shape.vertex_angle) for delta in ladder]
    chosen = next((rep for rep in reports if rep.satisfied), reports[-1])
    return {"hypothesis": chosen, "ladder": reports, "satisfied": chosen.satisfied}, None


def _check_monotone(args, curve, shape):
    ladder = EPSILON_LADDER if args.epsilon is None else [args.epsilon]
    scanned = [
        {"epsilon": eps, "strongly_monotone": check_strong_monotone(curve, eps)}
        for eps in ladder
    ]
    chosen = next((row["epsilon"] for row in scanned if row["strongly_monotone"]), None)
    return {"ladder": scanned, "strongly_monotone": chosen is not None, "epsilon": chosen}, None


def _sweep(args, curve, shape):
    # The window solve-similar sweeps at; sweep_similar raises NoBracketError
    # rather than return without seeds.
    epsilon = similar_window(curve, shape)[0]
    result = sweep_similar(curve, shape, epsilon=epsilon, **_options(args))
    return {"sweep": _sweep_dict(result), "seeds": result.seeds}, None


def _plot_only(args, curve, shape):
    if not (args.plot_svg or args.plot_ratio_path):
        raise CLIUsageError("plot needs --plot-svg and/or --plot-ratio-path")
    return None, None


@functools.cache
def build_parser():
    """The argument parser, built once per process; callers must not change it."""
    parser = _Parser(prog="triscribe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"triscribe {__version__}")
    parser.set_defaults(angles=None, grid=None, tol=None, plot_svg=None, plot_ratio_path=None,
                        project=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, angles=False):
        p.add_argument("--curve", required=True, help="curve JSON file or gen:name,k=v,...")
        p.add_argument("--base", type=_finite, default=0.0, help="base-point parameter in [0,1)")
        if angles:
            p.add_argument("--angles", required=True, help="vertex angles in degrees, e.g. 60,60,60")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--no-timing", action="store_true", help="omit timing for byte-stable output")

    p = sub.add_parser("solve-similar", help="inscribe a triangle similar to --angles")
    common(p, angles=True)
    p.add_argument("--grid", type=_grid, help="sweep grid size (default 256)")
    p.add_argument("--tol", type=_positive, help="residual tolerance (default 1e-9)")
    p.add_argument("--plot-svg", help="write an SVG of the curve and found triangles")
    p.add_argument("--plot-ratio-path", type=_ratio_spec,
                   help="<s>,<file>: also plot the ratio path at s")
    p.set_defaults(fn=_solve_similar)

    p = sub.add_parser("solve-equilateral", help="inscribe an equilateral triangle at the base")
    common(p)
    p.add_argument("--tol", type=_positive, help="residual tolerance (default 1e-9)")
    p.add_argument("--plot-svg")
    p.add_argument("--plot-ratio-path", type=_ratio_spec)
    p.set_defaults(fn=_solve_equilateral)

    p = sub.add_parser("check-hypothesis", help="report the chord-angle condition")
    common(p, angles=True)
    p.add_argument("--delta", type=_window, help="window half-width (default: ladder)")
    p.set_defaults(fn=_check_hypothesis)

    p = sub.add_parser("check-monotone", help="report strong monotonicity at the base")
    common(p)
    p.add_argument("--epsilon", type=_window, help="window half-width (default: ladder)")
    p.set_defaults(fn=_check_monotone)

    p = sub.add_parser("sweep", help="run the invariant sweep; report its bracket and seeds")
    common(p, angles=True)
    p.add_argument("--grid", type=_grid, help="sweep grid size (default 256)")
    p.set_defaults(fn=_sweep)

    p = sub.add_parser("plot", help="emit SVG plots without solving")
    common(p)
    p.add_argument("--plot-svg", help="write an SVG of the curve")
    p.add_argument("--plot-ratio-path", type=_ratio_spec,
                   help="<s>,<file>: plot the ratio path at s")
    p.add_argument("--project", action="store_true",
                   help="plot the cylindrical projection of a higher-dimensional curve")
    p.set_defaults(fn=_plot_only)
    return parser


def run(argv):
    try:
        args = build_parser().parse_args(argv)
        curve = parse_curve_arg(args.curve)
        shape = parse_angles(args.angles) if args.angles is not None else None
        work = curve.with_base_param(args.base)
        if args.plot_svg and curve.dimension != 2 and not args.project:
            raise InvalidArgumentError(
                "curve is not 2-D; pass --project to plot its cylindrical projection"
                if args.command == "plot"
                else "SVG plots need a 2-D curve; use the plot subcommand with --project"
            )
        started = time.perf_counter()
        body, triangles = args.fn(args, work, shape)
        elapsed = time.perf_counter() - started
        if body is not None:
            report = {
                "command": args.command,
                "input": {
                    "source": args.curve,
                    "dimension": curve.dimension,
                    "vertices": curve.n_vertices,
                    "base_param": args.base,
                },
            }
            if shape is not None:
                report["shape"] = _shape_dict(shape)
            report.update(body)
            if triangles is not None and not args.no_timing:
                report["timing"] = {"seconds": elapsed}
            _emit(report, args)
        _plot(args, work, triangles or [])
        return EXIT_NO_RESULT if triangles == [] else EXIT_OK
    except CLIUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_NO_INPUT
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except NoBracketError as exc:
        diagnostic = {
            "command": argv[0] if argv else None,
            "result": "no-bracket",
            "detail": str(exc),
            "grid": _windings(exc.grid),
        }
        print(json.dumps(diagnostic, indent=2))
        return EXIT_NO_RESULT
    except RefineFailedError as exc:
        print(f"refinement failed: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    except TriscribeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
