"""Command-line front end.

Subcommands: solve-similar, solve-equilateral, check-hypothesis,
check-monotone, sweep, plot.  Reports are JSON on stdout (or --out); curves
come from JSON files or generator shorthand like ``gen:ellipse,a=2,b=1``.

Exit codes: 0 success (solve commands require at least one triangle),
2 clean no-result, 1 error, 64 usage error, 66 unreadable input file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .curve import load_curve, make_curve
from .errors import InvalidArgumentError, NoBracketError, RefineFailedError, TriscribeError
from .frames import cylindrical_project
from .shape import shape_from_degrees
from .solvers import (
    EPSILON_LADDER,
    check_strong_monotone,
    chord_angle_bounds,
    completed_report,
    ratio_path,
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


def _at_least(minimum):
    return _checked(int, lambda v: v >= minimum, f"at least {minimum}")


_finite = _checked(float, math.isfinite, "finite")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_window = _checked(float, lambda v: 0.0 < v < 0.5, "in (0, 0.5)")


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
        samples = int(params.pop("samples", 4096))
        try:
            return make_curve(name, samples=samples, **params)
        except InvalidArgumentError as exc:
            raise CLIUsageError(str(exc)) from exc
    try:
        return load_curve(arg)
    except OSError as exc:
        raise FileNotFoundError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise FileNotFoundError(f"cannot parse curve file {arg!r}: {exc}") from exc


def parse_angles(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise CLIUsageError("--angles expects three comma-separated degrees")
    try:
        degs = [float(p) for p in parts]
    except ValueError as exc:
        raise CLIUsageError(f"bad angle value: {exc}") from exc
    return shape_from_degrees(*degs)


def _point_list(p):
    return [float(x) for x in np.asarray(p)]


def _triangle_dict(tri):
    return {
        "t_p": tri.t_p,
        "t_q": tri.t_q,
        "point_o": _point_list(tri.point_o),
        "point_p": _point_list(tri.point_p),
        "point_q": _point_list(tri.point_q),
        "residual_oq": tri.residual_oq,
        "residual_pq": tri.residual_pq,
    }


def _hypothesis_dict(report):
    if report is None:
        return None
    return {
        "delta": report.delta,
        "sup_outgoing": report.sup_outgoing,
        "inf_straddling": report.inf_straddling,
        "vertex_angle": report.vertex_angle,
        "satisfied": report.satisfied,
    }


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


def _sweep_dict(sweep, limit=None):
    grid = [[s.t, s.winding, s.status] for s in sweep.grid]
    if limit is not None:
        grid = grid[:limit]
    return {
        "grid_size": len(sweep.grid),
        "t_near": sweep.t_near,
        "t_far": sweep.t_far,
        "epsilon": sweep.epsilon,
        "bracket": list(sweep.bracket) if sweep.bracket else None,
        "windings": grid,
    }


def _input_dict(args, curve):
    return {
        "source": args.curve,
        "dimension": curve.dimension,
        "vertices": curve.n_vertices,
        "base_param": args.base,
    }


def _emit(report, args):
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _maybe_plot(args, curve, triangles):
    if not getattr(args, "plot_svg", None):
        return
    if curve.dimension != 2:
        raise InvalidArgumentError(
            "SVG plots need a 2-D curve; use the plot subcommand with --project"
        )
    doc = render_svg(
        curve_points=curve.points,
        base_point=curve.origin,
        triangles=[np.vstack([t.point_o, t.point_p, t.point_q]) for t in triangles],
    )
    write_svg(args.plot_svg, doc)


def _maybe_plot_ratio(args, curve):
    spec = getattr(args, "plot_ratio_path", None)
    if not spec:
        return
    try:
        s_text, path_out = spec.split(",", 1)
        s = float(s_text)
    except ValueError as exc:
        raise CLIUsageError("--plot-ratio-path expects <s>,<file>") from exc
    path = ratio_path(curve, s)
    doc = render_svg(
        curve_points=None,
        path_points=path.points,
        markers=[path.points[0], path.points[-1]],
    )
    write_svg(path_out, doc)


def _options(args):
    """Solver keyword arguments for the --grid and --tol flags that were given."""
    given = {"grid_size": getattr(args, "grid", None), "residual_tol": getattr(args, "tol", None)}
    return {key: value for key, value in given.items() if value is not None}


def _cmd_solve_similar(args):
    curve = parse_curve_arg(args.curve)
    shape = parse_angles(args.angles)
    started = time.perf_counter()
    outcome = solve_similar(curve, shape, base_param=args.base, **_options(args))
    elapsed = time.perf_counter() - started
    work = curve.with_base_param(args.base)
    report = {
        "command": "solve-similar",
        "input": _input_dict(args, curve),
        "shape": _shape_dict(shape),
        "hypothesis": _hypothesis_dict(outcome.hypothesis),
        "triangles": [_triangle_dict(t) for t in outcome.triangles],
        "sweep": _sweep_dict(outcome.sweep),
        "warnings": outcome.warnings,
    }
    if not args.no_timing:
        report["timing"] = {"seconds": elapsed}
    _emit(report, args)
    _maybe_plot(args, work, outcome.triangles)
    _maybe_plot_ratio(args, work)
    return EXIT_OK if outcome.triangles else EXIT_NO_RESULT


def _cmd_solve_equilateral(args):
    curve = parse_curve_arg(args.curve)
    started = time.perf_counter()
    outcome = solve_equilateral(curve, base_param=args.base, **_options(args))
    elapsed = time.perf_counter() - started
    work = curve.with_base_param(args.base)
    triangles = [outcome.triangle] if outcome.triangle else []
    report = {
        "command": "solve-equilateral",
        "input": _input_dict(args, curve),
        "monotone": {
            "epsilon": outcome.epsilon,
            "strongly_monotone": outcome.strongly_monotone,
            "loop_winding": outcome.loop_winding,
            "s_far": outcome.s_far,
            "s_near": outcome.s_near,
        },
        "triangles": [_triangle_dict(t) for t in triangles],
        "warnings": outcome.warnings,
    }
    if not args.no_timing:
        report["timing"] = {"seconds": elapsed}
    _emit(report, args)
    _maybe_plot(args, work, triangles)
    _maybe_plot_ratio(args, work)
    return EXIT_OK if triangles else EXIT_NO_RESULT


def _cmd_check_hypothesis(args):
    curve = parse_curve_arg(args.curve).with_base_param(args.base)
    shape = parse_angles(args.angles)
    ladder = [args.delta] if args.delta is not None else list(EPSILON_LADDER)
    reports = []
    chosen = None
    for delta in ladder:
        rep = completed_report(chord_angle_bounds(curve, delta, args.samples), shape.vertex_angle)
        reports.append(_hypothesis_dict(rep))
        if rep.satisfied and chosen is None:
            chosen = _hypothesis_dict(rep)
    report = {
        "command": "check-hypothesis",
        "input": _input_dict(args, curve),
        "shape": _shape_dict(shape),
        "hypothesis": chosen if chosen is not None else reports[-1],
        "ladder": reports,
        "satisfied": chosen is not None,
    }
    _emit(report, args)
    return EXIT_OK


def _cmd_check_monotone(args):
    curve = parse_curve_arg(args.curve).with_base_param(args.base)
    ladder = [args.epsilon] if args.epsilon is not None else list(EPSILON_LADDER)
    scanned = []
    chosen = None
    for eps in ladder:
        ok = check_strong_monotone(curve, eps, args.samples)
        scanned.append({"epsilon": eps, "strongly_monotone": ok})
        if ok and chosen is None:
            chosen = eps
    report = {
        "command": "check-monotone",
        "input": _input_dict(args, curve),
        "ladder": scanned,
        "strongly_monotone": chosen is not None,
        "epsilon": chosen,
    }
    _emit(report, args)
    return EXIT_OK


def _cmd_sweep(args):
    curve = parse_curve_arg(args.curve).with_base_param(args.base)
    shape = parse_angles(args.angles)
    result = sweep_similar(curve, shape, **_options(args))
    report = {
        "command": "sweep",
        "input": _input_dict(args, curve),
        "shape": _shape_dict(shape),
        "sweep": _sweep_dict(result),
        "seeds": [[t, s] for t, s in result.seeds],
    }
    _emit(report, args)
    return EXIT_OK if result.bracket or result.seeds else EXIT_NO_RESULT


def _cmd_plot(args):
    curve = parse_curve_arg(args.curve).with_base_param(args.base)
    wrote = False
    if args.plot_svg:
        pts = curve.points
        base = curve.origin
        if curve.dimension != 2:
            if not args.project:
                raise InvalidArgumentError(
                    "curve is not 2-D; pass --project to plot its cylindrical projection"
                )
            pts = cylindrical_project(pts)
            base = cylindrical_project(base)
        doc = render_svg(curve_points=pts, base_point=base)
        write_svg(args.plot_svg, doc)
        wrote = True
    _maybe_plot_ratio(args, curve)
    if not wrote and not args.plot_ratio_path:
        raise CLIUsageError("plot needs --plot-svg and/or --plot-ratio-path")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="triscribe", description=__doc__)
    parser.add_argument("--version", action="version", version=f"triscribe {__version__}")
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
    p.add_argument("--grid", type=_at_least(2), help="sweep grid size (default 256)")
    p.add_argument("--tol", type=_positive, help="residual tolerance (default 1e-9)")
    p.add_argument("--plot-svg", help="write an SVG of the curve and found triangles")
    p.add_argument("--plot-ratio-path", help="<s>,<file>: also plot the ratio path at s")
    p.set_defaults(fn=_cmd_solve_similar)

    p = sub.add_parser("solve-equilateral", help="inscribe an equilateral triangle at the base")
    common(p)
    p.add_argument("--tol", type=_positive, help="residual tolerance (default 1e-9)")
    p.add_argument("--plot-svg")
    p.add_argument("--plot-ratio-path")
    p.set_defaults(fn=_cmd_solve_equilateral)

    p = sub.add_parser("check-hypothesis", help="report the chord-angle condition")
    common(p, angles=True)
    p.add_argument("--delta", type=_window, help="window half-width (default: ladder)")
    p.add_argument("--samples", type=_at_least(8), default=64, help="grid nodes per axis")
    p.set_defaults(fn=_cmd_check_hypothesis)

    p = sub.add_parser("check-monotone", help="report strong monotonicity at the base")
    common(p)
    p.add_argument("--epsilon", type=_window, help="window half-width (default: ladder)")
    p.add_argument("--samples", type=_at_least(4), default=32, help="probe points")
    p.set_defaults(fn=_cmd_check_monotone)

    p = sub.add_parser("sweep", help="run the invariant sweep without refinement")
    common(p, angles=True)
    p.add_argument("--grid", type=_at_least(2), help="sweep grid size (default 256)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("plot", help="emit SVG plots without solving")
    common(p)
    p.add_argument("--plot-svg", help="write an SVG of the curve")
    p.add_argument("--plot-ratio-path", help="<s>,<file>: plot the ratio path at s")
    p.add_argument("--project", action="store_true",
                   help="plot the cylindrical projection of a higher-dimensional curve")
    p.set_defaults(fn=_cmd_plot)
    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CLIUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_NO_INPUT
    except NoBracketError as exc:
        diagnostic = {
            "command": argv[0] if argv else None,
            "result": "no-bracket",
            "detail": str(exc),
            "grid": [[s.t, s.winding, s.status] for s in exc.grid],
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
