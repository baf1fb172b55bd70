"""Deterministic SVG 1.1 emission for curves, triangles and ratio paths.

No plotting dependency: output is assembled from fixed format strings, so a
given input always produces byte-identical files.  Only 2-D data is accepted;
higher-dimensional curves must be projected first.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="{vb}">\n'
)
_FOOTER = "</svg>\n"

CURVE_STYLE = 'fill="none" stroke="#1f77b4" stroke-width="{sw}"'
TRIANGLE_STYLE = 'fill="none" stroke="#d62728" stroke-width="{sw}"'
PATH_STYLE = 'fill="none" stroke="#2ca02c" stroke-width="{sw}"'
SIZE = 640  # pixels along the longer side of the drawing


def _fmt(x):
    return f"{x:.6f}"


def _points_attr(pts):
    return " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts)


def _require_2d(pts, what):
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidArgumentError(
            f"{what} must be 2-D for SVG output; project higher-dimensional data first"
        )
    return pts


def render_svg(curve_points=None, *, base_point=None, triangles=(), path_points=None,
               markers=()):
    """Render an SVG document string, ``SIZE`` pixels along its longer side.

    ``curve_points`` draws one closed polyline per call; each entry of
    ``triangles`` (a point triple) draws one closed polyline; ``path_points``
    draws an open polyline (a ratio path); ``markers`` are (x, y) circles.
    """
    groups = []
    all_pts = []
    if curve_points is not None:
        pts = _require_2d(curve_points, "curve")
        all_pts.append(pts)
    if path_points is not None:
        ppts = _require_2d(path_points, "path")
        all_pts.append(ppts)
    tris = [np.asarray(t, dtype=float) for t in triangles]
    for t in tris:
        all_pts.append(_require_2d(t, "triangle"))
    if base_point is not None:
        all_pts.append(np.asarray(base_point, dtype=float)[None, :])
    for mk in markers:
        all_pts.append(np.asarray(mk, dtype=float)[None, :])
    if not all_pts:
        raise InvalidArgumentError("nothing to draw")
    stacked = np.vstack(all_pts)
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.05 * float(span.max())
    width = float(span[0]) + 2 * pad
    height = float(span[1]) + 2 * pad
    view_box = f"{_fmt(lo[0] - pad)} {_fmt(-(hi[1] + pad))} {_fmt(width)} {_fmt(height)}"
    stroke = _fmt(0.004 * max(width, height))
    if curve_points is not None:
        draw = np.vstack([pts, pts[:1]])
        groups.append(f'<polyline {CURVE_STYLE.format(sw=stroke)} points="{_points_attr(draw)}"/>')
    for t in tris:
        draw = np.vstack([t, t[:1]])
        groups.append(
            f'<polyline {TRIANGLE_STYLE.format(sw=stroke)} points="{_points_attr(draw)}"/>'
        )
    if path_points is not None:
        groups.append(
            f'<polyline {PATH_STYLE.format(sw=stroke)} points="{_points_attr(ppts)}"/>'
        )
    radius = _fmt(0.012 * max(width, height))
    if base_point is not None:
        bp = np.asarray(base_point, dtype=float)
        groups.append(
            f'<circle fill="#2ca02c" cx="{_fmt(bp[0])}" cy="{_fmt(-bp[1])}" r="{radius}"/>'
        )
    for mk in markers:
        mk = np.asarray(mk, dtype=float)
        groups.append(
            f'<circle fill="#555555" cx="{_fmt(mk[0])}" cy="{_fmt(-mk[1])}" r="{radius}"/>'
        )
    h_px = int(round(SIZE * height / width)) if width >= height else SIZE
    w_px = SIZE if width >= height else int(round(SIZE * width / height))
    doc = _HEADER.format(w=w_px, h=h_px, vb=view_box) + "\n".join(groups) + "\n" + _FOOTER
    return doc


def write_svg(path, document):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
