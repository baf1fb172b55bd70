"""Answer checks that do not use the solver's own code.

A returned triangle passes when, measured here from scratch on the input
polyline:

* its side-ratio residual against the requested angles is at most 1e-9;
* each reported vertex lies within 1e-9 * extent of the input polyline;
* ``point_o`` is the polyline point at the requested base parameter, and
  ``point_p`` / ``point_q`` are the points at ``base + t_p`` / ``base + t_q``
  (the solvers report parameters of the curve re-based at ``base``).

Outcomes are compared with the golden outcome recorded at the seed commit as
order-free sets of modular parameter pairs, at 1e-6.
"""

from __future__ import annotations

import math

import numpy as np

RESIDUAL_TOL = 1e-9
ON_CURVE_TOL = 1e-9  # times the bounding-box diagonal of the input polyline
PARAM_TOL = 1e-6


class Polyline:
    """Closed chord-length polyline, rebuilt from the raw vertex array."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self.seg = np.roll(self.points, -1, axis=0) - self.points
        lengths = np.sqrt((self.seg * self.seg).sum(axis=1))
        self.cum = np.concatenate(([0.0], np.cumsum(lengths)))
        self.lengths = lengths
        span = self.points.max(axis=0) - self.points.min(axis=0)
        self.extent = float(np.sqrt((span * span).sum()))

    def point_at(self, t):
        s = (float(t) % 1.0) * self.cum[-1]
        k = int(np.clip(np.searchsorted(self.cum, s, side="right") - 1, 0, len(self.lengths) - 1))
        return self.points[k] + ((s - self.cum[k]) / self.lengths[k]) * self.seg[k]

    def distance(self, x):
        rel = np.asarray(x, dtype=float) - self.points
        s = np.clip((rel * self.seg).sum(axis=1) / (self.lengths * self.lengths), 0.0, 1.0)
        d = rel - s[:, None] * self.seg
        return float(np.sqrt((d * d).sum(axis=1)).min())


def shape_residual(angles_deg, o, p, q):
    """Largest side-ratio residual of (o, p, q) against angles (at o, p, q).

    Ratios are taken against |p - o|, as the solvers do; the p/q labels are
    free, so the better of the two labellings counts.
    """
    a_o, a_p, a_q = (math.radians(a) for a in angles_deg)
    d_op = math.dist(o, p)
    d_oq = math.dist(o, q)
    d_pq = math.dist(p, q)
    if d_op == 0.0:
        return math.inf
    best = math.inf
    for at_p, at_q in ((a_p, a_q), (a_q, a_p)):
        r_oq = math.sin(at_p) / math.sin(at_q)
        r_pq = math.sin(a_o) / math.sin(at_q)
        best = min(best, max(abs(d_oq / d_op - r_oq), abs(d_pq / d_op - r_pq)))
    return best


def check_triangle(poly, angles_deg, base, tri):
    """Return None when ``tri`` passes, else a one-line reason.

    ``tri`` is a dict with ``t_p``, ``t_q``, ``point_o``, ``point_p`` and
    ``point_q``, as in the CLI report.
    """
    o, p, q = (np.asarray(tri[k], dtype=float) for k in ("point_o", "point_p", "point_q"))
    if not all(np.all(np.isfinite(v)) for v in (o, p, q)):
        return "non-finite vertex"
    res = shape_residual(angles_deg, o, p, q)
    if not res <= RESIDUAL_TOL:
        return f"residual {res:.3e} > {RESIDUAL_TOL:g}"
    tol = ON_CURVE_TOL * max(poly.extent, 1e-300)
    for name, v in (("o", o), ("p", p), ("q", q)):
        d = poly.distance(v)
        if not d <= tol:
            return f"vertex {name} is {d:.3e} off the polyline"
    expected = (
        ("o", o, base),
        ("p", p, base + float(tri["t_p"])),
        ("q", q, base + float(tri["t_q"])),
    )
    for name, v, t in expected:
        d = float(np.linalg.norm(v - poly.point_at(t)))
        if not d <= tol:
            return f"point_{name} is {d:.3e} from the polyline point at its parameter"
    return None


def _mod_close(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d) <= PARAM_TOL


def same_triangles(pairs, golden_pairs):
    """Order-free match of two lists of (t_p, t_q) pairs, labels free too."""
    if len(pairs) != len(golden_pairs):
        return False
    left = list(golden_pairs)
    for tp, tq in pairs:
        for i, (gp, gq) in enumerate(left):
            if (_mod_close(tp, gp) and _mod_close(tq, gq)) or (
                _mod_close(tp, gq) and _mod_close(tq, gp)
            ):
                del left[i]
                break
        else:
            return False
    return True


def same_outcome(outcome, golden):
    """Outcomes are {"class": ..., "triangles": [[t_p, t_q], ...]}."""
    if outcome["class"] != golden["class"]:
        return False
    if outcome["class"] != "triangles":
        return True
    return same_triangles(outcome["triangles"], golden["triangles"])
