"""Closed polyline curves in R^n with a normalized chord-length parameter.

A curve is an ordered list of at least four vertices; the polyline closes
implicitly from the last vertex back to the first.  The parameter t in [0, 1]
is normalized cumulative chord length, so ``eval(0) == eval(1) == points[0]``
and windows like ``(1 - eps, eps)`` around the base point are taken modulo 1.

Inputs are assumed injective (a simple closed curve); self-intersection is a
documented precondition and is not validated, since checking it costs O(m^2).
"""

from __future__ import annotations

import inspect
import json
import math

import numpy as np

from .errors import InvalidArgumentError

MIN_VERTICES = 4
MIN_SAMPLES = 16

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def row_norms(a):
    """Euclidean norm of each row, with a fixed summation order.

    Used instead of ``np.linalg.norm`` wherever bitwise reproducibility
    between scalar and batched evaluations matters (ratio-path endpoints).
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt((a * a).sum(axis=-1))


def point_segment_distance(x, a, b):
    """Exact distance from point ``x`` to the segment ``[a, b]``."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return float(np.linalg.norm(x - a))
    s = float(np.dot(x - a, ab)) / denom
    s = min(1.0, max(0.0, s))
    return float(np.linalg.norm(x - (a + s * ab)))


def point_segment_distances(x, a, b):
    """Exact distance from point ``x`` to each segment ``[a[i], b[i]]``."""
    x = np.asarray(x, dtype=float)
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    safe = np.where(denom == 0.0, 1.0, denom)
    s = ((x - a) * ab).sum(axis=1) / safe
    s = np.clip(np.where(denom == 0.0, 0.0, s), 0.0, 1.0)
    return row_norms(a + s[:, None] * ab - x)


class Curve:
    """Immutable closed polyline with chord-length parameterization."""

    def __init__(self, points):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2:
            raise InvalidArgumentError("points must be a 2-D array of vertices")
        m, n = pts.shape
        if m < MIN_VERTICES:
            raise InvalidArgumentError(f"need at least {MIN_VERTICES} vertices, got {m}")
        if n < 2:
            raise InvalidArgumentError(f"ambient dimension must be >= 2, got {n}")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("vertex coordinates must be finite")
        closed = np.vstack([pts, pts[:1]])
        seg = np.diff(closed, axis=0)
        seg_len = row_norms(seg)
        if np.any(seg_len == 0.0):
            raise InvalidArgumentError("consecutive vertices must be distinct")
        cum = np.concatenate(([0.0], np.cumsum(seg_len)))
        total = float(cum[-1])
        params = cum / total
        params[-1] = 1.0
        pts.setflags(write=False)
        params.setflags(write=False)
        self._points = pts
        self._params = params  # length m + 1, last entry exactly 1
        self._total_length = total
        self._bounds = None
        self._extent = None
        self._columns = None

    # -- basic accessors -------------------------------------------------

    @property
    def points(self):
        return self._points

    @property
    def dimension(self):
        return self._points.shape[1]

    @property
    def n_vertices(self):
        return self._points.shape[0]

    @property
    def params(self):
        """Cumulative chord-length parameters, one per vertex plus the closing 1.0."""
        return self._params

    @property
    def total_length(self):
        return self._total_length

    @property
    def origin(self):
        """The base point o = eval(0), i.e. the first vertex."""
        return self._points[0]

    @property
    def bounds(self):
        """Per-axis ``(lower, upper)`` corners of the vertices' bounding box."""
        if self._bounds is None:
            lower, upper = self._points.min(axis=0), self._points.max(axis=0)
            lower.setflags(write=False)
            upper.setflags(write=False)
            self._bounds = (lower, upper)
        return self._bounds

    @property
    def extent(self):
        """Bounding-box diagonal, a cheap stand-in for the diameter."""
        if self._extent is None:
            lower, upper = self.bounds
            self._extent = float(np.linalg.norm(upper - lower))
        return self._extent

    @property
    def columns(self):
        """The vertices as an (n, m) array, one contiguous row per axis.

        Per-vertex reductions over the coordinates (the sweep's projection)
        run several times faster on this layout than on ``points``.
        """
        if self._columns is None:
            cols = np.ascontiguousarray(self._points.T)
            cols.setflags(write=False)
            self._columns = cols
        return self._columns

    def __repr__(self):
        return f"Curve(m={self.n_vertices}, n={self.dimension}, length={self._total_length:.6g})"

    # -- evaluation ------------------------------------------------------

    def eval_many(self, ts):
        """Evaluate the curve at an array of parameters (reduced modulo 1)."""
        ts = np.asarray(ts, dtype=float)
        u = np.mod(ts, 1.0)
        m = self.n_vertices
        k = np.searchsorted(self._params, u, side="right") - 1
        k = np.clip(k, 0, m - 1)
        t0 = self._params[k]
        span = self._params[k + 1] - t0
        alpha = (u - t0) / span
        start = self._points[k]
        end = self._points[(k + 1) % m]
        return start + alpha[..., None] * (end - start)

    def eval(self, t):
        """Point at parameter t. Exact vertex values at vertex parameters."""
        return self.eval_many(np.asarray([t], dtype=float))[0]

    # -- derived curves --------------------------------------------------

    def resample(self, m):
        """New curve with ``m`` vertices at equally spaced parameters."""
        if m < MIN_SAMPLES:
            raise InvalidArgumentError(f"resample count must be >= {MIN_SAMPLES}, got {m}")
        ts = np.arange(m, dtype=float) / m
        return Curve(self.eval_many(ts))

    def with_base_param(self, t):
        """Rotate (and if needed split) the vertex list so parameter t becomes 0.

        Solvers fix the base point at parameter 0; this realizes an arbitrary
        requested base parameter without changing the traced point set.
        """
        if not math.isfinite(t):
            raise InvalidArgumentError(f"base parameter must be finite, got {t}")
        u = float(np.mod(t, 1.0))
        if u == 0.0:
            return self
        m = self.n_vertices
        k = int(np.searchsorted(self._params, u, side="right") - 1)
        k = min(max(k, 0), m - 1)
        if u == self._params[k]:
            rolled = np.roll(self._points, -k, axis=0)
            return Curve(rolled)
        new_point = self.eval(u)
        rotated = np.vstack([new_point[None, :], self._points[k + 1:], self._points[: k + 1]])
        return Curve(rotated)

    # -- distance queries ------------------------------------------------

    def farthest_param(self, base):
        """Parameter t1 maximizing the distance to ``base``.

        The distance along any single segment is convex, so the vertex argmax
        already attains the global maximum.  A golden-section pass over the two
        adjacent segments still replaces it unless strictly nearer, which moves
        t1 off the vertex by up to ~1e-13 on many curves (4096-sample unit
        circle: 0.500000000000012, vertex 0.5000000000000447); reports carry
        those digits.
        """
        base = np.asarray(base, dtype=float)
        if base.shape != (self.dimension,):
            raise InvalidArgumentError("base point dimension mismatch")
        if not np.all(np.isfinite(base)):
            raise InvalidArgumentError("base point must be finite")
        d = row_norms(self._points - base)
        k = int(np.argmax(d))  # first occurrence = smallest parameter
        lo = self._params[k - 1] if k > 0 else self._params[self.n_vertices - 1] - 1.0
        hi = self._params[k + 1]

        def f(t):
            return float(np.linalg.norm(self.eval(t) - base))

        t_star = _golden_max(f, lo, hi)
        if f(t_star) < d[k]:
            t_star = float(self._params[k])
        return float(np.mod(t_star, 1.0))

    def min_distance_excluding(self, base, excluded):
        """Infimum of distance from ``base`` to the curve outside a parameter arc.

        ``excluded`` is a modular open interval (lo, hi): the excluded arc runs
        forward from lo to hi, wrapping through 0 when lo > hi (the usual
        ``(1 - eps, eps)`` window around the base point).  Distances are exact
        per clipped segment.
        """
        lo, hi = (float(excluded[0]), float(excluded[1]))
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            raise InvalidArgumentError("excluded interval endpoints must lie in [0, 1]")
        retained_width = (lo - hi) % 1.0
        if retained_width == 0.0:
            raise InvalidArgumentError("excluded interval covers the whole curve")
        base = np.asarray(base, dtype=float)
        # Retained parameter set, as plain closed intervals inside [0, 1].
        if hi <= lo:
            retained = [(hi, lo)]
        else:
            retained = [(0.0, lo), (hi, 1.0)]
        best = math.inf
        params = self._params
        m = self.n_vertices
        for u, v in retained:
            if v <= u:
                continue
            # Segments j with params[j] < v and params[j + 1] > u; only the
            # first and the last can be clipped by the arc's ends.
            first = max(0, int(np.searchsorted(params, u, side="right") - 1))
            stop = int(np.searchsorted(params, v, side="left"))
            j = np.arange(first, stop)
            a = self._points[j]
            b = self._points[(j + 1) % m]
            if params[first] < u:
                a[0] = self.eval(u)
            if params[stop] > v:
                b[-1] = self.eval(v)
            best = min(best, float(point_segment_distances(base, a, b).min()))
        return float(best)


def _golden_max(f, lo, hi, iters=80):
    """Golden-section search for a maximum of f on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if b - a < 1e-14:
            break
    return 0.5 * (a + b)


# -- generators ------------------------------------------------------------


def _angles(samples):
    return 2.0 * math.pi * np.arange(samples, dtype=float) / samples


def _gen_circle(samples, radius=1.0, center=(0.0, 0.0)):
    th = _angles(samples)
    c = np.asarray(center, dtype=float)
    return np.column_stack([np.cos(th), np.sin(th)]) * float(radius) + c


def _gen_ellipse(samples, a=2.0, b=1.0):
    th = _angles(samples)
    return np.column_stack([float(a) * np.cos(th), float(b) * np.sin(th)])


def _gen_tilted_circle_nd(samples, n=3, radius=1.0):
    n = int(n)
    if n < 3:
        raise InvalidArgumentError("tilted_circle_nd needs ambient dimension >= 3")
    u1 = np.zeros(n)
    u1[0], u1[1] = 1.0, -1.0
    u1 /= np.linalg.norm(u1)
    u2 = np.zeros(n)
    u2[0], u2[1], u2[2] = 1.0, 1.0, -2.0
    u2 /= np.linalg.norm(u2)
    th = _angles(samples)
    return float(radius) * (np.outer(np.cos(th), u1) + np.outer(np.sin(th), u2))


def _gen_trefoil(samples):
    th = _angles(samples)
    w = 2.0 + np.cos(3.0 * th)
    return np.column_stack([w * np.cos(2.0 * th), w * np.sin(2.0 * th), np.sin(3.0 * th)])


def _gen_polygon(samples, sides=4, radius=1.0):
    sides = int(sides)
    if sides < 3:
        raise InvalidArgumentError("polygon needs at least 3 sides")
    th = _angles(sides)
    corners = np.column_stack([np.cos(th), np.sin(th)]) * float(radius)
    return _resample_closed_polyline(corners, samples)


def _resample_closed_polyline(corners, samples):
    closed = np.vstack([corners, corners[:1]])
    seg = np.diff(closed, axis=0)
    seg_len = row_norms(seg)
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    cum /= cum[-1]
    ts = np.arange(samples, dtype=float) / samples
    k = np.clip(np.searchsorted(cum, ts, side="right") - 1, 0, len(corners) - 1)
    alpha = (ts - cum[k]) / (cum[k + 1] - cum[k])
    return closed[k] + alpha[:, None] * seg[k]


def _polyline_chain(pieces, samples):
    """Sample a chain of parametric pieces proportionally to their lengths."""
    lengths = np.array([length for length, _ in pieces], dtype=float)
    total = lengths.sum()
    counts = np.maximum(1, np.floor(samples * lengths / total).astype(int))
    while counts.sum() < samples:
        counts[int(np.argmax(lengths / counts))] += 1
    while counts.sum() > samples:
        counts[int(np.argmax(counts))] -= 1
    chunks = []
    for (length, fn), c in zip(pieces, counts):
        s = np.arange(c, dtype=float) / c
        chunks.append(fn(s))
    return np.vstack(chunks)


def _gen_corner_wedge(samples, leg=1.0):
    """Two straight legs meeting at a right angle at the base, closed by an arc.

    The base vertex is exactly (0, 0); the outgoing leg runs along +x and the
    incoming leg comes down the +y axis, so the chords adjacent to the base
    are exactly perpendicular.
    """
    leg = float(leg)
    arc_len = leg * math.pi / 2.0

    def seg_out(s):
        return np.column_stack([leg * s, np.zeros_like(s)])

    def arc(s):
        th = (math.pi / 2.0) * s
        return np.column_stack([leg * np.cos(th), leg * np.sin(th)])

    def seg_in(s):
        return np.column_stack([np.zeros_like(s), leg * (1.0 - s)])

    return _polyline_chain([(leg, seg_out), (arc_len, arc), (leg, seg_in)], samples)


def _gen_u_turn(samples, half_angle_deg=10.0, leg=1.0):
    """A chevron: both legs leave the base steeply upward, folding back past it.

    The chord direction reverses no component across the base, so the chord
    dot products dip to zero at the base and rise again on both sides; no
    window around the base is monotone.
    """
    alpha = math.radians(float(half_angle_deg))
    leg = float(leg)
    a_out = leg * np.array([math.sin(alpha), math.cos(alpha)])
    a_in = leg * np.array([-math.sin(alpha), math.cos(alpha)])
    cy = 1.2 * leg
    r = math.hypot(a_out[0], a_out[1] - cy)
    th0 = math.atan2(a_out[1] - cy, a_out[0])
    th1 = math.atan2(a_in[1] - cy, a_in[0])
    if th1 < th0:
        th1 += 2.0 * math.pi
    arc_len = r * (th1 - th0)

    def leg_out(s):
        return np.outer(s, a_out)

    def cap(s):
        th = th0 + (th1 - th0) * s
        return np.column_stack([r * np.cos(th), cy + r * np.sin(th)])

    def leg_in(s):
        return np.outer(1.0 - s, a_in)

    return _polyline_chain([(leg, leg_out), (arc_len, cap), (leg, leg_in)], samples)


def _gen_fourier(samples, seed=0, terms=4, amp=0.1):
    """Smooth star-shaped perturbation of the unit circle with seeded coefficients."""
    rng = np.random.default_rng(int(seed))
    terms = int(terms)
    amp = float(amp)
    ks = np.arange(2, terms + 2)
    coef_a = rng.standard_normal(terms)
    coef_b = rng.standard_normal(terms)
    weight = np.sum(np.hypot(coef_a, coef_b))
    if weight > 0:
        coef_a *= amp / weight
        coef_b *= amp / weight
    th = _angles(samples)
    radius = 1.0 + sum(
        coef_a[i] * np.cos(k * th) + coef_b[i] * np.sin(k * th) for i, k in enumerate(ks)
    )
    return np.column_stack([radius * np.cos(th), radius * np.sin(th)])


GENERATORS = {
    "circle": _gen_circle,
    "ellipse": _gen_ellipse,
    "tilted_circle_nd": _gen_tilted_circle_nd,
    "trefoil": _gen_trefoil,
    "polygon": _gen_polygon,
    "corner_wedge": _gen_corner_wedge,
    "u_turn": _gen_u_turn,
    "fourier": _gen_fourier,
}


def make_curve(generator, samples=4096, **params):
    """Build a generator curve; vertices are re-parameterized by chord length."""
    if generator not in GENERATORS:
        raise InvalidArgumentError(
            f"unknown generator {generator!r}; choose from {sorted(GENERATORS)}"
        )
    samples = int(samples)
    if samples < MIN_SAMPLES:
        raise InvalidArgumentError(f"sample count must be >= {MIN_SAMPLES}, got {samples}")
    fn = GENERATORS[generator]
    accepted = list(inspect.signature(fn).parameters)[1:]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise InvalidArgumentError(
            f"unknown parameter(s) {', '.join(unknown)} for generator {generator!r}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )
    pts = fn(samples, **params)
    return Curve(pts)


def curve_from_spec(spec):
    """Build a curve from the JSON curve description.

    Accepts either ``{"dimension": n, "points": [[...], ...]}`` or
    ``{"generator": name, "params": {...}, "samples": m}``.
    """
    if not isinstance(spec, dict):
        raise InvalidArgumentError("curve spec must be a JSON object")
    if "points" in spec:
        pts = np.asarray(spec["points"], dtype=float)
        if pts.ndim != 2:
            raise InvalidArgumentError("curve spec points must be a list of coordinate rows")
        if "dimension" in spec and int(spec["dimension"]) != pts.shape[1]:
            raise InvalidArgumentError("declared dimension does not match the points")
        if pts.shape[0] >= 2 and np.array_equal(pts[0], pts[-1]):
            pts = pts[:-1]  # tolerate an explicitly closed point list
        return Curve(pts)
    if "generator" in spec:
        params = dict(spec.get("params", {}))
        samples = int(spec.get("samples", 4096))
        return make_curve(spec["generator"], samples=samples, **params)
    raise InvalidArgumentError("curve spec needs either 'points' or 'generator'")


def curve_from_json(text):
    return curve_from_spec(json.loads(text))


def load_curve(path):
    with open(path, "r", encoding="utf-8") as fh:
        return curve_from_json(fh.read())
