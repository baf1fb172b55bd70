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
MAX_SAMPLES = 2 ** 22  # 64 times the largest benchmark curve; a larger count is refused unbuilt
# Caps on the generator parameters that size an array or a loop, refused
# unbuilt: the ambient dimension of tilted_circle_nd (the largest benchmark
# curve has 6), the corners of polygon and the terms of fourier's sum.
SIZE_CAPS = {"n": 16, "sides": MAX_SAMPLES, "terms": 256}
# Generator parameters that must be whole numbers: the sizes and fourier's seed.
WHOLE_PARAMS = SIZE_CAPS.keys() | {"seed"}
BLOCK_SIZE = 64  # segments per box of the block bounding-box index
PRUNE_BLOCKS = 32  # (query, block) pairs per pass of the block search
TREE_FANOUT = 8  # boxes of the level below per box of the block tree
TREE_TOP = 128  # the block tree gains a level while its top has more boxes
_BLOCK_SPAN = np.arange(BLOCK_SIZE)


def row_norms(a):
    """Euclidean norm of each row, with a fixed summation order.

    Used instead of ``np.linalg.norm`` wherever bitwise reproducibility
    between scalar and batched evaluations matters (ratio-path endpoints).
    """
    a = np.asarray(a, dtype=float)
    return np.sqrt((a * a).sum(axis=-1))


def point_segment_distances(x, a, b):
    """Exact distance from point ``x`` to each segment ``[a[i], b[i]]``."""
    x = np.asarray(x, dtype=float)
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    safe = np.where(denom == 0.0, 1.0, denom)
    s = ((x - a) * ab).sum(axis=1) / safe
    s = np.clip(np.where(denom == 0.0, 0.0, s), 0.0, 1.0)
    return row_norms(a + s[:, None] * ab - x)


def _padded(n, m):
    """An uninitialised (n, w) array for the columns of m vertices in R^n,
    w the columns of whole blocks of ``BLOCK_SIZE`` segments plus one, as
    ``Curve.block_vertices`` reads them."""
    return np.empty((n, -(-m // BLOCK_SIZE) * BLOCK_SIZE + 1))


def _segment_lengths(columns):
    """Length of each segment of the closed polyline with vertex columns
    ``columns`` (n, m), the closing segment last.  The squares are summed
    axis by axis, first to last: for n <= 7 the order ``row_norms`` sums a
    row in, so the lengths have the bits ``row_norms`` gives them."""
    step = np.empty(columns.shape[1])
    sq = np.zeros_like(step)
    with np.errstate(over="ignore"):  # an infinite length is refused by Curve._build
        for x in columns:
            np.subtract(x[1:], x[:-1], out=step[:-1])
            step[-1] = x[0] - x[-1]
            sq += step * step
    return np.sqrt(sq)


class Curve:
    """Immutable closed polyline with chord-length parameterization."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise InvalidArgumentError("points must be a 2-D array of vertices")
        m, n = pts.shape
        if m < MIN_VERTICES:
            raise InvalidArgumentError(f"need at least {MIN_VERTICES} vertices, got {m}")
        if n < 2:
            raise InvalidArgumentError(f"ambient dimension must be >= 2, got {n}")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("vertex coordinates must be finite")
        padded = _padded(n, m)
        padded[:, :m] = pts.T
        self._build(padded, _segment_lengths(padded[:, :m]))

    def _build(self, padded, seg_len):
        """Set the curve up from its segment lengths (the closing segment
        last) and a ``_padded`` array whose first m columns hold the
        vertices; its pad columns are set here."""
        if np.any(seg_len == 0.0):
            raise InvalidArgumentError("consecutive vertices must be distinct")
        cum = np.concatenate(([0.0], np.cumsum(seg_len)))
        total = float(cum[-1])
        if not math.isfinite(total):
            raise InvalidArgumentError("curve length overflows a float")
        params = cum / total
        params[-1] = 1.0
        m = seg_len.size
        padded[:, m:] = padded[:, :1]
        for array in (padded, seg_len, params):
            array.setflags(write=False)
        # Views: the vertices are held once.
        self._columns = padded[:, :m]
        self._points = self._columns.T
        step = padded.strides[1]
        self._block_vertices = np.lib.stride_tricks.as_strided(
            padded, (padded.shape[0], (padded.shape[1] - 1) // BLOCK_SIZE, BLOCK_SIZE + 1),
            (padded.strides[0], BLOCK_SIZE * step, step), writeable=False)
        self._seg_len = seg_len
        self._params = params  # length m + 1, last entry exactly 1
        self._total_length = total
        self._bounds = None
        self._extent = None
        self._blocks = None
        self._block_tree = None

    # -- basic accessors -------------------------------------------------

    @property
    def points(self):
        return self._points

    @property
    def dimension(self):
        return self._columns.shape[0]

    @property
    def n_vertices(self):
        return self._columns.shape[1]

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
            lower, upper = self.columns.min(axis=1), self.columns.max(axis=1)
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
        """The vertices as an (n, m) array, one contiguous row per axis: the
        first m columns of the padded array that ``block_vertices`` views.
        ``points`` is its transpose, a view.

        Per-vertex reductions over the coordinates (segment lengths, the
        bounding boxes, the distance queries, the sweep's projection) run
        several times faster on this layout than on an (m, n) one.
        """
        return self._columns

    @property
    def block_vertices(self):
        """The vertices of each block of ``blocks`` as rows: an (n, k,
        ``BLOCK_SIZE`` + 1) view of the vertex columns, whose entry (i, b, s)
        is coordinate i of vertex b B + s, a vertex past the last (the end of
        the closing segment and the padding of a short last block) read as
        vertex 0.  A block's vertices are then one contiguous row an axis."""
        return self._block_vertices

    @property
    def blocks(self):
        """Bounding boxes of runs of ``BLOCK_SIZE`` segments, as ``(mid, half)``:
        the box centres and half-widths, each an (n, k) array, one column per
        block.

        Block b holds vertices b B ... (b + 1) B, both ends included and capped
        at the last vertex; the last block also holds vertex 0, so each
        segment, the closing one included, lies in its block's box.
        """
        if self._blocks is None:
            m = self.n_vertices
            cols = self.columns
            starts = np.arange(0, m, BLOCK_SIZE)
            ends = cols[:, np.minimum(starts + BLOCK_SIZE, m) % m]
            lower = np.minimum(np.minimum.reduceat(cols, starts, axis=1), ends)
            upper = np.maximum(np.maximum.reduceat(cols, starts, axis=1), ends)
            mid = (lower + upper) / 2.0
            half = (upper - lower) / 2.0
            mid.setflags(write=False)
            half.setflags(write=False)
            self._blocks = (mid, half)
        return self._blocks

    @property
    def block_tree(self):
        """Levels of boxes over ``blocks``, bottom first: a tuple of ``(mid,
        half)`` pairs, the first of them ``blocks``.

        Box a of a level above the first holds boxes a F ... a F + F - 1 of
        the level below (F = ``TREE_FANOUT``), capped at its last: the
        corners of its box are the least and greatest of those boxes'
        rounded corners mid -+ half, so it holds them to within 2^-51 times
        the coordinate's largest magnitude over the vertices on each side.  A level is added
        while the top has more than ``TREE_TOP`` boxes, so a curve of at most
        ``TREE_TOP * BLOCK_SIZE`` vertices has the blocks alone.
        """
        if self._block_tree is None:
            levels = [self.blocks]
            while levels[-1][0].shape[1] > TREE_TOP:
                mid, half = levels[-1]
                starts = np.arange(0, mid.shape[1], TREE_FANOUT)
                lower = np.minimum.reduceat(mid - half, starts, axis=1)
                upper = np.maximum.reduceat(mid + half, starts, axis=1)
                mid = (lower + upper) / 2.0
                half = (upper - lower) / 2.0
                mid.setflags(write=False)
                half.setflags(write=False)
                levels.append((mid, half))
            self._block_tree = tuple(levels)
        return self._block_tree

    def __repr__(self):
        return f"Curve(m={self.n_vertices}, n={self.dimension}, length={self._total_length:.6g})"

    # -- evaluation ------------------------------------------------------

    def eval_many(self, ts):
        """Evaluate the curve at an array of parameters (reduced modulo 1)."""
        ts = np.asarray(ts, dtype=float)
        u = np.mod(ts, 1.0)
        m = self.n_vertices
        # u lies in [0, 1] (or is NaN), so only the top needs a cap.
        k = np.minimum(np.searchsorted(self._params, u, side="right") - 1, m - 1)
        t0 = self._params[k]
        span = self._params[k + 1] - t0
        alpha = (u - t0) / span
        start = self._points[k]
        end = self._points[(k + 1) % m]
        return start + alpha[..., None] * (end - start)

    def eval(self, t):
        """Point at parameter t. Exact vertex values at vertex parameters.

        The scalar form of ``eval_many``, with the same arithmetic, so both
        give the same bits.
        """
        u = float(t) % 1.0
        m = self.n_vertices
        k = min(max(int(np.searchsorted(self._params, u, side="right")) - 1, 0), m - 1)
        t0 = self._params[k]
        alpha = (u - t0) / (self._params[k + 1] - t0)
        start = self._points[k]
        return start + alpha * (self._points[(k + 1) % m] - start)

    # -- derived curves --------------------------------------------------

    def resample(self, m):
        """New curve with ``m`` vertices at equally spaced parameters."""
        _check_samples(m)
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
        # The new curve's vertex columns and segment lengths are this curve's,
        # rolled, with segment k split in two at eval(u) unless u is a vertex
        # parameter; its lengths are those Curve() would take.
        cols, seg_len = self._columns, self._seg_len
        if u == self._params[k]:
            padded = _padded(self.dimension, m)
            padded[:, :m - k] = cols[:, k:]
            padded[:, m - k:m] = cols[:, :k]
            seg_len = np.concatenate([seg_len[k:], seg_len[:k]])
        else:
            new_point = self.eval(u)
            halves = _segment_lengths(np.column_stack([cols[:, k], new_point, cols[:, (k + 1) % m]]))
            padded = _padded(self.dimension, m + 1)
            padded[:, 0] = new_point
            padded[:, 1:m - k] = cols[:, k + 1:]
            padded[:, m - k:m + 1] = cols[:, :k + 1]
            seg_len = np.concatenate([halves[1:2], seg_len[k + 1:], seg_len[:k], halves[:1]])
        curve = Curve.__new__(Curve)
        curve._build(padded, seg_len)
        return curve

    # -- distance queries ------------------------------------------------

    def _checked_base(self, base):
        """``base`` as an array, refused unless a finite point of the curve's space."""
        base = np.asarray(base, dtype=float)
        if base.shape != (self.dimension,):
            raise InvalidArgumentError("base point dimension mismatch")
        if not np.all(np.isfinite(base)):
            raise InvalidArgumentError("base point must be finite")
        return base

    def _least(self, floor, values, best=None):
        """Least ``(value, index)`` of each query, a row of ``floor`` (G, k), over
        the vertices (or the segments they start) of ``blocks``, ties going to
        the smaller index: two arrays, with ``best`` (default inf) and -1
        where nothing is below it.  ``values(g, j)`` gives the values of the
        vertices j for the queries g, and ``floor[g, b]`` bounds every value
        of block b for query g from below.  Each query's block of lowest
        floor, which most often holds its least value, is measured first,
        then every block whose floor does not exceed the least value so far
        (any other cannot hold it), ``PRUNE_BLOCKS`` (query, block) pairs at a
        time."""
        count = floor.shape[0]
        best = np.full(count, math.inf) if best is None else np.array(best, dtype=float)
        at = np.full(count, -1)
        pending = np.ones(floor.shape, dtype=bool)
        lowest = np.argmin(floor, axis=1)
        # A query whose lowest floor exceeds ``best`` has no block to measure.
        g = np.flatnonzero(floor[np.arange(count), lowest] <= best)
        b = lowest[g]
        while g.size:
            pending[g, b] = False
            # Block b holds vertices b B ... b B + B - 1, capped at the last.
            j = (b[:, None] * BLOCK_SIZE + _BLOCK_SPAN).ravel()
            real = j < self.n_vertices
            query, index = np.repeat(g, BLOCK_SIZE)[real], j[real]
            value = values(query, index)
            # Pairs come query by query, blocks ascending: each query's values
            # are contiguous, indices ascending, so its first least wins.
            if count == 1:  # the grouping below, in one call
                lead = np.argmin(value, keepdims=True)
            else:
                first = np.concatenate(([True], query[1:] != query[:-1]))
                group = np.cumsum(first) - 1
                least = np.minimum.reduceat(value, np.flatnonzero(first))
                hit = np.flatnonzero(value == least[group])
                lead = hit[np.concatenate(([True], np.diff(group[hit]) != 0))]
            q, v, i = query[lead], value[lead], index[lead]
            win = (v < best[q]) | ((v == best[q]) & (i < at[q]))
            best[q[win]], at[q[win]] = v[win], i[win]
            g, b = np.nonzero(pending & (floor <= best[:, None]))
            g, b = g[:PRUNE_BLOCKS], b[:PRUNE_BLOCKS]
        return best, at

    def farthest_param(self, base):
        """Parameter of the first vertex farthest from ``base``.

        The distance along any single segment is convex, so the farthest
        vertex attains the maximum over the curve.  Distances are taken on
        ``columns``, squares summed axis by axis, first to last (for n <= 7
        the order of ``row_norms``); blocks
        are measured farthest box first, and a block whose box lies nearer
        than the farthest vertex so far is skipped.
        """
        base = self._checked_base(base)

        def negated_distances(_, j):
            sq = np.zeros(j.size)
            for x, c in zip(self._columns, base):
                step = x[j] - c
                sq += step * step
            return -np.sqrt(sq)

        _, (k,) = self._least(-self._box_distances(base[:, None])[1], negated_distances)
        return float(self._params[k])

    def min_distance_excluding(self, base, excluded):
        """Infimum of distance from ``base`` to the curve outside a parameter arc.

        ``excluded`` is a modular open interval (lo, hi): the excluded arc runs
        forward from lo to hi, wrapping through 0 when lo > hi (the usual
        ``(1 - eps, eps)`` window around the base point).  Distances are exact
        per clipped segment.

        The retained arcs' end segments, clipped, give a first minimum.  The
        blocks of ``blocks`` that hold the other retained segments are then
        measured nearest box first, and a block whose box lies farther from
        ``base`` than the minimum so far is skipped: only segments that can
        hold the minimum are measured, each as it would be alone, so the
        pruning does not change the result.
        """
        base = self._checked_base(base)
        lo, hi = (float(excluded[0]), float(excluded[1]))
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            raise InvalidArgumentError("excluded interval endpoints must lie in [0, 1]")
        if (lo - hi) % 1.0 == 0.0:
            raise InvalidArgumentError("excluded interval covers the whole curve")
        # Retained parameter set, as plain closed intervals inside [0, 1].
        if hi <= lo:
            retained = [(hi, lo)]
        else:
            retained = [(0.0, lo), (hi, 1.0)]
        params = self._params
        m = self.n_vertices
        ends, inner = [], []
        for u, v in retained:
            if v <= u:
                continue
            # Segments j with params[j] < v and params[j + 1] > u; only the
            # first and the last can be clipped by the arc's ends.
            first = max(0, int(np.searchsorted(params, u, side="right") - 1))
            stop = int(np.searchsorted(params, v, side="left"))
            j = np.array([first, stop - 1])
            a = self._points[j]
            b = self._points[(j + 1) % m]
            if params[first] < u:
                a[0] = self.eval(u)
            if params[stop] > v:
                b[-1] = self.eval(v)
            if first == stop - 1:  # one segment, clipped at both ends
                a[1], b[0] = a[0], b[1]
            ends.append(point_segment_distances(base, a, b))
            if first + 1 < stop - 1:
                inner.append((first + 1, stop - 1))
        starts = np.arange(0, m, BLOCK_SIZE)
        # Blocks that hold a segment strictly inside a retained arc.
        overlap = np.zeros(starts.size, dtype=bool)
        for s0, s1 in inner:
            overlap |= (starts < s1) & (starts + BLOCK_SIZE > s0)

        def distances(_, seg):
            inside = np.any([(seg >= s0) & (seg < s1) for s0, s1 in inner], axis=0)
            dist = point_segment_distances(base, self._points[seg], self._points[(seg + 1) % m])
            return np.where(inside, dist, math.inf)

        floor = np.where(overlap, self._box_distances(base[:, None])[0], math.inf)
        (best,), _ = self._least(floor, distances, [np.concatenate(ends).min()])
        return float(best)

    def _box_distances(self, x):
        """Lower and upper bounds on the distance from each point, a column of
        ``x`` (n, G), to the points of each block's box, as (G, k) arrays.  The
        bounds are widened by a bound on the rounding of the box and of a
        distance taken from vertex coordinates."""
        mid, half = self.blocks
        lower, upper = self.bounds
        gap = np.abs(mid[:, None, :] - x[:, :, None])
        near = np.sqrt((np.maximum(gap - half[:, None, :], 0.0) ** 2).sum(axis=0))
        far = np.sqrt(((gap + half[:, None, :]) ** 2).sum(axis=0))
        # Every rounding error of those is a few ulps of the sizes below.
        reach = float(np.linalg.norm(np.maximum(-lower, upper))) + row_norms(x.T)
        slack = (self.dimension + 8) * 2.0 ** -50 * reach[:, None]
        return near - slack, far + slack


# -- generators ------------------------------------------------------------


def _angles(samples):
    return 2.0 * math.pi * np.arange(samples, dtype=float) / samples


def _positive(name, value):
    """``value`` as a float, refused unless positive and finite."""
    value = float(value)
    if not 0.0 < value < math.inf:  # NaN too
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")
    return value


def _gen_circle(samples, radius=1.0, center=(0.0, 0.0)):
    radius = _positive("radius", radius)
    th = _angles(samples)
    c = np.asarray(center, dtype=float)
    return np.column_stack([np.cos(th), np.sin(th)]) * radius + c


def _gen_ellipse(samples, a=2.0, b=1.0):
    th = _angles(samples)
    return np.column_stack([float(a) * np.cos(th), float(b) * np.sin(th)])


def _gen_tilted_circle_nd(samples, n=3, radius=1.0):
    n = int(n)
    if n < 3:
        raise InvalidArgumentError("tilted_circle_nd needs ambient dimension >= 3")
    radius = _positive("radius", radius)
    u1 = np.zeros(n)
    u1[0], u1[1] = 1.0, -1.0
    u1 /= np.linalg.norm(u1)
    u2 = np.zeros(n)
    u2[0], u2[1], u2[2] = 1.0, 1.0, -2.0
    u2 /= np.linalg.norm(u2)
    th = _angles(samples)
    return radius * (np.outer(np.cos(th), u1) + np.outer(np.sin(th), u2))


def _gen_trefoil(samples):
    th = _angles(samples)
    w = 2.0 + np.cos(3.0 * th)
    return np.column_stack([w * np.cos(2.0 * th), w * np.sin(2.0 * th), np.sin(3.0 * th)])


def _gen_polygon(samples, sides=4, radius=1.0):
    sides = int(sides)
    if sides < 3:
        raise InvalidArgumentError("polygon needs at least 3 sides")
    radius = _positive("radius", radius)
    th = _angles(sides)
    corners = np.column_stack([np.cos(th), np.sin(th)]) * radius
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
    if not 0.0 < total < math.inf:  # NaN too, before the count loops
        raise InvalidArgumentError(f"curve pieces must total a positive finite length, got {total}")
    counts = np.maximum(1, np.floor(samples * lengths / total).astype(int))
    while counts.sum() < samples:
        counts[int(np.argmax(lengths / counts))] += 1
    while counts.sum() > samples:
        counts[int(np.argmax(counts))] -= 1
    return np.vstack([fn(np.arange(c, dtype=float) / c) for (_, fn), c in zip(pieces, counts)])


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
    window around the base is monotone.  At a half angle of 0 or 180 degrees
    and beyond, the legs overlap or cross, so the curve is not simple.
    """
    half_angle_deg = float(half_angle_deg)
    if not 0.0 < half_angle_deg < 180.0:  # NaN too
        raise InvalidArgumentError(f"half_angle_deg must lie in (0, 180), got {half_angle_deg}")
    alpha = math.radians(half_angle_deg)
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


def _check_samples(count):
    """Refuse a vertex count outside [MIN_SAMPLES, MAX_SAMPLES] before any
    array of that size is allocated."""
    if not MIN_SAMPLES <= count <= MAX_SAMPLES:
        raise InvalidArgumentError(
            f"sample count must lie in [{MIN_SAMPLES}, {MAX_SAMPLES}], got {count}"
        )


def _whole(name, value):
    """``value`` as an int, refusing one that is not a whole number (a
    string, a fraction, NaN or inf)."""
    if isinstance(value, str) or not (isinstance(value, int) or float(value).is_integer()):
        raise InvalidArgumentError(f"{name} must be an integer, got {value}")
    return int(value)


def _size(value):
    """A generator size parameter as a float for its cap: inf when it
    overflows one, NaN when it is not a number (its generator refuses it)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf
    except (TypeError, ValueError):
        return math.nan


def make_curve(generator, samples=4096, **params):
    """Build a generator curve; vertices are re-parameterized by chord length."""
    if generator not in GENERATORS:
        raise InvalidArgumentError(
            f"unknown generator {generator!r}; choose from {sorted(GENERATORS)}"
        )
    samples = _whole("samples", samples)
    _check_samples(samples)
    fn = GENERATORS[generator]
    accepted = list(inspect.signature(fn).parameters)[1:]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise InvalidArgumentError(
            f"unknown parameter(s) {', '.join(unknown)} for generator {generator!r}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )
    for key in sorted(WHOLE_PARAMS & params.keys()):
        if _size(params[key]) > SIZE_CAPS.get(key, math.inf):
            raise InvalidArgumentError(
                f"generator parameter {key} must be at most {SIZE_CAPS[key]}, got {params[key]}"
            )
        if not isinstance(params[key], str):  # a string is left to its generator to read
            _whole(f"generator parameter {key}", params[key])
    with np.errstate(all="ignore"):  # Curve() refuses what an overflow or NaN leaves behind
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
        return make_curve(spec["generator"], samples=spec.get("samples", 4096), **params)
    raise InvalidArgumentError("curve spec needs either 'points' or 'generator'")


def curve_from_json(text):
    return curve_from_spec(json.loads(text))


def load_curve(path):
    with open(path, "r", encoding="utf-8") as fh:
        return curve_from_json(fh.read())
