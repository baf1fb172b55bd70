"""Reference definitions that no solver runs, for tests to compare against
(``from reference import ...``); none is built for speed.  The rotated frame
of a candidate sphere, which with ``triscribe.cli.cylindrical_project`` gives
the planar path whose winding around (1, 0) the sweep kernel takes in closed
form; angle-sum windings of planar paths; brute-force oracles, among them the
ray-crossing winding count (Hormann & Agathos, CGTA 2001); and one-call forms
of batched solver steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from triscribe import solvers
from triscribe.curve import BLOCK_SIZE, point_segment_distances, row_norms
from triscribe.errors import (
    DegenerateConfigurationError,
    InfeasibleShapeError,
    InvalidArgumentError,
    NoBracketError,
    RefineFailedError,
    SingularPathError,
    TriscribeError,
)

ANTIPARALLEL_TOL = 1e-8
ROUNDING_SLACK = 0.01  # distance from an integer at which an angle sum is refused
FULL_BISECT_WIDTH = 1e-10  # a bracket width far below the solvers' HANDOFF_WIDTH


class NumericalDegeneracyError(TriscribeError):
    """A closed-path angle sweep (the reference winding) failed to round to an integer."""


@dataclass(frozen=True)
class Sphere:
    """An (n-2)-sphere: points at ``radius`` from ``center`` inside the
    hyperplane through ``center`` with unit ``normal``.  For n = 2 this is a
    pair of points."""

    center: np.ndarray
    radius: float
    normal: np.ndarray
    dimension: int

    def surface_points(self, count, seed=0):
        """Deterministic sample of points on the sphere (both points if n = 2)."""
        n = self.dimension
        basis = rotation_aligning(self.normal, _axis(n, n - 1)).T[:, : n - 1]
        if n == 2:
            u = basis[:, 0]
            reps = (count + 1) // 2
            pts = np.vstack([self.center + self.radius * u, self.center - self.radius * u] * reps)
            return pts[:count]
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((count, n - 1))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        return self.center + self.radius * z @ basis.T


@dataclass(frozen=True)
class ScaledIsometry:
    """x -> scale * rotation @ (x + translation), with rotation in SO(n)."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float


def _axis(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def third_vertex_sphere(o, p, shape):
    """The sphere of third vertices q making (o, p, q) similar to ``shape``."""
    o = np.asarray(o, dtype=float)
    p = np.asarray(p, dtype=float)
    d = p - o
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise DegenerateConfigurationError("sphere requires p distinct from o")
    r1 = shape.ratio_oq * dist
    r2 = shape.ratio_pq * dist
    alpha = (r1 * r1 - r2 * r2 + dist * dist) / (2.0 * dist * dist)
    rad_sq = r1 * r1 - alpha * alpha * dist * dist
    if rad_sq <= 0.0:
        # Cannot occur for a shape built from strictly interior angles.
        raise InfeasibleShapeError("side ratios admit no third vertex off the o-p line")
    return Sphere(
        center=o + alpha * d,
        radius=float(np.sqrt(rad_sq)),
        normal=d / dist,
        dimension=o.shape[0],
    )


def rotation_aligning(a, b):
    """Minimal rotation in SO(n) carrying unit vector ``a`` to unit vector ``b``.

    Acts as the identity on the orthogonal complement of span(a, b).  When the
    vectors are antiparallel the minimal rotation is not unique; the convention
    here rotates by pi in the plane of ``b`` and the first axis farthest from it.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    c = float(np.dot(a, b))
    if c < -1.0 + ANTIPARALLEL_TOL:
        # Route through the axis most orthogonal to b; each leg is well away
        # from the antiparallel singularity, so the alignment stays exact.
        k = int(np.argmin(np.abs(b)))
        w = _axis(n, k) - b * b[k]
        w /= np.linalg.norm(w)
        return rotation_aligning(w, b) @ rotation_aligning(a, w)
    rot = np.eye(n) - np.outer(a + b, a + b) / (1.0 + c) + 2.0 * np.outer(b, a)
    return rot


def canonical_frame(sphere):
    """Frame carrying the sphere onto the unit sphere of the ``x_n = 0`` plane.

    Translation moves the sphere center to the origin, the minimal rotation
    takes the hyperplane normal to the last axis, and scaling by 1/radius
    normalizes the size.
    """
    n = sphere.dimension
    rot = rotation_aligning(sphere.normal, _axis(n, n - 1))
    return ScaledIsometry(rotation=rot, translation=-sphere.center, scale=1.0 / sphere.radius)


def apply_frame(frame, x):
    """Apply a scaled isometry to one point (n,) or a batch of points (m, n)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != frame.translation.shape[0]:
        raise InvalidArgumentError("point dimension does not match the frame")
    return frame.scale * (x + frame.translation) @ frame.rotation.T


@dataclass(frozen=True)
class PlanarPath:
    """Polyline in R^2; a closed path is identified first-to-last for winding."""

    points: np.ndarray
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise InvalidArgumentError("a planar path needs at least two 2-D points")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("path coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def diameter(self):
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.hypot(span[0], span[1]))


def reverse_path(path):
    return PlanarPath(path.points[::-1].copy(), closed=path.closed)


def concat_paths(first, second):
    """Concatenation; the duplicated junction vertex is dropped."""
    return PlanarPath(np.vstack([first.points, second.points[1:]]), closed=False)


def _relative(path, base, tol):
    base = np.asarray(base, dtype=float)
    v = path.points - base
    r = np.hypot(v[:, 0], v[:, 1])
    if tol is None:
        tol = 1e-12 * max(path.diameter, 1e-300)
    hits = np.nonzero(r <= tol)[0]
    if hits.size:
        raise SingularPathError(
            f"path vertex {hits[0]} lies on the winding base", index=int(hits[0])
        )
    return v


def angle_increments(v):
    """The turn, atan2(cross, dot), in (-pi, pi], from each row of ``v``
    (positions relative to the base) to the next, as a list."""
    x0, y0 = v[:-1, 0], v[:-1, 1]
    x1, y1 = v[1:, 0], v[1:, 1]
    cross = x0 * y1 - y0 * x1
    dot = x0 * x1 + y0 * y1
    return np.arctan2(cross, dot).tolist()


def integer_winding(sweep):
    """The integer a closed path's angle sweep (in full turns) rounds to."""
    nearest = round(sweep)
    if abs(sweep - nearest) >= ROUNDING_SLACK:
        raise NumericalDegeneracyError(
            f"angle sweep {sweep!r} is not close to an integer; refine the path"
        )
    return int(nearest)


def angle_sweep(path, base, tol=None):
    """Accumulated turn of the path around ``base``, in full turns.

    Open paths give a real number; closed paths wrap through the closing
    segment.  A vertex within ``tol`` of the base raises SingularPathError,
    which callers treat as a detected crossing rather than a failure.
    Increments are atan2(cross, dot) of consecutive position vectors, each in
    (-pi, pi], and totals are exactly-rounded sums, so reversal negates a
    sweep bitwise and concatenation adds sweeps exactly.
    """
    v = _relative(path, base, tol)
    if path.closed:
        v = np.vstack([v, v[:1]])
    return math.fsum(angle_increments(v)) / (2.0 * math.pi)


def winding_closed(path, base, tol=None):
    """Integer winding number of a closed path around ``base``."""
    if not path.closed:
        raise InvalidArgumentError("winding_closed needs a closed path")
    return integer_winding(angle_sweep(path, base, tol=tol))


def segment_distances(path, base):
    """Distance from ``base`` to every segment (incl. the closing one if closed)."""
    pts = path.points
    if path.closed:
        pts = np.vstack([pts, pts[:1]])
    return point_segment_distances(base, pts[:-1], pts[1:])


def passes_through(path, base, tol):
    """Index of the first segment within ``tol`` of ``base``, or None."""
    if tol <= 0.0:
        raise InvalidArgumentError("tolerance must be positive")
    dists = segment_distances(path, base)
    hits = np.nonzero(dists < tol)[0]
    return int(hits[0]) if hits.size else None


MAX_GRID = 1024
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class GridOptimum:
    t_best: float
    s_best: float
    residual_inf: float  # max of the two absolute residuals at the optimum
    grid_step: float


def brute_force_similar(curve, shape, grid_size=512):
    """Exhaustive residual scan over a grid_size^2 parameter lattice.

    Returns the lattice minimizer of the max-abs residual; ties go to the
    lexicographically smallest (t, s).
    """
    if grid_size < 64:
        raise InvalidArgumentError("oracle grid must be at least 64")
    if grid_size > MAX_GRID:
        raise InvalidArgumentError(f"oracle grid capped at {MAX_GRID}")
    g = int(grid_size)
    ts = (np.arange(g) + 0.5) / g
    pts = curve.eval_many(ts)
    base = curve.origin
    d_base = row_norms(pts - base)
    diff = pts[:, None, :] - pts[None, :, :]
    d_cross = np.sqrt((diff * diff).sum(axis=-1))
    res_oq = np.abs(d_base[None, :] / d_base[:, None] - shape.ratio_oq)
    res_pq = np.abs(d_cross / d_base[:, None] - shape.ratio_pq)
    worst = np.maximum(res_oq, res_pq)
    np.fill_diagonal(worst, np.inf)
    flat = int(np.argmin(worst))  # argmin returns the first (lexicographic) minimizer
    i, j = divmod(flat, g)
    return GridOptimum(
        t_best=float(ts[i]),
        s_best=float(ts[j]),
        residual_inf=float(worst[i, j]),
        grid_step=1.0 / g,
    )


def winding_by_crossing_count(path, base, max_attempts=16):
    """Signed crossings of a ray from ``base``: the classical winding count.

    The ray direction steps through golden-angle rotations until no vertex
    sits on the ray line, then counts transversal crossings with sign.
    """
    pts = np.asarray(path.points, dtype=float)
    base = np.asarray(base, dtype=float)
    pts = np.vstack([pts, pts[:1]])
    rel = pts - base
    span = rel.max(axis=0) - rel.min(axis=0)
    tiny = 1e-12 * max(float(np.hypot(span[0], span[1])), 1e-300)
    for attempt in range(max_attempts):
        ang = attempt * _GOLDEN_ANGLE
        ca, sa = math.cos(ang), math.sin(ang)
        x = ca * rel[:, 0] + sa * rel[:, 1]
        y = -sa * rel[:, 0] + ca * rel[:, 1]
        if np.any(np.abs(y) <= tiny):
            continue
        x0, y0 = x[:-1], y[:-1]
        x1, y1 = x[1:], y[1:]
        straddles = (y0 < 0.0) != (y1 < 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross_x = x0 + (-y0) * (x1 - x0) / (y1 - y0)
        hits = straddles & (cross_x > 0.0)
        signs = np.where(y1 > y0, 1, -1)
        return int(np.sum(signs[hits]))
    raise InvalidArgumentError("could not find a ray avoiding all path vertices")


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


def dense_candidate_pairs(curve, center, radius, normal, thr):
    """The (node, segment) pairs of ``solvers._candidate_pairs``, in its
    order, from the flat scan it replaced: the block test on every (node,
    block) pair of ``curve.blocks`` in one matrix product, then the vertex
    test on every vertex of the surviving blocks, as two arrays."""
    m = curve.n_vertices
    columns = curve.columns
    lower, upper = curve.bounds
    mid, half = curve.blocks
    x_max = float(np.linalg.norm(np.maximum(-lower, upper)))
    delta = 4.0 * (columns.shape[0] + 2) * 2.0 ** -53 * (x_max + row_norms(center))
    offset = (normal * center).sum(axis=1)
    window = thr * radius * (1.0 + 1e-12) + delta
    gap = np.abs(normal @ mid - offset[:, None]) - np.abs(normal) @ half
    node, block = np.nonzero(gap <= (window + 2.0 * delta)[:, None])
    vertex = np.minimum(block[:, None] * BLOCK_SIZE + np.arange(BLOCK_SIZE + 1), m) % m
    h = normal[node, 0, None] * columns[0][vertex]
    for i in range(1, columns.shape[0]):
        h += normal[node, i, None] * columns[i][vertex]
    above = h > (offset + window)[node, None]
    below = h < (offset - window)[node, None]
    outside = (above[:, :-1] & above[:, 1:]) | (below[:, :-1] & below[:, 1:])
    row, pos = np.nonzero(~outside)
    seg = block[row] * BLOCK_SIZE + pos
    real = seg < m
    return node[row[real]], seg[real]


def ratio_loop(path_far, path_near):
    """Closed loop: the far-anchor ratio path followed by the reversed
    near-anchor one (both ``(samples, 2)`` arrays of ``ratio_path``)."""
    pts = np.vstack([path_far, path_near[::-1]])
    return PlanarPath(pts, closed=True)


def sphere_winding(curve, t, shape):
    """Winding invariant of the projected, re-framed curve at sweep parameter
    t: the one-node call of the sweep grid's kernel."""
    (sample,) = solvers._sphere_windings(curve, [t], shape)
    if sample is None:
        raise DegenerateConfigurationError("swept point coincides with the base point")
    return sample


def bisect_then_newton(curve, shape, base_param=0.0, grid_size=256, residual_tol=1e-9):
    """``solve_similar`` as it was before Newton started from the sweep
    grid: every grid change bisected with ``solvers._bisect`` to a
    ``HANDOFF_WIDTH`` bracket or a singular midpoint, and Newton run once
    from each bracket's midpoint and from each singular grid node.  Returns
    ``(triangles, warnings, bracket, seeds)``, or raises NoBracketError
    where the solve does."""
    work = curve.with_base_param(base_param)
    epsilon, _, warnings = solvers.similar_window(work, shape)
    t_near = solvers.near_base_param(work, shape, epsilon)
    t_far = work.farthest_param(work.origin)
    if t_near >= t_far:
        raise NoBracketError("near-base parameter does not precede the farthest parameter")
    samples = solvers._sphere_windings(work, np.linspace(t_near, t_far, grid_size), shape)
    grid = [s for s in samples if s is not None]
    if len(grid) < 3:
        raise NoBracketError("grid too coarse to certify a bracket")
    seeds = [(s.t, s.touch_param) for s in grid if s.singular]
    kernel = partial(solvers._node_windings, work, shape=shape)
    bracket, seed_ts = None, []
    for a, b in zip(grid[:-1], grid[1:]):
        if a.singular or b.singular or a.winding == b.winding:
            continue
        found = solvers._bisect(kernel, a.t, b.t, a.winding, solvers.HANDOFF_WIDTH,
                                solvers.BISECT_DEPTH)
        if found is None:
            continue
        bracket = bracket or found
        seed_ts.append(0.5 * (found[0] + found[1]))
    seeds += zip(seed_ts, solvers._touch_params(work, seed_ts, shape))
    if not seeds:
        raise NoBracketError("no invariant change found on the sweep grid")
    triangles = []
    for t0, s0 in seeds:
        try:
            triangles.append(solvers.refine_similar(work, shape, t0, s0, residual_tol))
        except RefineFailedError as exc:
            warnings.append(str(exc))
    return solvers._dedupe(triangles, solvers.DEDUPE_TOL), warnings, bracket, seeds
