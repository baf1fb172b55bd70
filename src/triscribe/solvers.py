"""End-to-end inscription solvers.

Two algorithms:

* ``solve_similar`` sweeps the candidate sphere along the curve and watches an
  integer invariant, the winding number of the projected re-framed curve
  around (1, 0).  The invariant is 0 when the swept point is farthest from the
  base and nonzero when the sphere has shrunk inside the base point's clear
  ball, so it must change somewhere in between; bisection brackets the change,
  which certifies a sphere/curve crossing, and damped Newton polishes the
  crossing into an inscribed triangle.

* ``solve_equilateral`` anchors one vertex at the base point and tracks ratio
  paths: the planar curves of normalized side ratios.  The closed loop built
  from the farthest-point path and a near-base path winds once around the
  origin, so bisection on the anchor parameter brackets a path through the
  origin, i.e. an equilateral triangle.

Angle-window parameters are scanned over a fixed ladder rather than taking
limits, and both sufficient-condition checks warn instead of aborting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curve import BLOCK_SIZE, _golden_max, point_segment_distances, row_norms
from .errors import (
    DegenerateConfigurationError,
    InfeasibleShapeError,
    InvalidArgumentError,
    NoBracketError,
    NumericalDegeneracyError,
    RefineFailedError,
    SingularPathError,
)
from .frames import Sphere, third_vertex_sphere
from .shape import equilateral_shape, residuals
from .winding import PlanarPath, winding_closed

# Window half-widths scanned for a certified angle or monotone condition, and
# the window used when no rung passes.
EPSILON_LADDER = (0.2, 0.1, 0.05, 0.02, 0.01)
FALLBACK_EPSILON = 0.05
ANGLE_SAMPLES = 64  # chord-angle grid nodes per axis
RATIO_SAMPLES = 1024  # points per ratio path
SINGULAR_TOL = 1e-9  # projected distance to (1, 0) at which the curve touches the sphere
DEDUPE_TOL = 1e-4  # parameter distance under which two found triangles are one
BISECT_WIDTH = 1e-10  # parameter width at which bisection stops
MAX_NEWTON_ITERS = 100
PAIR_BUDGET = 2048  # (node, block | vertex | segment) pairs per pass of the winding kernel
_SEGMENT_ENDS = np.array([[0], [1]])  # offsets of a segment's start and end vertex
_PROJECTION_BASE = np.array([1.0, 0.0])  # the point the projected curve winds around


def _param_distance(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


# -- angle condition ---------------------------------------------------------


@dataclass(frozen=True)
class AngleConditionReport:
    """Chord-angle bounds near the base point at window half-width ``delta``.

    ``sup_outgoing`` is the largest angle between two chords from the base to
    points just past it; ``inf_straddling`` is the smallest angle between a
    chord just before the base and one just past it.  The sufficient condition
    for the sphere sweep is sup_outgoing < vertex angle < inf_straddling.
    """

    delta: float
    sup_outgoing: float
    inf_straddling: float
    vertex_angle: float | None = None
    satisfied: bool | None = None


def _unit_chords(curve, params, base):
    rel = curve.eval_many(params) - base
    norms = row_norms(rel)
    if np.any(norms < 1e-14 * curve.extent):
        raise DegenerateConfigurationError("curve revisits the base point inside the window")
    return rel / norms[:, None]


def chord_angle_bounds(curve, delta, samples=64):
    """Estimate the chord-angle bounds on a samples x samples grid.

    Grid nodes are offset by half a step so the open interval endpoints are
    never evaluated.
    """
    if not 0.0 < delta < 0.5:
        raise InvalidArgumentError("delta must lie in (0, 0.5)")
    if samples < 8:
        raise InvalidArgumentError("need at least 8 samples per axis")
    base = curve.origin
    offsets = (np.arange(samples) + 0.5) / samples * delta
    outgoing = _unit_chords(curve, offsets, base)
    incoming = _unit_chords(curve, 1.0 - delta + offsets, base)
    dots_out = np.clip(outgoing @ outgoing.T, -1.0, 1.0)
    dots_cross = np.clip(incoming @ outgoing.T, -1.0, 1.0)
    sup_outgoing = float(np.arccos(dots_out.min()))
    inf_straddling = float(np.arccos(dots_cross.max()))
    return AngleConditionReport(float(delta), sup_outgoing, inf_straddling)


def check_hypothesis(report, vertex_angle):
    """True when the angle condition certifies the sweep for this vertex angle."""
    return bool(report.sup_outgoing < vertex_angle < report.inf_straddling)


def completed_report(report, vertex_angle):
    return replace(
        report, vertex_angle=float(vertex_angle), satisfied=check_hypothesis(report, vertex_angle)
    )


# -- sphere winding invariant ------------------------------------------------


@dataclass(frozen=True)
class WindingSample:
    """Invariant value at one sweep parameter.

    ``singular`` means the projected curve passed through (1, 0) within
    tolerance, i.e. the curve touches the candidate sphere at this parameter;
    ``touch_param`` then locates the closest curve parameter.
    """

    t: float
    winding: int | None
    singular: bool
    touch_param: float | None = None

    @property
    def status(self):
        return "singular" if self.singular else "ok"


def _sphere_distance_fn(curve, sphere):
    center, radius, normal = sphere.center, sphere.radius, sphere.normal

    def dist(t):
        v = curve.eval(t) - center
        h = float(np.dot(v, normal))
        w_sq = max(float(np.dot(v, v)) - h * h, 0.0)
        return math.hypot(h, math.sqrt(w_sq) - radius)

    return dist


def _nearest_param_to_sphere(curve, sphere):
    """Curve parameter nearest the sphere: the nearest vertex, then a
    golden-section pass over its two segments that replaces it unless
    farther.  A point x lies at least ||x - center| - r| from the sphere,
    which bounds each block from below for the vertex pass."""
    radius = sphere.radius

    def distances(columns):
        w_sq, h = _cylinder_coords(columns, sphere)
        return np.hypot(h, np.sqrt(w_sq) - radius)

    near, far = curve._box_distances(sphere.center, radius)
    k = curve._least_vertex(distances, np.maximum(near - radius, radius - far))
    params = curve.params
    lo = params[k - 1] if k > 0 else params[curve.n_vertices - 1] - 1.0
    hi = params[k + 1]
    dist = _sphere_distance_fn(curve, sphere)
    t_star = _golden_max(lambda t: -dist(t), lo, hi)
    if dist(t_star) > dist(params[k]):
        t_star = params[k]
    return float(np.mod(t_star, 1.0))


def _cylinder_coords(columns, sphere):
    """``(w_sq, h)`` for each vertex column x of ``columns`` (n, k), with
    v = x - center, h = v . normal and w_sq = |v - h normal|^2: the projected
    point is (sqrt(w_sq) / r, h / r)."""
    v = columns - sphere.center[:, None]
    h = sphere.normal @ v
    w_sq = np.einsum("ij,ij->j", v, v)
    w_sq -= h * h
    np.maximum(w_sq, 0.0, out=w_sq)
    return w_sq, h


def _vertex_tolerance(columns, sphere):
    """1e-12 times the diameter of the projected path, the vertex tolerance of
    ``winding_closed``.  One full pass over the curve."""
    radius = sphere.radius
    w_sq, h = _cylinder_coords(columns, sphere)
    z = np.divide(h, radius, out=h)
    # sqrt and division by r are monotone, so the extremes of rho come from w_sq.
    rho_span = (math.sqrt(w_sq.max()) - math.sqrt(w_sq.min())) / radius
    return 1e-12 * max(math.hypot(rho_span, float(z.max() - z.min())), 1e-300)


def _vertex_tolerance_bound(curve, center, radius):
    """Upper bound on ``_vertex_tolerance`` from the curve's bounding box, for
    each sphere (row of ``center``, entry of ``radius``).

    With R the distance from the center to the box's farthest corner, rho is
    at most R / r and the z-span at most 2 R / r, so the projected diameter is
    at most sqrt(5) R / r; 1 + 1e-10 covers the rounding of the exact pass.
    """
    lower, upper = curve.bounds
    reach = row_norms(np.maximum(center - lower, upper - center))
    return 1e-12 * np.maximum(math.sqrt(5.0) * (1.0 + 1e-10) * reach / radius, 1e-300)


def _candidate_pairs(curve, center, radius, normal, thr):
    """(node, segment) pairs, one row of ``center``, ``radius``, ``normal``
    per node, whose segment j (vertex j to vertex j + 1 mod m) may straddle
    z = 0 or end within ``thr[node]`` of it in the node's projection; yielded
    a slice of blocks at a time.

    Two passes, both on h~ = normal . x against normal . center, where
    ``delta`` bounds the rounding of those dot products and of the exact
    h = normal . (x - center), so a segment is left out only when both ends
    lie beyond thr on one side in the exact projection too.  The first pass
    tests every (node, block) pair of the curve's block index:
    normal . x stays within |normal| . half of normal . mid on the block's
    box, and widening by 2 delta covers the rounding of that interval, so a
    block is dropped only when every vertex of it lies beyond the window on
    one side.  The second takes h~ on the vertices of the surviving blocks
    and keeps a segment unless both its ends lie beyond the window on one
    side.  The first pass takes the nodes in chunks and the second the
    surviving blocks in slices, so that no pass holds more than
    ``PAIR_BUDGET`` pairs.  At least one node is needed.
    """
    m = curve.n_vertices
    columns = curve.columns
    lower, upper = curve.bounds
    mid, half = curve.blocks
    # The box corner farthest from the origin bounds every |x|.
    x_max = float(np.linalg.norm(np.maximum(-lower, upper)))
    delta = 4.0 * (columns.shape[0] + 2) * 2.0 ** -53 * (x_max + row_norms(center))
    offset = (normal * center).sum(axis=1)
    # 1 + 1e-12 covers the relative rounding of thr * r and of z = h / r.
    window = thr * radius * (1.0 + 1e-12) + delta
    high, low = offset + window, offset - window
    reach = window + 2.0 * delta
    chunk = max(1, PAIR_BUDGET // mid.shape[1])
    nodes, blocks = [], []
    for g0 in range(0, normal.shape[0], chunk):
        part = normal[g0:g0 + chunk]
        gap = np.abs(part @ mid - offset[g0:g0 + chunk, None])
        gap -= np.abs(part) @ half
        node, block = np.nonzero(gap <= reach[g0:g0 + chunk, None])
        nodes.append(node + g0)
        blocks.append(block)
    nodes, blocks = np.concatenate(nodes), np.concatenate(blocks)
    span = np.arange(BLOCK_SIZE + 1)
    per_slice = max(1, PAIR_BUDGET // span.size)
    for s0 in range(0, nodes.size, per_slice):
        g = nodes[s0:s0 + per_slice]
        b = blocks[s0:s0 + per_slice]
        # Vertex m, and the padding of a short last block, is vertex 0.
        vertex = np.minimum(b[:, None] * BLOCK_SIZE + span, m) % m
        h = normal[g, 0, None] * columns[0][vertex]
        for i in range(1, columns.shape[0]):
            h += normal[g, i, None] * columns[i][vertex]
        above = h > high[g, None]
        below = h < low[g, None]
        # A segment cannot lie wholly above and wholly below, so "==" means neither.
        row, pos = np.nonzero((above[:, :-1] & above[:, 1:]) == (below[:, :-1] & below[:, 1:]))
        seg = b[row] * BLOCK_SIZE + pos
        # Past segment m - 1 a short last block holds only padding.
        real = seg < m
        yield g[row[real]], seg[real]


def _projected_windings(curve, center, radius, normal, tol):
    """Winding numbers around (1, 0) of the closed polyline ``curve`` after
    the canonical frame and cylindrical projection of each of G spheres (rows
    of ``center``, ``normal``; entries of ``radius``), and a flag for each
    sphere whose projected path is singular.

    The projection of a vertex x is closed-form: with v = x - center and
    h = v . normal it is (|v - h normal| / r, h / r), so no rotation is
    applied.  The path is singular when a segment (the closing one included)
    comes within ``tol`` of (1, 0), as in ``passes_through``, or a vertex within
    vtol = 1e-12 times the path's diameter, as in ``winding_closed``.

    Bound, then verify.  Only segments that straddle z = 0 or end within
    2 max(tol, vtol) of it can be singular or cross the ray; every other
    segment lies at least twice the tolerances from (1, 0), which leaves room
    for rounding.  An O(n) bound on vtol per sphere, one interval test of
    every sphere against the curve's block index and a dot product on the
    vertices of the surviving blocks give a superset of those segments
    (``_candidate_pairs``).  The exact projection, the segment distances and
    the crossings are taken on the flat (sphere, segment) pairs of that
    superset, one entrywise expression for every pair, so a sphere gets the
    same answer in a batch of any size, and are summed per sphere.  The exact
    vtol costs a full pass, so it is computed only for a sphere with a
    candidate vertex within the bound of (1, 0); below ``tol`` the segment
    test has already decided, so that takes a sphere about 450 times smaller
    than the curve.  The winding is the signed count of crossings of the ray
    from (1, 0) toward +rho, with half-open straddling (z < 0 against z >= 0)
    so that a vertex on the ray is counted once.
    """
    count, n = normal.shape
    m = curve.n_vertices
    columns = curve.columns
    vtol_bound = _vertex_tolerance_bound(curve, center, radius)
    thr = 2.0 * np.maximum(tol, vtol_bound)
    winding = np.zeros(count)
    touches = np.zeros(count)
    near_node, near_dist = [], []
    for node, seg in _candidate_pairs(curve, center, radius, normal, thr):
        ends = (seg + _SEGMENT_ENDS) % m  # (2, P)
        c, nrm = center[node], normal[node]
        v = columns[0][ends] - c[:, 0]
        h = nrm[:, 0] * v
        w_sq = v * v
        for i in range(1, n):
            v = columns[i][ends] - c[:, i]
            h += nrm[:, i] * v
            w_sq += v * v
        w_sq -= h * h
        np.maximum(w_sq, 0.0, out=w_sq)
        r = radius[node]
        rho, z = np.sqrt(w_sq) / r, h / r
        start, end = np.stack((rho, z), axis=2)
        dist = point_segment_distances(_PROJECTION_BASE, start, end)
        touches += np.bincount(node, weights=dist < tol, minlength=count)
        vertex_dist = np.hypot(rho[0] - 1.0, z[0])
        near = vertex_dist <= vtol_bound[node]
        if near.any():
            near_node.append(node[near])
            near_dist.append(vertex_dist[near])
        crossing = (z[0] < 0.0) != (z[1] < 0.0)
        (a_rho, b_rho), (a_z, b_z), node = rho[:, crossing], z[:, crossing], node[crossing]
        rho_at_zero = a_rho - a_z * (b_rho - a_rho) / (b_z - a_z)
        outside = rho_at_zero > 1.0
        signs = np.where(b_z[outside] > a_z[outside], 1.0, -1.0)
        winding += np.bincount(node[outside], weights=signs, minlength=count)
    singular = touches > 0.0
    if near_node:
        near_node = np.concatenate(near_node)
        near_dist = np.concatenate(near_dist)
        for g in set(near_node[~singular[near_node]].tolist()):
            sphere = Sphere(center[g], float(radius[g]), normal[g], n)
            singular[g] = np.any(near_dist[near_node == g] <= _vertex_tolerance(columns, sphere))
    return winding.astype(int), singular


def _sphere_windings(curve, ts, shape):
    """Winding samples at the sweep parameters ``ts``, all from one call of
    the kernel; None for a node whose swept point coincides with the base."""
    ts = np.asarray(ts, dtype=float)
    base = curve.origin
    points = curve.eval_many(ts)
    d = points - base
    # The dot product of np.linalg.norm, so that the spheres below are those
    # of third_vertex_sphere.
    dist = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
    live = np.flatnonzero(dist >= 1e-14 * curve.extent)
    if live.size == 0:
        return [None] * ts.size
    d, dist = d[live], dist[live]
    # third_vertex_sphere, one row per live node.
    r1 = shape.ratio_oq * dist
    r2 = shape.ratio_pq * dist
    alpha = (r1 * r1 - r2 * r2 + dist * dist) / (2.0 * dist * dist)
    rad_sq = r1 * r1 - alpha * alpha * dist * dist
    if (rad_sq <= 0.0).any():
        raise InfeasibleShapeError("side ratios admit no third vertex off the o-p line")
    winding, singular = _projected_windings(
        curve, base + alpha[:, None] * d, np.sqrt(rad_sq), d / dist[:, None], SINGULAR_TOL
    )
    samples = [None] * ts.size
    for k, g in enumerate(live):
        t = float(ts[g])
        if singular[k]:
            # The per-node sphere, so the touch parameter (a refinement seed)
            # keeps its bits.
            sphere = third_vertex_sphere(base, points[g], shape)
            samples[g] = WindingSample(
                t=t, winding=None, singular=True, touch_param=_nearest_param_to_sphere(curve, sphere)
            )
        else:
            samples[g] = WindingSample(t=t, winding=int(winding[k]), singular=False)
    return samples


def sphere_winding(curve, t, shape):
    """Winding invariant of the projected, re-framed curve at sweep parameter
    t: the one-node call of the sweep grid's kernel."""
    (sample,) = _sphere_windings(curve, [t], shape)
    if sample is None:
        raise DegenerateConfigurationError("swept point coincides with the base point")
    return sample


def _param_at_distance(curve, target, lo, hi, samples=2048):
    """First parameter between lo and hi (both in [0, 1], scanned from lo)
    where the distance to the base point crosses ``target``.

    A scan of ``samples`` parameters finds the first one at or beyond the
    target.  Between it and the sample before, each piece of the polyline is
    straight, so |gamma(t) - o|^2 = target^2 is a quadratic in t on it; the
    answer is the first root, in scan order, on the first piece that has one.
    """
    base = curve.origin
    ts = lo + (hi - lo) * np.arange(1, samples + 1) / samples
    d = row_norms(curve.eval_many(ts) - base)
    above = np.nonzero(d >= target)[0]
    if above.size == 0:
        raise DegenerateConfigurationError("curve never reaches the target distance in the window")
    k = int(above[0])
    t_from = lo if k == 0 else ts[k - 1]
    t_to = float(ts[k])
    # The vertex parameters strictly between the two samples cut the bracket
    # into straight pieces.
    params = curve.params
    u0, u1 = sorted((t_from, t_to))
    cuts = params[np.searchsorted(params, u0, "right"):np.searchsorted(params, u1, "left")]
    ends = np.concatenate(([t_from], cuts if t_from < t_to else cuts[::-1], [t_to]))
    # On the piece from a = gamma(ends[i]) to b = gamma(ends[i + 1]):
    # |a - o + tau (b - a)|^2 - target^2 = qa tau^2 + 2 qb tau + qc.
    start = curve.eval_many(ends[:-1]) - base
    step = curve.eval_many(ends[1:]) - start - base
    qa = (step * step).sum(axis=1)
    qb = (start * step).sum(axis=1)
    qc = (start * start).sum(axis=1) - target * target
    # Below the target at tau = 0 (qc < 0), the crossing is the larger root,
    # taken in the form that does not cancel.
    root = np.sqrt(np.maximum(qb * qb - qa * qc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(qc >= 0.0, 0.0, np.where(qb > 0.0, -qc / (qb + root), (root - qb) / qa))
    hit = np.flatnonzero(tau <= 1.0)
    if hit.size == 0:
        return float(np.mod(t_to, 1.0))  # rounding: the sample itself is at the target
    i = int(hit[0])
    return float(np.mod(ends[i] + tau[i] * (ends[i + 1] - ends[i]), 1.0))


def near_base_param(curve, shape, epsilon):
    """Sweep-start parameter: where the candidate sphere sits inside the clear ball.

    The clear radius is half the minimum distance from the base to the curve
    outside the ``(1 - eps, eps)`` window; the sphere around the swept point at
    distance (clear radius) / ratio_oq lies entirely on that ball's boundary.
    """
    clear = 0.5 * curve.min_distance_excluding(curve.origin, (1.0 - epsilon, epsilon))
    target = clear / shape.ratio_oq
    return _param_at_distance(curve, target, 0.0, epsilon)


# -- similar-triangle solver ---------------------------------------------------


@dataclass(frozen=True)
class InscribedTriangle:
    """A found triangle: vertex parameters, points and ratio residuals."""

    t_p: float
    t_q: float
    point_o: np.ndarray
    point_p: np.ndarray
    point_q: np.ndarray
    residual_oq: float
    residual_pq: float

    @property
    def max_residual(self):
        return max(abs(self.residual_oq), abs(self.residual_pq))


@dataclass
class SweepResult:
    """The sweep grid and what was found on it.  ``dropped`` holds the grid
    parameters whose swept point coincides with the base point, where the
    candidate sphere is undefined; they are left out of ``grid``."""

    grid: list
    bracket: tuple | None
    seeds: list
    t_far: float
    t_near: float
    epsilon: float
    dropped: list


def sweep_similar(curve, shape, grid_size=256, epsilon=FALLBACK_EPSILON):
    """Evaluate the invariant on a grid from the near-base parameter to the
    farthest parameter, all nodes in one call of the winding kernel, and
    bisect every change to a certified bracket."""
    if grid_size < 2:
        raise InvalidArgumentError("grid size must be at least 2")
    eps = float(epsilon)
    base = curve.origin
    t_far = curve.farthest_param(base)
    t_near = near_base_param(curve, shape, eps)
    if t_near >= t_far:
        raise NoBracketError(
            f"near-base parameter {t_near:.6g} does not precede the farthest parameter {t_far:.6g}"
        )
    ts = np.linspace(t_near, t_far, grid_size)
    samples = _sphere_windings(curve, ts, shape)
    grid = [s for s in samples if s is not None]
    dropped = [float(t) for t, s in zip(ts, samples) if s is None]

    def sample(t):
        try:
            return sphere_winding(curve, t, shape)
        except DegenerateConfigurationError:
            return None

    if len(grid) < 3:
        # Two samples sit on the provable anchor values; a change between them
        # cannot be separated from the anchors, so treat it as unresolved.
        raise NoBracketError(
            "grid too coarse to certify a bracket; increase the grid size", grid=grid
        )
    seeds = []
    bracket = None
    for s in grid:
        if s.singular:
            seeds.append((s.t, s.touch_param))
    for a, b in zip(grid[:-1], grid[1:]):
        if a.singular or b.singular:
            continue
        if a.winding == b.winding:
            continue
        lo, hi, w_lo = a.t, b.t, a.winding
        ws = a
        while hi - lo > BISECT_WIDTH:
            mid = 0.5 * (lo + hi)
            ws = sample(mid)
            if ws is None or ws.singular:
                break
            if ws.winding == w_lo:
                lo = mid
            else:
                hi = mid
        if ws is None:
            # The swept point is back at the base: there is no sphere at mid,
            # so the bisection cannot go on and certifies nothing.
            continue
        if bracket is None:
            bracket = (lo, hi)
        if ws.singular:
            seeds.append((ws.t, ws.touch_param))
            continue
        t0 = 0.5 * (lo + hi)
        sphere = third_vertex_sphere(base, curve.eval(t0), shape)
        seeds.append((t0, _nearest_param_to_sphere(curve, sphere)))
    if not seeds:
        raise NoBracketError(
            "no invariant change found on the sweep grid; increase the grid size",
            grid=grid,
        )
    return SweepResult(
        grid=grid,
        bracket=bracket,
        seeds=seeds,
        t_far=t_far,
        t_near=t_near,
        epsilon=eps,
        dropped=dropped,
    )


def _finite_difference_jacobian(fn, v, step=1e-7):
    jac = np.zeros((2, 2))
    for j in range(2):
        h = step * max(1.0, abs(v[j]))
        vp, vm = v.copy(), v.copy()
        vp[j] += h
        vm[j] -= h
        jac[:, j] = (fn(vp) - fn(vm)) / (2.0 * h)
    return jac


def refine_similar(curve, shape, t0, s0, residual_tol=1e-9):
    """Damped Newton on the two ratio residuals, seeded from a bracket.

    Variables are the parameters of the swept vertex p and the third vertex q.
    Central finite differences handle the polyline kinks; if Newton stalls, a
    coordinate-wise golden-section pass restarts it.  The residuals are
    dimensionless side ratios, so ``residual_tol`` does not scale with the curve.
    """
    base = curve.origin
    big = 1e6

    def g(v):
        try:
            res = residuals(shape, base, curve.eval(v[0]), curve.eval(v[1]))
        except DegenerateConfigurationError:
            return np.array([big, big])
        return np.asarray(res)

    v = np.array([float(t0), float(s0)])
    best_v, best_norm = v.copy(), float(np.max(np.abs(g(v))))
    stalls = 0
    for _ in range(MAX_NEWTON_ITERS):
        gv = g(v)
        norm = float(np.max(np.abs(gv)))
        if norm < best_norm:
            best_v, best_norm = v.copy(), norm
        if norm < 1e-13:
            break
        jac = _finite_difference_jacobian(g, v)
        try:
            step = np.linalg.solve(jac, gv)
        except np.linalg.LinAlgError:
            step = None
        moved = False
        if step is not None and np.all(np.isfinite(step)):
            lam = 1.0
            while lam >= 1.0 / 1024.0:
                trial = v - lam * step
                if float(np.max(np.abs(g(trial)))) < norm:
                    v = trial
                    moved = True
                    break
                lam *= 0.5
        if not moved:
            stalls += 1
            if stalls > 2:
                break
            for j in range(2):  # coordinate-wise fallback around the current iterate
                span = 1e-3 / (10 ** stalls)

                def line(x, j=j):
                    trial = v.copy()
                    trial[j] = x
                    return -float(np.max(np.abs(g(trial))))

                v[j] = _golden_max(line, v[j] - span, v[j] + span)
    gv = g(v)
    norm = float(np.max(np.abs(gv)))
    if norm < best_norm:
        best_v, best_norm = v.copy(), norm
    t_p = float(np.mod(best_v[0], 1.0))
    t_q = float(np.mod(best_v[1], 1.0))
    res = g(best_v)
    triangle = InscribedTriangle(
        t_p=t_p,
        t_q=t_q,
        point_o=base,
        point_p=curve.eval(t_p),
        point_q=curve.eval(t_q),
        residual_oq=float(res[0]),
        residual_pq=float(res[1]),
    )
    if best_norm > residual_tol:
        raise RefineFailedError(
            f"refinement stalled at residual {best_norm:.3e} (tolerance {residual_tol:.3e})",
            best=triangle,
        )
    return triangle


@dataclass
class SimilarOutcome:
    triangles: list
    hypothesis: AngleConditionReport | None
    sweep: SweepResult
    warnings: list


def _dedupe(triangles, tol):
    kept = []
    for tri in sorted(triangles, key=lambda tr: (tr.t_p, tr.t_q)):
        if any(
            _param_distance(tri.t_p, other.t_p) <= tol
            and _param_distance(tri.t_q, other.t_q) <= tol
            for other in kept
        ):
            continue
        kept.append(tri)
    return kept


def solve_similar(curve, shape, base_param=0.0, grid_size=256, residual_tol=1e-9):
    """Find triangles similar to ``shape`` inscribed in the curve with the
    distinguished vertex at the requested base parameter.

    The angle condition is sufficient, not necessary, so a failed check only
    warns.  Raises NoBracketError when the sweep sees no invariant change.
    """
    work = curve.with_base_param(base_param)
    warnings = []
    hypothesis = None
    epsilon = None
    for delta in EPSILON_LADDER:
        try:
            report = chord_angle_bounds(work, delta, ANGLE_SAMPLES)
        except DegenerateConfigurationError as exc:
            warnings.append(f"angle scan at delta={delta} failed: {exc}")
            continue
        hypothesis = completed_report(report, shape.vertex_angle)
        if hypothesis.satisfied:
            epsilon = delta
            break
    if epsilon is None:
        epsilon = FALLBACK_EPSILON
        warnings.append(
            "angle condition not certified on the ladder; continuing anyway "
            "(the condition is sufficient, not necessary)"
        )
    sweep = sweep_similar(work, shape, grid_size, epsilon=epsilon)
    triangles = []
    for t0, s0 in sweep.seeds:
        if s0 is None:
            continue
        try:
            triangles.append(refine_similar(work, shape, t0, s0, residual_tol))
        except RefineFailedError as exc:
            warnings.append(str(exc))
    return SimilarOutcome(
        triangles=_dedupe(triangles, DEDUPE_TOL),
        hypothesis=hypothesis,
        sweep=sweep,
        warnings=warnings,
    )


# -- equilateral solver via ratio paths ---------------------------------------


def check_strong_monotone(curve, epsilon, samples=32):
    """Test whether chord dot products are monotone across the base window.

    For each probe point p in the window, the function of the window parameter
    ``(gamma(t) - o) . (p - o)`` must be monotone in one direction over the
    whole modular window (either direction, independently per p).  A curve
    that folds back past the base fails: the dot product dips to zero at the
    base and rises again on both sides.
    """
    if not 0.0 < epsilon < 0.5:
        raise InvalidArgumentError("epsilon must lie in (0, 0.5)")
    if samples < 4:
        raise InvalidArgumentError("need at least 4 probe points")
    base = curve.origin
    n_grid = max(256, 8 * samples)
    taus = -epsilon + (np.arange(n_grid) + 0.5) * (2.0 * epsilon / n_grid)
    rel = curve.eval_many(np.mod(taus, 1.0)) - base
    dists = row_norms(rel)
    away = np.abs(taus) > epsilon / 8.0
    if np.any(dists[away] < 1e-13 * curve.extent):
        raise DegenerateConfigurationError("curve revisits the base point inside the window")
    sigmas = -epsilon + (np.arange(samples) + 0.5) * (2.0 * epsilon / samples)
    probes = curve.eval_many(np.mod(sigmas, 1.0)) - base
    values = rel @ probes.T  # (n_grid, samples)
    diffs = np.diff(values, axis=0)
    tol = 1e-12 * row_norms(probes) * max(dists.max(), 1e-300)
    non_decreasing = np.all(diffs >= -tol[None, :], axis=0)
    non_increasing = np.all(diffs <= tol[None, :], axis=0)
    return bool(np.all(non_decreasing | non_increasing))


def ratio_path(curve, s, samples=1024):
    """Planar path of normalized side ratios for anchor parameter ``s``.

    The path point at parameter t compares the triangle (o, gamma(s),
    gamma(s t)) against an equilateral: coordinates are the two side ratios
    minus one.  Starts exactly at (-1, 0) and ends exactly at (0, -1); it
    passes through the origin precisely at inscribed equilateral triangles.
    """
    if not 0.0 < s < 1.0:
        raise InvalidArgumentError("anchor parameter must lie in (0, 1)")
    if samples < 32:
        raise InvalidArgumentError("need at least 32 samples")
    base = curve.origin
    anchor = curve.eval(s)
    span = row_norms((anchor - base)[None, :])[0]
    if span < 1e-14 * curve.extent:
        raise DegenerateConfigurationError("anchor point coincides with the base point")
    ts = np.linspace(0.0, 1.0, samples)
    pts = curve.eval_many(s * ts)
    r1 = row_norms(pts - base) / span
    r2 = row_norms(pts - anchor) / span
    return PlanarPath(np.column_stack([r1 - 1.0, r2 - 1.0]), closed=False)


def _ratio_loop(path_far, path_near):
    """Closed loop: far-anchor path followed by the reversed near-anchor path."""
    pts = np.vstack([path_far.points, path_near.points[::-1]])
    return PlanarPath(pts, closed=True)


def _loop_winding(curve, path_far, s, samples):
    loop = _ratio_loop(path_far, ratio_path(curve, s, samples))
    return winding_closed(loop, np.zeros(2))


@dataclass
class EquilateralOutcome:
    triangle: InscribedTriangle
    epsilon: float
    strongly_monotone: bool
    loop_winding: int | None
    s_far: float
    s_near: float
    warnings: list


def solve_equilateral(curve, base_param=0.0, residual_tol=1e-9):
    """Inscribe an equilateral triangle with one vertex at the base point.

    Scans the window ladder for a strongly monotone window (warns and
    continues if none passes), verifies the reference loop winds once around
    the origin, bisects the anchor parameter to bracket a ratio path through
    the origin, and polishes with the shared Newton refiner.
    """
    work = curve.with_base_param(base_param)
    base = work.origin
    warnings = []
    epsilon = None
    for eps in EPSILON_LADDER:
        try:
            if check_strong_monotone(work, eps):
                epsilon = eps
                break
        except DegenerateConfigurationError as exc:
            warnings.append(f"monotone scan at eps={eps} failed: {exc}")
    strongly_monotone = epsilon is not None
    if not strongly_monotone:
        epsilon = FALLBACK_EPSILON
        warnings.append(
            "no strongly monotone window found on the ladder; continuing anyway"
        )
    s_far = work.farthest_param(base)
    clear = work.min_distance_excluding(base, (1.0 - epsilon, epsilon))
    target = clear / 3.0
    # The near anchor sits on the incoming window arm, just before the base:
    # its ratio path then traces everything outside that arm and stays clear
    # of the open third quadrant, which is what fixes the loop winding at 1.
    s_near = _param_at_distance(work, target, 1.0, 1.0 - epsilon)
    if not s_far < s_near:
        raise NoBracketError(
            f"farthest parameter {s_far:.6g} does not precede the near anchor {s_near:.6g}"
        )
    m = RATIO_SAMPLES
    path_far = ratio_path(work, s_far, m)
    try:
        loop_w = _loop_winding(work, path_far, s_near, m)
    except (SingularPathError, NumericalDegeneracyError):
        loop_w = None
    if loop_w != 1:
        warnings.append(
            f"reference loop winding is {loop_w!r}, expected 1; bisection may not be certified"
        )
    lo, hi = s_far, s_near
    w_hi = loop_w if loop_w is not None else 1
    s_hit = None
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        try:
            w_mid = _loop_winding(work, path_far, mid, m)
        except (SingularPathError, NumericalDegeneracyError):
            s_hit = mid
            break
        if w_mid == w_hi:
            hi = mid
        else:
            lo = mid
    s_star = s_hit if s_hit is not None else 0.5 * (lo + hi)
    probe = ratio_path(work, s_star, max(m, 2048))
    t_star = float(np.argmin(row_norms(probe.points))) / (max(m, 2048) - 1)
    triangle = refine_similar(work, equilateral_shape(), s_star, s_star * t_star, residual_tol)
    return EquilateralOutcome(
        triangle=triangle,
        epsilon=epsilon,
        strongly_monotone=strongly_monotone,
        loop_winding=loop_w,
        s_far=s_far,
        s_near=s_near,
        warnings=warnings,
    )
