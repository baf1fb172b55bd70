"""End-to-end inscription solvers.

Two algorithms:

* ``solve_similar`` sweeps the candidate sphere along the curve and watches an
  integer invariant, the winding number of the projected re-framed curve
  around (1, 0).  The invariant is 0 when the swept point is farthest from the
  base and nonzero when the sphere has shrunk inside the base point's clear
  ball, so it must change somewhere in between.  Damped Newton from the
  middle of each change finds an inscribed triangle, and a bracket of
  different windings around it certifies the sphere/curve crossing; where
  that check fails, bisection brackets the change and Newton polishes the
  crossing from there.

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
from dataclasses import dataclass
from functools import partial

import numpy as np

from .curve import BLOCK_SIZE, TREE_FANOUT, row_norms
from .errors import (
    DegenerateConfigurationError,
    InfeasibleShapeError,
    InvalidArgumentError,
    NoBracketError,
    RefineFailedError,
    SingularPathError,
)
from .shape import equilateral_shape, residuals

# Window half-widths scanned for a certified angle or monotone condition, and
# the window used when no rung passes.
EPSILON_LADDER = (0.2, 0.1, 0.05, 0.02, 0.01)
FALLBACK_EPSILON = 0.05
ANGLE_SAMPLES = 64  # chord-angle grid nodes per axis
_MONOTONE_PROBES = 32  # probe points of the strong-monotone check
_MONOTONE_GRID = 256  # window parameters at which each probe's dot product is compared
RATIO_SAMPLES = 1024  # points per ratio path of a loop winding
PROBE_SAMPLES = 2048  # points of the ratio path probed for the third vertex's seed
SINGULAR_TOL = 1e-9  # projected distance to (1, 0) at which the curve touches the sphere
DEDUPE_TOL = 1e-4  # parameter distance under which two found triangles are one
HANDOFF_WIDTH = 1e-6  # width of a certified bracket: where bisection stops, and Newton's check (see README)
BISECT_DEPTH = 3  # levels of bisection midpoints per kernel call (measured; see README)
MAX_NEWTON_ITERS = 100
_JACOBIAN_STEP = 1e-7  # relative step of the central-difference Jacobian
_STEP_FRACTIONS = tuple(0.5 ** k for k in range(11))  # damped Newton step lengths, 1 to 1/1024
# (node, segment) pairs per exact pass of the winding kernel, and (sphere,
# block | vertex) pairs per pass of the touch parameters' vertex search.
PAIR_BUDGET = 2048
# Entries per chunk or slice of the candidate scans, in multiples of PAIR_BUDGET:
# a scan holds about 4 arrays an entry, the exact pass about 25.
SCAN_MULTIPLE = 4
_FANOUT_SPAN = np.arange(TREE_FANOUT)
_SEGMENT_ENDS = np.array([[0], [1]])  # offsets of a segment's start and end vertex
_PROJECTION_BASE = np.array([1.0, 0.0])  # the point the projected curve winds around


# -- angle condition ---------------------------------------------------------


@dataclass(frozen=True)
class AngleConditionReport:
    """Chord-angle bounds near the base point at window half-width ``delta``,
    on ``ANGLE_SAMPLES`` chords a side, judged for one vertex angle.

    ``sup_outgoing`` is the largest angle between two chords from the base to
    points just past it; ``inf_straddling`` is the smallest angle between a
    chord just before the base and one just past it.  ``satisfied`` is the
    sufficient condition for the sphere sweep, sup_outgoing < ``vertex_angle``
    < inf_straddling.
    """

    delta: float
    sup_outgoing: float
    inf_straddling: float
    vertex_angle: float
    satisfied: bool


def _unit_chords(curve, params, base):
    rel = curve.eval_many(params) - base
    norms = row_norms(rel)
    if np.any(norms < 1e-14 * curve.extent):
        raise DegenerateConfigurationError("curve revisits the base point inside the window")
    return rel / norms[:, None]


def chord_angle_bounds(curve, delta, vertex_angle):
    """The angle condition for ``vertex_angle`` at window half-width
    ``delta``, its bounds estimated on an ``ANGLE_SAMPLES`` x
    ``ANGLE_SAMPLES`` grid.

    Grid nodes are offset by half a step so the open interval endpoints are
    never evaluated.
    """
    if not 0.0 < delta < 0.5:
        raise InvalidArgumentError("delta must lie in (0, 0.5)")
    if not 0.0 < vertex_angle < math.pi:
        raise InvalidArgumentError("vertex angle must lie in (0, pi)")
    base = curve.origin
    offsets = (np.arange(ANGLE_SAMPLES) + 0.5) / ANGLE_SAMPLES * delta
    outgoing = _unit_chords(curve, offsets, base)
    incoming = _unit_chords(curve, 1.0 - delta + offsets, base)
    dots_out = np.clip(outgoing @ outgoing.T, -1.0, 1.0)
    dots_cross = np.clip(incoming @ outgoing.T, -1.0, 1.0)
    sup_outgoing = float(np.arccos(dots_out.min()))
    inf_straddling = float(np.arccos(dots_cross.max()))
    return AngleConditionReport(float(delta), sup_outgoing, inf_straddling, float(vertex_angle),
                                bool(sup_outgoing < vertex_angle < inf_straddling))


# -- sphere winding invariant ------------------------------------------------


@dataclass(frozen=True)
class WindingSample:
    """Invariant value at one sweep parameter.

    ``singular`` means the projected curve passed through (1, 0) within
    tolerance, i.e. the curve touches the candidate sphere at this parameter;
    ``touch_param`` then gives the curve parameter where it touches: the
    nearest to the sphere of a few closed-form points around its nearest
    vertex (``_nearest_params``), a seed for Newton, not the nearest point
    of the whole curve.
    """

    t: float
    winding: int | None
    singular: bool
    touch_param: float | None = None

    @property
    def status(self):
        return "singular" if self.singular else "ok"


def _axis_dot(a, b):
    """Column dot products of ``a`` and ``b`` (n, P), summed axis by axis,
    first to last, so each column gets the same bits in any batch."""
    ab = a * b
    dot = ab[0].copy()
    for i in range(1, ab.shape[0]):
        dot += ab[i]
    return dot


def _sphere_distances(x, center, radius, normal):
    """Distance from each point x[:, j] of ``x`` (n, k) to the sphere of
    column j of ``center`` and ``normal`` (n, k) and entry j of ``radius``;
    a sphere's columns may be (n, 1) and its radius a number, to measure k
    points against one sphere, and more axes broadcast the same way.  With v = x - center and h = v . normal, the
    distance is hypot(h, |v - h normal| - r).  The dot products are summed
    axis by axis, first to last, and every step is entrywise, so a point
    gets the same bits alone and among any number of others."""
    v = x - center
    h = _axis_dot(v, normal)
    return np.hypot(h, np.sqrt(np.maximum(_axis_dot(v, v) - h * h, 0.0)) - radius)


def _nearest_vertices(curve, center, radius, normal):
    """Index of the first vertex nearest each sphere (column of ``center``
    and ``normal`` (n, G), entry of ``radius``), in distances of
    ``_sphere_distances``.

    A point x lies at least ||x - center| - r| and at least |h| from the
    sphere.  Over a block's box of the curve's block index the first is
    bounded below through ``Curve._box_distances`` and the second by the
    box's reach along the normal; widened by a bound on the rounding of the
    box, of the distances and of the dot products, they give a floor for
    each (sphere, block) pair, under which ``Curve._least`` finds the
    nearest vertex measuring only blocks that can hold it.  Spheres are
    taken in chunks of at most ``PAIR_BUDGET`` (sphere, block) pairs, and a
    pass of the search measures ``PAIR_BUDGET`` (sphere, vertex) pairs.
    """
    columns = curve.columns
    lower, upper = curve.bounds
    mid, half = curve.blocks
    n, count = center.shape
    reach = float(np.linalg.norm(np.maximum(-lower, upper))) + row_norms(center.T) + radius
    slack = (n + 8) * 2.0 ** -50 * reach
    offset = (normal * center).sum(axis=0)
    nearest = np.empty(count, dtype=int)
    chunk = max(1, PAIR_BUDGET // max(mid.shape[1], BLOCK_SIZE))
    for g0 in range(0, count, chunk):
        part = slice(g0, g0 + chunk)
        near, far = curve._box_distances(center[:, part])
        r = radius[part, None]
        plane = np.abs(normal[:, part].T @ mid - offset[part, None])
        plane -= np.abs(normal[:, part].T) @ half
        floor = np.maximum(np.maximum(near - r, r - far), plane) - slack[part, None]

        def distances(g, j, g0=g0):
            g = g + g0
            return _sphere_distances(columns[:, j], center[:, g], radius[g], normal[:, g])

        nearest[part] = curve._least(floor, distances)[1]
    return nearest


def _nearest_params(curve, center, radius, normal):
    """Touch parameter of each sphere (column of ``center`` and ``normal``
    (n, G), entry of ``radius``), one pass for all spheres.

    From the nearest vertex k, each of its two segments j (k - 1 and k, mod
    m) gives three fractions in closed form.  With v0 = x_j - center, e =
    x_{j+1} - x_j and h = v . normal, the point at fraction tau has h = h0 +
    tau h1 and |w|^2 = |v|^2 - h^2 = p0 + q1 tau + p2 tau^2: the segment
    crosses the sphere's hyperplane at tau = -h0 / h1 and its cylinder |w| =
    r at the roots of p2 tau^2 + q1 tau + p0 - r^2 = 0.  A point of the
    segment on the sphere is on both, so a sphere through a point of a
    segment gives that point back.  A fraction that is not finite is
    dropped and the rest are clipped to [0, 1].  The vertex and these points
    are measured with ``_sphere_distances``, and the first nearest wins, in
    this order: the vertex, then segment k - 1's hyperplane crossing, its
    smaller root and its larger root, then the same three of segment k.
    Every step is entrywise, so a sphere gets the same bits in any batch.
    """
    params = curve.params
    columns = curve.columns
    m = curve.n_vertices
    k = _nearest_vertices(curve, center, radius, normal)
    seg = np.stack(((k - 1) % m, k))  # (2, G): the segments before and after k
    # Lengths scaled by the power of two that brings r into [0.5, 1): exact, so
    # the fractions keep their bits, and the squares stay finite on a huge curve.
    scale = -np.frexp(radius)[1]
    center, normal = center[:, None], normal[:, None]
    x0 = columns[:, seg]
    v0 = np.ldexp(x0 - center, scale)
    e = np.ldexp(columns[:, (seg + 1) % m] - x0, scale)
    r = np.ldexp(radius, scale)
    h0, h1 = _axis_dot(v0, normal), _axis_dot(e, normal)
    q1 = 2.0 * (_axis_dot(v0, e) - h0 * h1)
    p2 = _axis_dot(e, e) - h1 * h1
    c = _axis_dot(v0, v0) - h0 * h0 - r * r
    with np.errstate(divide="ignore", invalid="ignore"):
        # The roots in the form that does not cancel: q / p2 and c / q.
        q = -0.5 * (q1 + np.copysign(np.sqrt(q1 * q1 - 4.0 * p2 * c), q1))
        first, second = q / p2, c / q
        tau = np.stack((-h0 / h1, np.minimum(first, second), np.maximum(first, second)), axis=1)
    found = np.isfinite(tau)
    tau = np.clip(np.where(found, tau, 0.0), 0.0, 1.0)  # (2, 3, G)
    start, span = params[seg][:, None], (params[seg + 1] - params[seg])[:, None]
    t = np.concatenate((params[k][None], (start + tau * span).reshape(6, -1)))
    points = np.moveaxis(curve.eval_many(t), -1, 0)
    dist = _sphere_distances(points, center, radius, normal)
    dist[1:][~found.reshape(6, -1)] = np.inf
    nearest = dist.argmin(axis=0)
    return np.mod(t[nearest, np.arange(t.shape[1])], 1.0)


def _spheres(curve, ts, shape):
    """The candidate spheres at sweep parameters ``ts``: ``(center, radius,
    normal, live)``, a row of ``center`` and ``normal`` (G, n) and an entry
    of ``radius`` for each live node, one whose swept point is at least
    1e-14 times the curve's extent from the base.  A row has the bits of the
    scalar ``third_vertex_sphere`` (``tests/reference.py``) in any batch."""
    base = curve.origin
    d = curve.eval_many(ts) - base
    # The dot product of np.linalg.norm, for the scalar form's bits.
    dist = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
    live = dist >= 1e-14 * curve.extent
    d, dist = d[live], dist[live]
    r1 = shape.ratio_oq * dist
    r2 = shape.ratio_pq * dist
    alpha = (r1 * r1 - r2 * r2 + dist * dist) / (2.0 * dist * dist)
    rad_sq = r1 * r1 - alpha * alpha * dist * dist
    if (rad_sq <= 0.0).any():
        # shape_from_angles refuses a shape whose rad_sq cancels to 0 at unit
        # distance, as at --angles 1e-7,90,89.9999999; at another distance
        # rounding could still do so.
        raise InfeasibleShapeError("side ratios admit no third vertex off the o-p line")
    return base + alpha[:, None] * d, np.sqrt(rad_sq), d / dist[:, None], live


def _live_touch_params(curve, ts, shape):
    """Touch parameters of the candidate spheres at sweep parameters ``ts``
    (a list), all from one pass of ``_nearest_params``, and None at a node
    whose swept point coincides with the base (it has no sphere).  Each
    sphere is a row of ``_spheres``, so a touch parameter (a refinement
    seed) has the same bits whichever nodes share its pass."""
    if not ts:
        return []
    center, radius, normal, live = _spheres(curve, ts, shape)
    touch = iter(_nearest_params(curve, center.T, radius, normal.T).tolist() if live.any() else [])
    return [next(touch) if ok else None for ok in live.tolist()]


def _touch_params(curve, ts, shape):
    """``_live_touch_params``, refusing a node without a sphere."""
    touch = _live_touch_params(curve, ts, shape)
    if None in touch:
        raise DegenerateConfigurationError("sphere requires p distinct from o")
    return touch


def _cylinder_coords(columns, center, normal):
    """``(w_sq, h)`` for each vertex column x of ``columns`` (n, k), with
    v = x - center, h = v . normal and w_sq = |v - h normal|^2: the projected
    point is (sqrt(w_sq) / r, h / r)."""
    v = columns - center[:, None]
    h = normal @ v
    w_sq = np.einsum("ij,ij->j", v, v)
    w_sq -= h * h
    np.maximum(w_sq, 0.0, out=w_sq)
    return w_sq, h


def _vertex_tolerance(columns, center, radius, normal):
    """1e-12 times the diameter of the projected path, the vertex tolerance of
    the reference ``winding_closed``.  One full pass over the curve."""
    w_sq, h = _cylinder_coords(columns, center, normal)
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
    ``PAIR_BUDGET`` pairs at a time (the last batch shorter), in the order
    of the scan: node by node of each chunk, blocks and segments ascending.

    Two tests, both on h~ = normal . x against o = normal . center, where
    ``delta`` bounds the rounding of those dot products and of the exact
    h = normal . (x - center), so a segment is left out only when both ends
    lie beyond thr on one side in the exact projection too.  The block test
    asks of a (node, box) pair whether the gap T = |normal . mid - o| -
    |normal| . half exceeds the window widened by 2 delta: normal . x stays
    within |normal| . half of normal . mid on the box, and 2 delta covers the
    rounding of T, so a block is dropped only when every vertex of it lies
    beyond the window on one side.  The vertex test takes h~ on the vertices
    of the surviving blocks and keeps a segment unless both its ends lie
    beyond the window on one side.

    The block test walks ``curve.block_tree`` top down: every (node, box)
    pair of the top level, then at each level below only the children of
    the pairs that survived the level above; the blocks that survive level
    0 go to the vertex test.  Level L widens the window by L delta more.
    No ancestor drops a block the block test keeps.  Let T be the gap in
    exact arithmetic on the stored floats, T~ its computed value, u =
    2^-53, X_i the largest |x_i| over the vertices and x_max = |X| (the
    box corner farthest from the origin), so delta = 4 (n + 2) u (x_max +
    |center|).  (i) A box A holds the box of each child c to within s_i =
    2^-51 X_i on axis i (``Curve.block_tree``), so |mid_A - mid_c| <= half_A
    - half_c + s on each axis and T(A) <= T(c) + sum |normal_i| s_i <=
    T(c) + 2^-51 x_max, at most T(c) + delta / 4 for n >= 2; over L levels,
    T(A) <= T(b) + L delta / 4 for the block b under A.  (ii) A dot product
    of n terms, summed in any order, errs by at most n u sum |a_i b_i| to
    first order, and |mid_i| + half_i <= X_i, so |T~ - T| <= (n + 3) u
    (x_max + |o|) <= 5 delta / 16, however T~ is summed.  (iii) So when
    T~(b) <= reach, T~(A) <= T(b) + L delta / 4 + 5 delta / 16 <= reach +
    5 delta / 8 + L delta / 4 <= reach + L delta, and since T~(A) is a
    float and rounding is monotone, T~(A) <= fl(reach + L delta): A keeps
    the pair.  The level-0 test of a tall tree sums its dot products axis
    by axis, where the dense test takes a matrix product, and the two may
    round a gap differently; by (ii) a block they decide differently has
    T(b) > reach - 5 delta / 16, so every vertex of it lies more than the
    window plus delta beyond it on one side, and it holds no candidate
    segment either way.  So the candidate pairs are those of the dense
    block test (``tests/reference.py``).

    The top test takes the nodes in chunks, and each lower test and the
    vertex test the surviving pairs in slices, so that none holds more than
    ``SCAN_MULTIPLE * PAIR_BUDGET`` entries; the vertex test queues the
    pairs it keeps and carries what does not fill a batch to the next
    slice.  At least one node is needed.
    """
    m = curve.n_vertices
    columns = curve.columns
    lower, upper = curve.bounds
    tree = curve.block_tree
    # The box corner farthest from the origin bounds every |x|.
    x_max = float(np.linalg.norm(np.maximum(-lower, upper)))
    delta = 4.0 * (columns.shape[0] + 2) * 2.0 ** -53 * (x_max + row_norms(center))
    offset = (normal * center).sum(axis=1)
    # 1 + 1e-12 covers the relative rounding of thr * r and of z = h / r.
    window = thr * radius * (1.0 + 1e-12) + delta
    high, low = offset + window, offset - window
    # The block test's bound at each level of the tree, the blocks' first.
    reach = [window + 2.0 * delta + level * delta for level in range(len(tree))]
    scan = SCAN_MULTIPLE * PAIR_BUDGET
    top = len(tree) - 1
    mid, half = tree[top]
    chunk = max(1, scan // mid.shape[1])
    nodes, blocks = [], []
    for g0 in range(0, normal.shape[0], chunk):
        part = normal[g0:g0 + chunk]
        gap = np.abs(part @ mid - offset[g0:g0 + chunk, None])
        gap -= np.abs(part) @ half
        node, block = np.nonzero(gap <= reach[top][g0:g0 + chunk, None])
        nodes.append(node + g0)
        blocks.append(block)
    nodes, blocks = np.concatenate(nodes), np.concatenate(blocks)
    for level in range(top - 1, -1, -1):
        nodes, blocks = _surviving_children(tree[level], normal, offset, reach[level],
                                            nodes, blocks, scan)
    rows = curve.block_vertices
    per_slice = max(1, scan // rows.shape[2])
    queue_node, queue_seg, queued = [], [], 0
    for s0 in range(0, nodes.size, per_slice):
        g = nodes[s0:s0 + per_slice]
        b = blocks[s0:s0 + per_slice]
        # Each block's vertices as one row an axis, vertex m and the padding read as vertex 0.
        h = normal[g, 0, None] * rows[0][b]
        for i in range(1, rows.shape[0]):
            h += normal[g, i, None] * rows[i][b]
        above = h > high[g, None]
        below = h < low[g, None]
        # A segment cannot lie wholly above and wholly below, so "==" means neither.
        row, pos = np.nonzero((above[:, :-1] & above[:, 1:]) == (below[:, :-1] & below[:, 1:]))
        seg = b[row] * BLOCK_SIZE + pos
        # Past segment m - 1 a short last block holds only padding.
        real = seg < m
        queue_node.append(g[row[real]])
        queue_seg.append(seg[real])
        queued += queue_seg[-1].size
        if queued >= PAIR_BUDGET:
            node, seg = np.concatenate(queue_node), np.concatenate(queue_seg)
            full = queued - queued % PAIR_BUDGET
            for p0 in range(0, full, PAIR_BUDGET):
                yield node[p0:p0 + PAIR_BUDGET], seg[p0:p0 + PAIR_BUDGET]
            queue_node, queue_seg, queued = [node[full:]], [seg[full:]], queued - full
    if queued:
        yield np.concatenate(queue_node), np.concatenate(queue_seg)


def _surviving_children(level, normal, offset, reach, nodes, boxes, scan):
    """The (node, box) pairs of tree ``level`` (``(mid, half)``) that pass
    the block test of ``_candidate_pairs`` at ``reach`` (one entry per
    node), among the children of the pairs ``nodes``, ``boxes`` of the level
    above, in their order, children ascending: gaps summed axis by axis,
    ``scan // TREE_FANOUT`` parent pairs a slice."""
    mid, half = level
    count = mid.shape[1]
    per_slice = max(1, scan // TREE_FANOUT)
    kept_nodes, kept_boxes = [nodes[:0]], [boxes[:0]]
    for s0 in range(0, nodes.size, per_slice):
        g = nodes[s0:s0 + per_slice]
        parent = boxes[s0:s0 + per_slice]
        # A short last box repeats its last child; the copies are dropped below.
        at = np.minimum(parent[:, None] * TREE_FANOUT + _FANOUT_SPAN, count - 1)
        nrm = normal[g]
        size = np.abs(nrm)
        dot = nrm[:, :1] * mid[0][at]
        width = size[:, :1] * half[0][at]
        for i in range(1, mid.shape[0]):
            dot += nrm[:, i:i + 1] * mid[i][at]
            width += size[:, i:i + 1] * half[i][at]
        gap = np.abs(dot - offset[g, None])
        gap -= width
        row, col = np.nonzero(gap <= reach[g, None])
        child = parent[row] * TREE_FANOUT + col
        real = child < count
        kept_nodes.append(g[row[real]])
        kept_boxes.append(child[real])
    return np.concatenate(kept_nodes), np.concatenate(kept_boxes)


def _base_distances(rho, z):
    """Distance from (1, 0) to each projected segment, from (rho[0], z[0])
    to (rho[1], z[1]) (rows of the (2, P) arrays): the steps of
    ``point_segment_distances(_PROJECTION_BASE, start, end)`` on the two
    components, x - a, the dot product summed rho then z, and (a + s ab) - x.
    A sum of two terms is one addition, so the bits are the same."""
    x_rho, x_z = _PROJECTION_BASE
    ab_rho, ab_z = rho[1] - rho[0], z[1] - z[0]
    denom = ab_rho * ab_rho + ab_z * ab_z
    safe = np.where(denom == 0.0, 1.0, denom)
    s = ((x_rho - rho[0]) * ab_rho + (x_z - z[0]) * ab_z) / safe
    s = np.clip(np.where(denom == 0.0, 0.0, s), 0.0, 1.0)
    d_rho = rho[0] + s * ab_rho - x_rho
    d_z = z[0] + s * ab_z - x_z
    return np.sqrt(d_rho * d_rho + d_z * d_z)


def _ray_crossings(ax, ay, bx, by, x0):
    """The segments from (ax, ay) to (bx, by) (entries of four arrays) that
    straddle the x axis, half-open (y < 0 against y >= 0) so that a vertex
    on the axis is counted once: their indices, the abscissa of each
    crossing, and its sign on the ray from (x0, 0) toward +x: +1 upward, -1
    downward, 0 where the abscissa is not beyond x0.  Over a closed path the
    signs sum to its winding number around (x0, 0) (Hormann & Agathos, CGTA
    2001)."""
    straddle = np.flatnonzero((ay < 0.0) != (by < 0.0))
    ax, ay, bx, by = ax[straddle], ay[straddle], bx[straddle], by[straddle]
    at = ax - ay * (bx - ax) / (by - ay)
    return straddle, np.where(at > x0, np.where(by > ay, 1.0, -1.0), 0.0), at


def _projected_windings(curve, center, radius, normal, tol):
    """Winding numbers around (1, 0) of the closed polyline ``curve`` after
    the canonical frame and cylindrical projection of each of G spheres (rows
    of ``center``, ``normal``; entries of ``radius``), and a flag for each
    sphere whose projected path is singular.

    The frame moves the center to the origin, rotates the normal onto the
    last axis and scales by 1 / r; the projection collapses the first n - 1
    coordinates to their radius, which no choice of that rotation changes.
    So a vertex x maps to (|v - h normal| / r, h / r), with v = x - center
    and h = v . normal, and no rotation is applied (the rotated form is the
    reference in ``tests/reference.py``).  The path is singular when a
    segment (the closing one included) comes within ``tol`` of (1, 0), as in
    ``passes_through``, or a vertex within vtol = 1e-12 times the path's
    diameter, as in ``winding_closed``.

    Bound, then verify.  Only segments that straddle z = 0 or end within
    2 max(tol, vtol) of it can be singular or cross the ray; every other
    segment lies at least twice the tolerances from (1, 0), which leaves room
    for rounding.  An O(n) bound on vtol per sphere, one interval test of
    every sphere against the curve's block index and a dot product on the
    vertices of the surviving blocks give a superset of those segments
    (``_candidate_pairs``).  The exact projection, the segment distances and
    the crossings (``_ray_crossings``) are taken on the flat (sphere,
    segment) pairs of that superset, ``PAIR_BUDGET`` pairs a pass whatever sphere they belong to,
    one entrywise expression for every pair, so a sphere gets the
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
        dist = _base_distances(rho, z)
        touches += np.bincount(node, weights=dist < tol, minlength=count)
        vertex_dist = np.hypot(rho[0] - 1.0, z[0])
        near = vertex_dist <= vtol_bound[node]
        if near.any():
            near_node.append(node[near])
            near_dist.append(vertex_dist[near])
        crossing, signs, _ = _ray_crossings(rho[0], z[0], rho[1], z[1], 1.0)
        winding += np.bincount(node[crossing], weights=signs, minlength=count)
    singular = touches > 0.0
    if near_node:
        near_node = np.concatenate(near_node)
        near_dist = np.concatenate(near_dist)
        for g in set(near_node[~singular[near_node]].tolist()):
            vtol = _vertex_tolerance(columns, center[g], radius[g], normal[g])
            singular[g] = np.any(near_dist[near_node == g] <= vtol)
    return winding.astype(int), singular


def _node_windings(curve, ts, shape):
    """Winding number and singular flag at each sweep parameter of ``ts``,
    all from one call of the kernel, and a mask of the nodes that have a
    sphere: a node whose swept point coincides with the base has none, and
    its winding and flag are meaningless."""
    center, radius, normal, live = _spheres(curve, ts, shape)
    winding = np.zeros(ts.size, dtype=int)
    singular = np.zeros(ts.size, dtype=bool)
    if live.any():
        winding[live], singular[live] = _projected_windings(curve, center, radius, normal,
                                                            SINGULAR_TOL)
    return winding, singular, live


def _sphere_windings(curve, ts, shape):
    """Winding samples at the sweep parameters ``ts``, all from one call of
    the kernel; None for a node whose swept point coincides with the base."""
    ts = np.asarray(ts, dtype=float)
    winding, singular, live = _node_windings(curve, ts, shape)
    touch = iter(_touch_params(curve, ts[live & singular].tolist(), shape))
    samples = []
    for t, w, sing, ok in zip(ts.tolist(), winding.tolist(), singular.tolist(), live.tolist()):
        if not ok:
            samples.append(None)
        elif sing:
            samples.append(WindingSample(t, None, True, next(touch)))
        else:
            samples.append(WindingSample(t, w, False))
    return samples


def _param_at_distance(curve, target, lo, hi):
    """First parameter from lo toward hi (both in [0, 1]; the curve lies
    below the target at lo) where the distance to the base point reaches
    ``target``.

    The distance is convex along a segment, so the crossing is a root of a
    quadratic in t on the segment that ends at the first window vertex, in
    scan order, at or beyond the target, or else on the piece that ends at
    hi.  ``Curve._least`` finds that vertex: a vertex's value is its index
    (negated scanning backward) and a block's floor that of its first window
    vertex, each inf unless it (its box's far bound) reaches the target.
    """
    params, base = curve.params, curve.origin
    # Window vertices first ... stop - 1; ``after`` follows them in scan order.
    first = int(np.searchsorted(params, min(lo, hi), "right"))
    stop = int(np.searchsorted(params, max(lo, hi), "left"))
    sign, after = (1, stop) if lo < hi else (-1, first - 1)
    starts = np.arange(0, curve.n_vertices, BLOCK_SIZE)
    lead = np.maximum(starts, first) if sign > 0 else 1 - np.minimum(starts + BLOCK_SIZE, stop)
    floor = np.where(curve._box_distances(base[:, None])[1] >= target, lead, math.inf)

    def values(_, j):
        hit = (j >= first) & (j < stop) & (row_norms(curve.points[j] - base) >= target)
        return np.where(hit, sign * j, math.inf)

    _, (k,) = curve._least(floor, values, [sign * after])
    prev = (after if k < 0 else k) - sign
    t_from = float(params[prev]) if first <= prev < stop else lo
    t_to = float(params[k]) if k >= 0 else hi
    a, b = curve.eval_many([t_from, t_to])
    if k < 0 and row_norms(b - base) < target:
        raise DegenerateConfigurationError("curve never reaches the target distance in the window")
    # |a - o + tau (b - a)|^2 - target^2 = qa tau^2 + 2 qb tau + qc, in lengths
    # scaled by the power of two that brings target into [0.5, 1): exact, so
    # tau keeps its bits, and the squares stay finite on a huge curve.
    target, scale = math.frexp(target)
    start, step = np.ldexp(a - base, -scale), np.ldexp(b - (a - base) - base, -scale)
    qa, qb, qc = (step * step).sum(), (start * step).sum(), (start * start).sum() - target * target
    # Below the target at tau = 0 (qc < 0), the crossing is the larger root,
    # taken in the form that does not cancel; rounding may put it past 1.
    root = np.sqrt(max(qb * qb - qa * qc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = 0.0 if qc >= 0.0 else -qc / (qb + root) if qb > 0.0 else (root - qb) / qa
    return float(np.mod(t_from + min(tau, 1.0) * (t_to - t_from), 1.0))


def near_base_param(curve, shape, epsilon):
    """Sweep-start parameter: where the candidate sphere sits inside the clear ball.

    The clear radius is half the minimum distance from the base to the curve
    outside the ``(1 - eps, eps)`` window; the sphere around the swept point at
    distance (clear radius) / ratio_oq lies entirely on that ball's boundary.
    """
    if not 0.0 < epsilon < 0.5:
        raise InvalidArgumentError("epsilon must lie in (0, 0.5)")
    clear = 0.5 * curve.min_distance_excluding(curve.origin, (1.0 - epsilon, epsilon))
    return _param_at_distance(curve, clear / shape.ratio_oq, 0.0, epsilon)


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
    candidate sphere is undefined; they are left out of ``grid``.  ``seeds``
    are Newton's starting points, and ``refined`` holds, for each seed in
    order, the triangle Newton reached from it in the sweep, where the sweep
    accepted that triangle, and None where Newton is still to run from it.
    ``bracket`` is the certified bracket of the first grid change that has
    one."""

    grid: list
    bracket: tuple | None
    seeds: list
    t_far: float
    t_near: float
    epsilon: float
    dropped: list
    refined: list


def _bisect(kernel, lo, hi, w_lo, width, depth):
    """Bisect the invariant's change between ``lo`` (value ``w_lo``) and
    ``hi`` until the bracket is at most ``width`` wide or its midpoint is
    singular; the bracket ``(lo, hi)``, or None at a midpoint that is not
    live.  A bracket wider than ``width`` stopped at a singular midpoint.
    ``kernel(ts)`` gives the invariant, a singular flag and a live flag at
    each parameter of ``ts``, as ``_node_windings`` does.

    The midpoints of the next ``depth`` levels depend only on the current
    bracket, so one kernel call takes all of them (in heap order: node i has
    children 2 i + 1 below its midpoint and 2 i + 2 above), and a walk
    follows the path one midpoint at a time would take, stopping where it
    would stop.  A node gets the same answer in a batch of any size, so
    brackets and seeds are those of the one-node loop.
    """
    size = 2 ** depth - 1
    while hi - lo > width:
        ends = [(lo, hi)]
        for i in range(size // 2):
            a, b = ends[i]
            mid = 0.5 * (a + b)
            ends += [(a, mid), (mid, b)]
        mids = np.array([0.5 * (a + b) for a, b in ends])
        # A node at most width wide is never walked to.
        wide = np.flatnonzero([b - a > width for a, b in ends])
        winding = np.zeros(size, dtype=int)
        singular = np.zeros(size, dtype=bool)
        live = np.zeros(size, dtype=bool)
        winding[wide], singular[wide], live[wide] = kernel(mids[wide])
        i = 0
        while i < size and hi - lo > width:
            mid = float(mids[i])
            if not live[i]:
                return None
            if singular[i]:
                return lo, hi
            if winding[i] == w_lo:
                lo, i = mid, 2 * i + 2
            else:
                hi, i = mid, 2 * i + 1
    return lo, hi


def _refined(curve, shape, seed, residual_tol):
    """``refine_similar``'s triangle from ``seed``, or the RefineFailedError it raised."""
    try:
        return refine_similar(curve, shape, *seed, residual_tol)
    except RefineFailedError as exc:
        return exc


def _newton_from_grid(curve, shape, changes, residual_tol):
    """Newton from the midpoint of each grid change, certified: for each
    change (a, b) (winding samples, neither singular, windings different),
    ``(bracket, seed, triangle)`` when Newton's triangle is accepted, else
    None.

    Newton starts at the change's midpoint and its touch parameter, one
    touch pass for all changes.  Its triangle is accepted when it meets
    ``residual_tol`` with t_p inside (a, b), when a bracket around t_p at
    most ``HANDOFF_WIDTH`` wide (from t_p - ``HANDOFF_WIDTH`` / 2) has live,
    non-singular ends of different windings, one kernel call for all
    changes, and when the touch parameter at t_p lies within 1e-6 of its t_q
    (mod 1), one more touch pass.  The bracket then certifies a crossing
    next to t_p, and the touch test that t_q is where the sphere at t_p
    meets the curve.
    """
    mids = [0.5 * (a.t + b.t) for a, b in changes]
    tried = []
    for i, (mid, s) in enumerate(zip(mids, _live_touch_params(curve, mids, shape))):
        if s is None:
            continue  # no sphere at the midpoint: ``_bisect`` stops there too
        tri = _refined(curve, shape, (mid, s), residual_tol)
        a, b = changes[i]
        if isinstance(tri, InscribedTriangle) and a.t < tri.t_p < b.t:
            tried.append((i, (mid, s), tri))
    accepted = [None] * len(changes)
    if not tried:
        return accepted
    t_p = np.array([tri.t_p for _, _, tri in tried])
    lo = t_p - 0.5 * HANDOFF_WIDTH
    hi = lo + HANDOFF_WIDTH
    # One step down where rounding left the bracket wider than the width.
    ends = np.stack((lo, np.where(hi - lo > HANDOFF_WIDTH, np.nextafter(hi, lo), hi)), axis=1)
    winding, singular, live = (v.reshape(-1, 2) for v in _node_windings(curve, ends.ravel(), shape))
    certified = live.all(axis=1) & ~singular.any(axis=1) & (winding[:, 0] != winding[:, 1])
    kept = np.flatnonzero(certified).tolist()
    touch = _live_touch_params(curve, t_p[kept].tolist(), shape)
    for k, s in zip(kept, touch):
        if s is None:
            continue
        i, seed, tri = tried[k]
        gap = abs(s - tri.t_q) % 1.0
        if min(gap, 1.0 - gap) <= 1e-6:
            accepted[i] = (tuple(ends[k].tolist()), seed, tri)
    return accepted


def sweep_similar(curve, shape, grid_size=256, epsilon=FALLBACK_EPSILON, residual_tol=1e-9):
    """Evaluate the invariant on a grid from the near-base parameter to the
    farthest parameter, all nodes in one call of the winding kernel, and
    certify every change.

    Newton runs from each change's midpoint (``_newton_from_grid``), at
    ``residual_tol``.  Where its triangle is not certified, the change is
    bisected to a certified bracket ``HANDOFF_WIDTH`` wide, or to a
    singular midpoint, and the bracket's midpoint and its touch parameter
    are a seed for Newton, as is each singular grid node.
    """
    _check_residual_tol(residual_tol)
    if grid_size < 2:
        raise InvalidArgumentError("grid size must be at least 2")
    eps = float(epsilon)
    # near_base_param refuses a bad epsilon before any curve query runs.
    t_near = near_base_param(curve, shape, eps)
    t_far = curve.farthest_param(curve.origin)
    if t_near >= t_far:
        raise NoBracketError(
            f"near-base parameter {t_near:.6g} does not precede the farthest parameter {t_far:.6g}"
        )
    ts = np.linspace(t_near, t_far, grid_size)
    samples = _sphere_windings(curve, ts, shape)
    grid = [s for s in samples if s is not None]
    dropped = [float(t) for t, s in zip(ts, samples) if s is None]
    if len(grid) < 3:
        # Two samples sit on the provable anchor values; a change between them
        # cannot be separated from the anchors, so treat it as unresolved.
        raise NoBracketError(
            "grid too coarse to certify a bracket; increase the grid size", grid=grid
        )
    seeds = [(s.t, s.touch_param) for s in grid if s.singular]
    refined = [None] * len(seeds)
    changes = [(a, b) for a, b in zip(grid[:-1], grid[1:])
               if not (a.singular or b.singular or a.winding == b.winding)]
    accepted = _newton_from_grid(curve, shape, changes, residual_tol)
    kernel = partial(_node_windings, curve, shape=shape)
    # A bisection that meets a midpoint whose swept point is back at the base
    # has no sphere there, so it cannot go on and certifies nothing (None).
    found = [done[0] if done else _bisect(kernel, a.t, b.t, a.winding, HANDOFF_WIDTH, BISECT_DEPTH)
             for done, (a, b) in zip(accepted, changes)]
    # A bisection's seed is its bracket's midpoint, where the singular
    # midpoint is when one stopped it.
    fallback_ts = [0.5 * (f[0] + f[1]) for done, f in zip(accepted, found) if not done and f]
    fallback = iter(zip(fallback_ts, _touch_params(curve, fallback_ts, shape)))
    bracket = next((f for f in found if f is not None), None)
    for done, f in zip(accepted, found):
        if done:
            _, seed, triangle = done
            seeds.append(seed)
            refined.append(triangle)
        elif f is not None:
            seeds.append(next(fallback))
            refined.append(None)
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
        refined=refined,
    )


def _finite_difference_jacobian(fn, v):
    jac = np.zeros((2, 2))
    for j in range(2):
        h = _JACOBIAN_STEP * max(1.0, abs(v[j]))
        vp, vm = v.copy(), v.copy()
        vp[j] += h
        vm[j] -= h
        jac[:, j] = (fn(vp) - fn(vm)) / (2.0 * h)
    return jac


def _check_residual_tol(residual_tol):
    """Refuse a residual tolerance that is not positive and finite: a NaN or
    infinite one would accept any triangle, and zero or less none."""
    if not 0.0 < residual_tol < math.inf:
        raise InvalidArgumentError(f"residual_tol must be positive and finite, got {residual_tol!r}")


def refine_similar(curve, shape, t0, s0, residual_tol=1e-9):
    """Damped Newton on the two ratio residuals, seeded from a bracket.

    Variables are the parameters of the swept vertex p and the third vertex q.
    Central finite differences handle the polyline kinks.  A damped step is
    taken only if it strictly lowers the largest residual, so the current
    point is always the best one seen.  Newton stops below 1e-13, after
    ``MAX_NEWTON_ITERS`` steps, or at its floor: no step of
    ``_STEP_FRACTIONS`` lowers the residual, the Jacobian is singular or the
    step is not finite.  The residuals are dimensionless side ratios, so
    ``residual_tol`` does not scale with the curve.  They are taken once at
    each point Newton visits, so a seed that already meets the stopping
    residual costs one evaluation.  The similar sweep runs it from the
    midpoint of each grid change and certifies its triangle with a bracket
    around it (``_newton_from_grid``), or else from a bisection's bracket
    ``HANDOFF_WIDTH`` wide, as the equilateral solver does: the bracket
    certifies the triangle, and Newton only polishes it.
    """
    _check_residual_tol(residual_tol)
    # A NaN seed would give a NaN triangle, whose residual no tolerance refuses.
    if not (math.isfinite(t0) and math.isfinite(s0)):
        raise InvalidArgumentError(f"seed parameters must be finite, got t0={t0!r}, s0={s0!r}")
    base = curve.origin
    big = 1e6

    def g(v):
        try:
            res = residuals(shape, base, curve.eval(v[0]), curve.eval(v[1]))
        except DegenerateConfigurationError:
            return np.array([big, big])
        return np.asarray(res)

    v = np.array([float(t0), float(s0)])
    gv = g(v)
    norm = float(np.max(np.abs(gv)))
    for _ in range(MAX_NEWTON_ITERS):
        if norm < 1e-13:
            break
        try:
            step = np.linalg.solve(_finite_difference_jacobian(g, v), gv)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        for lam in _STEP_FRACTIONS:
            trial = v - lam * step
            g_trial = g(trial)
            trial_norm = float(np.max(np.abs(g_trial)))
            if trial_norm < norm:
                v, gv, norm = trial, g_trial, trial_norm
                break
        else:
            break  # no damped step lowers the residual: Newton's floor
    t_p = float(np.mod(v[0], 1.0))
    t_q = float(np.mod(v[1], 1.0))
    triangle = InscribedTriangle(
        t_p=t_p,
        t_q=t_q,
        point_o=base,
        point_p=curve.eval(t_p),
        point_q=curve.eval(t_q),
        residual_oq=float(gv[0]),
        residual_pq=float(gv[1]),
    )
    if norm > residual_tol:
        raise RefineFailedError(
            f"refinement stalled at residual {norm:.3e} (tolerance {residual_tol:.3e})",
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
    """The triangles in (t_p, t_q) order, less each one within ``tol`` of a
    kept one in both parameters (modulo 1); each is compared with all the
    kept ones in one array expression."""
    kept = []
    kept_p, kept_q = np.empty(len(triangles)), np.empty(len(triangles))
    for tri in sorted(triangles, key=lambda tr: (tr.t_p, tr.t_q)):
        k = len(kept)
        dp = np.abs(tri.t_p - kept_p[:k]) % 1.0
        dq = np.abs(tri.t_q - kept_q[:k]) % 1.0
        if np.any((np.minimum(dp, 1.0 - dp) <= tol) & (np.minimum(dq, 1.0 - dq) <= tol)):
            continue
        kept_p[k], kept_q[k] = tri.t_p, tri.t_q
        kept.append(tri)
    return kept


def _ladder(scan, passes, failed, uncertified):
    """``(epsilon, result, warnings)`` of a scan of ``EPSILON_LADDER``: the
    first rung whose ``scan(eps)`` result ``passes`` (``FALLBACK_EPSILON``
    if none does), the last scan that did not raise (None if every one did),
    and a warning ``failed``, formatted with the rung and the error, per rung
    whose scan raised DegenerateConfigurationError, then ``uncertified`` if
    no rung passed."""
    warnings, result = [], None
    for eps in EPSILON_LADDER:
        try:
            result = scan(eps)
        except DegenerateConfigurationError as exc:
            warnings.append(failed.format(eps, exc))
            continue
        if passes(result):
            return eps, result, warnings
    return FALLBACK_EPSILON, result, warnings + [uncertified]


def similar_window(curve, shape):
    """``(epsilon, hypothesis, warnings)`` of ``_ladder`` over the angle
    condition for ``shape`` at the curve's base point: the window that
    ``solve_similar`` sweeps at, its angle report and the
    ladder's warnings."""
    return _ladder(
        lambda delta: chord_angle_bounds(curve, delta, shape.vertex_angle),
        lambda report: report.satisfied, "angle scan at delta={} failed: {}",
        "angle condition not certified on the ladder; continuing anyway "
        "(the condition is sufficient, not necessary)")


def solve_similar(curve, shape, base_param=0.0, grid_size=256, residual_tol=1e-9):
    """Find triangles similar to ``shape`` inscribed in the curve with the
    distinguished vertex at the requested base parameter.

    The angle condition is sufficient, not necessary, so a failed check only
    warns.  Raises NoBracketError when the sweep sees no invariant change.
    """
    _check_residual_tol(residual_tol)
    work = curve.with_base_param(base_param)
    epsilon, hypothesis, warnings = similar_window(work, shape)
    sweep = sweep_similar(work, shape, grid_size, epsilon=epsilon, residual_tol=residual_tol)
    triangles = []
    for seed, result in zip(sweep.seeds, sweep.refined):
        if result is None:
            result = _refined(work, shape, seed, residual_tol)
        if isinstance(result, RefineFailedError):
            warnings.append(str(result))
        else:
            triangles.append(result)
    return SimilarOutcome(
        triangles=_dedupe(triangles, DEDUPE_TOL),
        hypothesis=hypothesis,
        sweep=sweep,
        warnings=warnings,
    )


# -- equilateral solver via ratio paths ---------------------------------------


def check_strong_monotone(curve, epsilon):
    """Test whether chord dot products are monotone across the base window,
    on ``_MONOTONE_PROBES`` probes and a ``_MONOTONE_GRID``-node grid.

    For each probe point p in the window, the function of the window parameter
    ``(gamma(t) - o) . (p - o)`` must be monotone in one direction over the
    whole modular window (either direction, independently per p).  A curve
    that folds back past the base fails: the dot product dips to zero at the
    base and rises again on both sides.
    """
    if not 0.0 < epsilon < 0.5:
        raise InvalidArgumentError("epsilon must lie in (0, 0.5)")
    base = curve.origin
    taus = -epsilon + (np.arange(_MONOTONE_GRID) + 0.5) * (2.0 * epsilon / _MONOTONE_GRID)
    rel = curve.eval_many(np.mod(taus, 1.0)) - base
    dists = row_norms(rel)
    away = np.abs(taus) > epsilon / 8.0
    if np.any(dists[away] < 1e-13 * curve.extent):
        raise DegenerateConfigurationError("curve revisits the base point inside the window")
    sigmas = -epsilon + (np.arange(_MONOTONE_PROBES) + 0.5) * (2.0 * epsilon / _MONOTONE_PROBES)
    probes = curve.eval_many(np.mod(sigmas, 1.0)) - base
    values = rel @ probes.T  # (grid node, probe)
    diffs = np.diff(values, axis=0)
    tol = 1e-12 * row_norms(probes) * max(dists.max(), 1e-300)
    non_decreasing = np.all(diffs >= -tol[None, :], axis=0)
    non_increasing = np.all(diffs <= tol[None, :], axis=0)
    return bool(np.all(non_decreasing | non_increasing))


def ratio_path(curve, s, samples=1024):
    """Planar path of normalized side ratios for anchor parameter ``s``, as
    a ``(samples, 2)`` array of points.

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
    # Summed axis by axis, first to last: for n <= 7 the bits of row_norms,
    # as in _segment_lengths, in fewer passes.
    from_base, from_anchor = (pts - base).T, (pts - anchor).T
    r1 = np.sqrt(_axis_dot(from_base, from_base)) / span
    r2 = np.sqrt(_axis_dot(from_anchor, from_anchor)) / span
    return np.column_stack([r1 - 1.0, r2 - 1.0])


@dataclass(frozen=True)
class _FarHalf:
    """What every reference loop of a solve takes from the far-anchor path:
    its vertices, their distances from the origin, its bounding box, and its
    segments' crossings of the x axis (``_ray_crossings`` from the origin):
    their abscissae and their signed count."""

    points: np.ndarray
    radii: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    abscissae: np.ndarray
    winding: int

    @classmethod
    def of(cls, pts):
        _, signs, at = _ray_crossings(pts[:-1, 0], pts[:-1, 1], pts[1:, 0], pts[1:, 1], 0.0)
        return cls(pts, np.hypot(pts[:, 0], pts[:, 1]), pts.min(axis=0), pts.max(axis=0), at,
                   int(signs.sum()))


def _loop_winding(curve, far, s):
    """``winding_closed`` of ``tests/reference.py`` around the origin of its
    ``ratio_loop`` of the far path (``far``, a ``_FarHalf``) and the near
    path at anchor ``s``, as the signed count of the loop's crossings of the
    ray from the origin toward +x; only the near path's crossings and those
    of the two junction segments are found here.  A vertex within the vertex
    tolerance of ``winding_closed``, from the union of the two halves' boxes,
    raises SingularPathError at the same index.  So does a crossing within
    2^-46 times the loop's largest |x| of the origin, a bound on the
    rounding of its abscissa: which side of the origin it crosses on is then
    decided by rounding, so no count certifies it."""
    near = ratio_path(curve, s, RATIO_SAMPLES)[::-1]
    lower = np.minimum(far.lower, near.min(axis=0))
    upper = np.maximum(far.upper, near.max(axis=0))
    span = upper - lower
    tol = 1e-12 * max(float(np.hypot(span[0], span[1])), 1e-300)
    radii = np.concatenate([far.radii, np.hypot(near[:, 0], near[:, 1])])
    hits = np.flatnonzero(radii <= tol)
    if hits.size:
        raise SingularPathError(
            f"path vertex {hits[0]} lies on the winding base", index=int(hits[0])
        )
    ends = np.vstack([far.points[-1:], near, far.points[:1]])
    _, signs, at = _ray_crossings(ends[:-1, 0], ends[:-1, 1], ends[1:, 0], ends[1:, 1], 0.0)
    rounding = 2.0 ** -46 * max(-lower[0], upper[0])
    if np.any(np.abs(far.abscissae) <= rounding) or np.any(np.abs(at) <= rounding):
        raise SingularPathError("the path crosses the x axis within rounding of the winding base")
    return far.winding + int(signs.sum())


def _anchor_windings(curve, far, w_hi, ts):
    """The loop invariant as a kernel of ``_bisect``: at each anchor of
    ``ts``, whether ``_loop_winding`` differs from ``w_hi`` and whether it
    raised SingularPathError; every anchor is live.  A loop winding costs in
    proportion to its ratio path's samples, so the solver asks for one
    anchor a call."""
    differs, singular = np.zeros((2, ts.size), dtype=bool)
    for i, s in enumerate(ts.tolist()):
        try:
            differs[i] = _loop_winding(curve, far, s) != w_hi
        except SingularPathError:
            singular[i] = True
    return differs, singular, np.ones(ts.size, dtype=bool)


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
    the origin, bisects the anchor with the sweep's walk, one loop winding a
    call, to bracket a ratio path through the origin, and polishes the
    bracket's midpoint with the shared Newton refiner.  The walk stops at
    ``HANDOFF_WIDTH`` or a singular anchor, and Newton runs once.
    """
    _check_residual_tol(residual_tol)
    work = curve.with_base_param(base_param)
    base = work.origin
    epsilon, monotone, warnings = _ladder(
        lambda eps: check_strong_monotone(work, eps), bool, "monotone scan at eps={} failed: {}",
        "no strongly monotone window found on the ladder; continuing anyway")
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
    far = _FarHalf.of(ratio_path(work, s_far, RATIO_SAMPLES))
    try:
        loop_w = _loop_winding(work, far, s_near)
    except SingularPathError:
        loop_w = None
    if loop_w != 1:
        warnings.append(
            f"reference loop winding is {loop_w!r}, expected 1; bisection may not be certified"
        )
    kernel = partial(_anchor_windings, work, far, loop_w if loop_w is not None else 1)

    def seed(s_star):
        """Newton's seed at anchor ``s_star``: the probe sample nearest the origin."""
        probe = ratio_path(work, s_star, PROBE_SAMPLES)
        t_star = float(np.argmin(row_norms(probe))) / (PROBE_SAMPLES - 1)
        return s_star, s_star * t_star

    shape = equilateral_shape()
    # The far anchor's end of the bracket differs from the near anchor's winding.
    lo, hi = _bisect(kernel, s_far, s_near, True, HANDOFF_WIDTH, 1)
    triangle = refine_similar(work, shape, *seed(0.5 * (lo + hi)), residual_tol)
    return EquilateralOutcome(
        triangle=triangle,
        epsilon=epsilon,
        strongly_monotone=bool(monotone),
        loop_winding=loop_w,
        s_far=s_far,
        s_near=s_near,
        warnings=warnings,
    )
