"""Oracle tests of the block-pruned curve queries against brute force.

Each reference visits every vertex or segment of the curve, with no block
index, no pruning and none of the closed forms it checks.  Curves span
several blocks of the index plus a short last block, in R^2, R^3 and R^6, at
scales 1e-9, 1 and 1e9; parameter windows end at vertex parameters, inside
segments (mid-block) and on the closing segment.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triscribe import Curve, InvalidArgumentError
from triscribe.curve import BLOCK_SIZE
from triscribe.solvers import (
    _nearest_params,
    _nearest_vertices,
    _param_at_distance,
    _sphere_distances,
)

from conftest import min_distance_loop, modular_distance, one_row_distance
from reference import Sphere

EXAMPLES = 60


@st.composite
def curves(draw):
    """A random closed polyline: a scattered one, whose block boxes all
    overlap, or a noisy loop, whose blocks the index can tell apart."""
    m = draw(st.integers(2, 4)) * BLOCK_SIZE + draw(st.integers(1, BLOCK_SIZE - 1))
    n = draw(st.sampled_from([2, 3, 6]))
    scale = draw(st.sampled_from([1e-9, 1.0, 1e9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.standard_normal((m, n))
    else:
        th = 2.0 * math.pi * np.arange(m) / m
        pts = 0.05 * rng.standard_normal((m, n))
        pts[:, 0] += np.cos(th)
        pts[:, 1] += np.sin(th) * rng.uniform(0.3, 1.0)
    return Curve(scale * pts), rng, scale


def window_end(curve, rng, kind):
    """A parameter at a vertex, inside a segment, or on the closing segment."""
    m = curve.n_vertices
    params = curve.params
    if kind == "vertex":
        return float(params[rng.integers(0, m)])
    k = m - 1 if kind == "closing" else int(rng.integers(0, m))
    return float(params[k] + rng.uniform(0.05, 0.95) * (params[k + 1] - params[k]))


ends = st.sampled_from(["vertex", "inside", "closing"])


@settings(max_examples=EXAMPLES, deadline=None)
@given(drawn=curves(), lo=ends, hi=ends, base_kind=st.sampled_from(["on", "off", "far"]))
def test_min_distance_is_the_segment_loop(drawn, lo, hi, base_kind):
    curve, rng, scale = drawn
    excluded = (window_end(curve, rng, lo), window_end(curve, rng, hi))
    if (excluded[0] - excluded[1]) % 1.0 == 0.0:
        return  # the window covers the whole curve; rejected by both
    n = curve.dimension
    base = {
        "on": curve.eval(rng.random()),
        "off": scale * rng.standard_normal(n),
        "far": scale * 1e3 * rng.standard_normal(n),
    }[base_kind]
    want = min_distance_loop(curve, base, excluded, one_row_distance)
    assert curve.min_distance_excluding(base, excluded) == want


@settings(max_examples=EXAMPLES, deadline=None)
@given(drawn=curves(), base_kind=st.sampled_from(["origin", "on", "off", "inside"]))
def test_farthest_param_is_the_first_vertex_argmax(drawn, base_kind):
    """Distances summed axis by axis, first to last, for every vertex."""
    curve, rng, scale = drawn
    base = {
        "origin": curve.origin,
        "on": curve.eval(rng.random()),
        "off": scale * 10.0 * rng.standard_normal(curve.dimension),
        "inside": curve.points.mean(axis=0),
    }[base_kind]
    dist = []
    for x in curve.points:
        sq = 0.0
        for xi, bi in zip(x.tolist(), base.tolist()):
            sq += (xi - bi) * (xi - bi)
        dist.append(math.sqrt(sq))
    assert curve.farthest_param(base) == float(curve.params[int(np.argmax(dist))])


def first_crossing_by_bisection(curve, target, lo, hi):
    """80 bisection steps on the first piece, in scan order from lo, whose
    far end reaches the target: every vertex strictly inside the window is
    tried in turn, then hi.  The distance is convex along a piece, so from
    below the target it crosses once there."""
    base = curve.origin

    def dist(t):
        return float(np.linalg.norm(curve.eval(t) - base))

    inside = [float(p) for p in curve.params if min(lo, hi) < p < max(lo, hi)]
    ends = [lo, *(inside if lo < hi else inside[::-1]), hi]
    below, above = next((a, b) for a, b in zip(ends, ends[1:]) if dist(b) >= target)
    for _ in range(80):
        mid = 0.5 * (below + above)
        if dist(mid) >= target:
            above = mid
        else:
            below = mid
    return float(np.mod(0.5 * (below + above), 1.0))


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    drawn=curves(),
    backward=st.booleans(),
    width=st.floats(0.01, 0.45),
    fraction=st.floats(0.05, 0.95),
)
def test_param_at_distance_matches_bisection(drawn, backward, width, fraction):
    """Windows as the solvers scan them: forward from the base, or backward
    from parameter 1 across the closing segment."""
    curve, _, _ = drawn
    lo, hi = (1.0, 1.0 - width) if backward else (0.0, width)
    ts = lo + (hi - lo) * np.linspace(0.0, 1.0, 4097)
    reach = float(np.linalg.norm(curve.eval_many(ts) - curve.origin, axis=1).max())
    target = fraction * reach
    got = _param_at_distance(curve, target, lo, hi)
    want = first_crossing_by_bisection(curve, target, lo, hi)
    gap = abs(got - want) % 1.0
    assert min(gap, 1.0 - gap) <= 1e-12


SPIKE_M = 65536


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("j", range(9000, 9799, 114))
def test_param_at_distance_finds_a_one_vertex_spike(j, backward):
    """On a fine circle, one vertex, j steps into the (0, 0.2) window (or j
    steps back into the (1, 0.8) window), is pushed out from the base to
    1 + 1e-9 times the target.  The distance then reaches the target on its two segments alone,
    well before the circle's own crossing near t = 0.17, and between two
    samples of a 2048-sample scan of the window: the crossing is on the
    segment that ends at that vertex."""
    th = 2.0 * math.pi * np.arange(SPIKE_M) / SPIKE_M
    pts = np.column_stack([np.cos(th), np.sin(th)])
    target = float(np.linalg.norm(pts[int(0.17 * SPIKE_M)] - pts[0]))
    k = SPIKE_M - j if backward else j
    out = pts[k] - pts[0]
    pts[k] = pts[0] + target * (1.0 + 1e-9) * out / np.linalg.norm(out)
    curve = Curve(pts)
    lo, hi = (1.0, 0.8) if backward else (0.0, 0.2)
    got = _param_at_distance(curve, target, lo, hi)
    ends = (k, k + 1) if backward else (k - 1, k)
    assert curve.params[ends[0]] <= got <= curve.params[ends[1]]
    assert abs(got - first_crossing_by_bisection(curve, target, lo, hi)) <= 1e-12


def sphere_distance(x, sphere):
    v = np.asarray(x) - sphere.center
    h = float(np.dot(v, sphere.normal))
    w = math.sqrt(max(float(np.dot(v, v)) - h * h, 0.0))
    return math.hypot(h, w - sphere.radius)


def random_spheres(curve, rng, scale, radius, near_curve, count):
    """``count`` spheres as (n, G) centers, G radii and (n, G) normals: the
    first of radius ``radius`` (times ``scale``), the others up to twice or
    half that; centers on the curve or scattered around the origin."""
    n = curve.dimension
    if near_curve:
        center = curve.eval_many(rng.random(count)).T
    else:
        center = scale * rng.standard_normal((n, count))
    normal = rng.standard_normal((n, count))
    normal /= np.linalg.norm(normal, axis=0)
    radii = scale * radius * np.r_[1.0, 2.0 ** rng.uniform(-1.0, 1.0, count - 1)]
    return np.ascontiguousarray(center), radii, normal


def one_row(columns, g):
    return columns[:, g:g + 1]


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    drawn=curves(),
    radius=st.floats(0.05, 3.0),
    near_curve=st.booleans(),
    count=st.integers(1, 6),
)
def test_nearest_param_is_no_farther_than_the_nearest_vertex(drawn, radius, near_curve, count):
    """The touch pass of several spheres at once, and of each alone."""
    curve, rng, scale = drawn
    center, radii, normal = random_spheres(curve, rng, scale, radius, near_curve, count)
    batched = _nearest_params(curve, center, radii, normal)
    for g in range(count):
        sphere = Sphere(center[:, g], radii[g], normal[:, g], curve.dimension)
        (alone,) = _nearest_params(curve, one_row(center, g), radii[g:g + 1], one_row(normal, g))
        best_vertex = min(sphere_distance(x, sphere) for x in curve.points)
        for t in (batched[g], alone):
            assert 0.0 <= t < 1.0
            assert sphere_distance(curve.eval(t), sphere) <= best_vertex + sphere_slack(curve, sphere)


def sphere_slack(curve, sphere):
    return 1e-12 * (np.linalg.norm(sphere.center) + sphere.radius + curve.extent)


def unit_normal_to(rng, u):
    """A random unit vector orthogonal to the unit vector ``u``."""
    x = rng.standard_normal(u.size)
    x -= (x @ u) * u
    return x / np.linalg.norm(x)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    drawn=curves(),
    fraction=st.floats(0.05, 0.95),
    size=st.floats(0.01, 0.5),
    tilt=st.floats(0.0, 1.0),
)
def test_touch_param_gives_back_a_point_of_any_segment(drawn, fraction, size, tilt):
    """A small sphere through the point at ``fraction`` of a random segment
    j, with its normal within 45 degrees of the segment: where the sphere's
    nearest vertex is j or j + 1, the touch parameter is that point's."""
    curve, rng, _ = drawn
    m, params = curve.n_vertices, curve.params
    j = int(rng.integers(0, m))
    t_cross = params[j] + fraction * (params[j + 1] - params[j])
    along = curve.points[(j + 1) % m] - curve.points[j]
    unit = along / np.linalg.norm(along)
    normal = unit + tilt * unit_normal_to(rng, unit)
    normal /= np.linalg.norm(normal)
    radius = size * np.linalg.norm(along)
    center = curve.eval(t_cross) + radius * unit_normal_to(rng, normal)
    columns = (center[:, None], np.array([radius]), normal[:, None])
    (k,) = _nearest_vertices(curve, *columns)
    assume(k in (j, (j + 1) % m))
    (t,) = _nearest_params(curve, *columns)
    assert modular_distance(t, t_cross) <= 1e-12


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
@pytest.mark.parametrize("fraction,vertex", [(0.3, "last"), (0.7, "first")])
def test_touch_param_on_the_closing_segment(scale, fraction, vertex):
    """A small sphere crossing the closing segment (vertex m - 1 to vertex
    0) at ``fraction`` of its length: the nearest vertex is m - 1 or 0, and
    the search runs through the closing segment and the wrap of the
    parameter to the crossing."""
    m = 2 * BLOCK_SIZE + 7
    th = 2.0 * np.pi * np.arange(m) / m
    curve = Curve(scale * np.column_stack((np.cos(th), 0.5 * np.sin(th), 0.2 * np.sin(2 * th))))
    params = curve.params
    t_cross = params[m - 1] + fraction * (1.0 - params[m - 1])
    cross = curve.eval(t_cross)
    along = curve.points[0] - curve.points[m - 1]
    normal = along / np.linalg.norm(along)
    side = np.cross(normal, [0.0, 0.0, 1.0])
    radius = 0.1 * np.linalg.norm(along)
    sphere = Sphere(cross + radius * side / np.linalg.norm(side), radius, normal, 3)
    columns = (sphere.center[:, None], np.array([radius]), normal[:, None])
    (k,) = _nearest_vertices(curve, *columns)
    (t,) = _nearest_params(curve, *columns)
    assert k == {"last": m - 1, "first": 0}[vertex]
    assert params[m - 1] <= t < 1.0
    assert modular_distance(t, t_cross) <= 1e-12


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    drawn=curves(),
    radius=st.floats(0.05, 3.0),
    near_curve=st.booleans(),
    count=st.integers(2, 6),
)
def test_batched_touch_pass_is_the_one_row_form(drawn, radius, near_curve, count):
    """Several spheres in one pass give each sphere's bits alone: the sphere
    distances, the nearest vertex (the first least distance over every
    vertex, with no pruning) and the touch parameter."""
    curve, rng, scale = drawn
    center, radii, normal = random_spheres(curve, rng, scale, radius, near_curve, count)
    ts = rng.random(count)
    points = curve.eval_many(ts).T
    distances = _sphere_distances(points, center, radii, normal)
    nearest = _nearest_vertices(curve, center, radii, normal)
    params = _nearest_params(curve, center, radii, normal)
    for g in range(count):
        c, r, nrm = one_row(center, g), radii[g], one_row(normal, g)
        assert _sphere_distances(one_row(points, g), c, r, nrm)[0] == distances[g]
        every_vertex = _sphere_distances(curve.columns, c, r, nrm)
        assert nearest[g] == int(np.argmin(every_vertex))
        assert _nearest_params(curve, c, radii[g:g + 1], nrm)[0] == params[g]


def mirrored_ellipse(m):
    """The ellipse (cos th, 2 sin th) at m vertices, m a multiple of
    ``BLOCK_SIZE``, built so that rows k and m - k differ only in the sign of
    y: distances from a point or a sphere symmetric about the x axis tie bit
    for bit, and the boxes of blocks b and m / B - 1 - b mirror each other."""
    th = 2.0 * math.pi * np.arange(m // 2 + 1) / m
    top = np.column_stack((np.cos(th), 2.0 * np.sin(th)))
    return Curve(np.vstack((top, top[1:m // 2][::-1] * (1.0, -1.0))))


def test_farthest_param_takes_the_lower_index_of_a_tie():
    """From (1, 0) the farthest points of the mirrored ellipse are a mirrored
    pair, in two blocks whose boxes tie: the lower index wins."""
    m = 8 * BLOCK_SIZE
    curve = mirrored_ellipse(m)
    base = np.array([1.0, 0.0])
    dist = np.sqrt(((curve.columns - base[:, None]) ** 2).sum(axis=0))
    k = int(np.argmax(dist))
    assert k < m // 2 and dist[m - k] == dist[k]
    assert (m - k) // BLOCK_SIZE != k // BLOCK_SIZE
    assert curve.farthest_param(base) == float(curve.params[k])


def test_nearest_vertex_takes_the_lower_index_of_a_tie():
    """Spheres symmetric about the x axis (centre on it, normal along it)
    are equidistant, bit for bit, from each mirrored pair of vertices; each
    sphere's nearest pair lies mid-block, in blocks measured in different
    passes of the search, and the lower index wins, for the spheres taken
    together and each alone."""
    m = 8 * BLOCK_SIZE
    curve = mirrored_ellipse(m)
    ks = np.array([BLOCK_SIZE + 30, 2 * BLOCK_SIZE + 31, 3 * BLOCK_SIZE + 33])
    near = curve.points[ks]
    center = np.vstack((near[:, 0], np.zeros(ks.size)))
    radii = near[:, 1] - 0.05
    normal = np.vstack((np.ones(ks.size), np.zeros(ks.size)))
    nearest = _nearest_vertices(curve, center, radii, normal)
    for g in range(ks.size):
        c, nrm = one_row(center, g), one_row(normal, g)
        dist = _sphere_distances(curve.columns, c, radii[g], nrm)
        k = int(np.argmin(dist))
        assert k < m // 2 and dist[m - k] == dist[k]
        assert (m - k) // BLOCK_SIZE != k // BLOCK_SIZE
        assert nearest[g] == k
        assert _nearest_vertices(curve, c, radii[g:g + 1], nrm)[0] == k


@pytest.mark.parametrize("base", [[math.nan, 0.0], [0.0, math.inf], [0.0, 0.0, 0.0], [1.0]])
@pytest.mark.parametrize("query", ["farthest_param", "min_distance_excluding"])
def test_queries_refuse_a_base_that_is_not_a_finite_point_of_the_curve(base, query):
    """Both whole-curve queries check their base point the same way: a NaN
    coordinate would give a NaN distance, and a point of another dimension
    a broadcast error."""
    curve = mirrored_ellipse(4 * BLOCK_SIZE)
    call = {
        "farthest_param": lambda: curve.farthest_param(base),
        "min_distance_excluding": lambda: curve.min_distance_excluding(base, (0.9, 0.1)),
    }[query]
    with pytest.raises(InvalidArgumentError, match="base point"):
        call()
