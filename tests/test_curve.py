import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscribe import Curve, InvalidArgumentError, curve_from_json, make_curve
from triscribe.curve import point_segment_distance

from conftest import polyline_distance


class TestEval:
    def test_square_endpoints(self, unit_square):
        assert np.allclose(unit_square.eval(0.0), (0.0, 0.0))
        assert np.allclose(unit_square.eval(1.0), (0.0, 0.0))

    def test_square_half_perimeter(self, unit_square):
        assert np.allclose(unit_square.eval(0.5), (1.0, 1.0))

    def test_circle_quarter_arc(self, circle4096):
        assert np.linalg.norm(circle4096.eval(0.25) - np.array([0.0, 1.0])) < 1e-5

    def test_modular_reduction(self, unit_square):
        assert np.allclose(unit_square.eval(1.25), unit_square.eval(0.25))
        assert np.allclose(unit_square.eval(-0.25), unit_square.eval(0.75))

    def test_exact_vertex_at_zero(self, circle4096):
        assert unit_vertex_equal(circle4096.eval(0.0), circle4096.points[0])


parameters = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-300, -1e-300]),
    st.tuples(st.integers(0, 10**6), st.integers(-2, 2), st.sampled_from(["at", "below", "above"])),
)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 200), n=st.sampled_from([2, 3, 6]), t=parameters)
def test_scalar_eval_matches_eval_many_bitwise(seed, m, n, t):
    """``eval`` is the scalar form of ``eval_many``: the same bits at random
    parameters, at vertex parameters and next to them, shifted by whole
    periods (negative ones too), and at 0.0, -0.0 and 1.0."""
    curve = Curve(np.random.default_rng(seed).standard_normal((m, n)))
    if isinstance(t, tuple):
        k, period, side = t
        t = float(curve.params[k % (m + 1)]) + period
        t = {"at": t, "below": math.nextafter(t, -math.inf), "above": math.nextafter(t, math.inf)}[side]
    assert np.array_equal(curve.eval(t), curve.eval_many(np.array([t]))[0])
    assert np.array_equal(curve.eval(np.float64(t)), curve.eval_many([t])[0])


@pytest.mark.parametrize("m", [16, 64, 65, 1000, 4097])
def test_blocks_hold_their_segments(m):
    """Block b's box holds vertices b B ... (b + 1) B, and the last block's
    box holds vertex 0, so every segment, the closing one included, lies in
    the box of the block its start vertex belongs to."""
    from triscribe.curve import BLOCK_SIZE

    curve = make_curve("trefoil", samples=m)
    mid, half = curve.blocks
    assert mid.shape == half.shape == (3, -(-m // BLOCK_SIZE))
    pts = curve.points
    slack = 2.0 ** -50 * np.abs(pts).max()  # centre and half-width are rounded
    for j in range(m):
        b = j // BLOCK_SIZE
        for x in (pts[j], pts[(j + 1) % m]):
            assert np.all(np.abs(x - mid[:, b]) <= half[:, b] + slack)
    assert curve.blocks is curve.blocks


def unit_vertex_equal(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            Curve([(0, 0), (1, 0), (0, 1)])

    def test_duplicate_consecutive(self):
        with pytest.raises(InvalidArgumentError):
            Curve([(0, 0), (0, 0), (1, 0), (0, 1)])

    def test_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            Curve([(0, 0), (np.inf, 0), (1, 1), (0, 1)])

    def test_dimension_one(self):
        with pytest.raises(InvalidArgumentError):
            Curve([[0.0], [1.0], [2.0], [3.0]])


class TestResample:
    def test_square_to_eight(self, unit_square):
        dense = unit_square.resample(16)
        assert dense.n_vertices == 16
        for p in dense.points:
            assert polyline_distance(unit_square, p) < 1e-12

    def test_idempotence_at_equal_density(self, circle4096):
        again = circle4096.resample(4096)
        assert np.max(np.abs(again.points - circle4096.points)) < 1e-12

    def test_coarse_circle_stays_on_polygon(self):
        coarse = make_curve("circle", samples=64)
        dense = coarse.resample(4096)
        for p in dense.points[::17]:
            assert polyline_distance(coarse, p) < 1e-12

    def test_minimum_count(self, unit_square):
        with pytest.raises(InvalidArgumentError):
            unit_square.resample(8)


class TestFarthestParam:
    def test_circle_antipode(self, circle4096):
        t1 = circle4096.farthest_param(np.array([1.0, 0.0]))
        assert abs(t1 - 0.5) < 1e-6

    def test_ellipse_major_axis(self, ellipse4096):
        t1 = ellipse4096.farthest_param(np.array([2.0, 0.0]))
        assert abs(t1 - 0.5) < 1e-6
        assert np.linalg.norm(ellipse4096.eval(t1) - np.array([-2.0, 0.0])) < 1e-6

    def test_square_corner(self, unit_square):
        t1 = unit_square.farthest_param(np.array([0.0, 0.0]))
        assert abs(t1 - 0.5) < 1e-9
        assert np.allclose(unit_square.eval(t1), (1.0, 1.0))

    def test_dominates_random_parameters(self, ellipse4096):
        rng = np.random.default_rng(3)
        base = np.array([2.0, 0.0])
        t1 = ellipse4096.farthest_param(base)
        best = np.linalg.norm(ellipse4096.eval(t1) - base)
        ts = rng.random(10_000)
        dists = np.linalg.norm(ellipse4096.eval_many(ts) - base, axis=1)
        assert np.all(dists <= best + 1e-9 * ellipse4096.total_length)


class TestMinDistanceExcluding:
    def test_circle_window(self, circle4096):
        got = circle4096.min_distance_excluding(np.array([1.0, 0.0]), (0.75, 0.25))
        assert abs(got - np.sqrt(2.0)) < 1e-6

    def test_square_window_against_brute_force(self, unit_square):
        base = np.array([0.0, 0.0])
        got = unit_square.min_distance_excluding(base, (0.875, 0.125))
        ts = np.linspace(0.125, 0.875, 100_001)
        brute = np.linalg.norm(unit_square.eval_many(ts) - base, axis=1).min()
        seg_bound = np.diff(ts[:2])[0] * unit_square.total_length
        assert got <= brute
        assert brute - got < seg_bound
        assert abs(got - 0.5) < 1e-12  # nearest retained points are (0.5,0) and (0,0.5)

    def test_outside_base_positive(self, unit_square):
        got = unit_square.min_distance_excluding(np.array([10.0, 10.0]), (0.875, 0.125))
        assert got > 0.0

    def test_full_coverage_rejected(self, unit_square):
        with pytest.raises(InvalidArgumentError):
            unit_square.min_distance_excluding(np.array([0.0, 0.0]), (0.5, 0.5))


def min_distance_loop(curve, base, excluded):
    """Reference: one ``point_segment_distance`` call per clipped retained segment."""
    lo, hi = excluded
    retained = [(hi, lo)] if hi <= lo else [(0.0, lo), (hi, 1.0)]
    params, pts, m = curve.params, curve.points, curve.n_vertices
    best = math.inf
    for u, v in retained:
        for j in range(m):
            a, b = params[j], params[j + 1]
            ca, cb = max(a, u), min(b, v)
            if cb <= ca:
                continue
            pa = pts[j] if ca == a else curve.eval(ca)
            pb = pts[(j + 1) % m] if cb == b else curve.eval(cb)
            best = min(best, point_segment_distance(base, pa, pb))
    return best


def _window_end(curve, pick):
    """A window endpoint: a vertex parameter (exact) or an arbitrary one."""
    kind, value = pick
    if kind == "vertex":
        return float(curve.params[int(value * curve.n_vertices)])
    return value


window_ends = st.tuples(st.sampled_from(["vertex", "any"]), st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(4, 40),
    n=st.sampled_from([2, 3, 5]),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    lo=window_ends,
    hi=window_ends,
    base_on_curve=st.booleans(),
)
def test_min_distance_matches_segment_loop(seed, m, n, scale, lo, hi, base_on_curve):
    rng = np.random.default_rng(seed)
    curve = Curve(scale * rng.standard_normal((m, n)))
    excluded = (_window_end(curve, lo), _window_end(curve, hi))
    if (excluded[0] - excluded[1]) % 1.0 == 0.0:
        return  # the window covers the whole curve; rejected by both
    base = curve.eval(rng.random()) if base_on_curve else scale * rng.standard_normal(n)
    got = curve.min_distance_excluding(base, excluded)
    want = min_distance_loop(curve, base, excluded)
    # Vectorised sums round differently from np.dot / np.linalg.norm.
    assert abs(got - want) <= 1e-12 * curve.extent


class TestInvariants:
    def test_eval_stays_on_polyline(self, ellipse4096):
        rng = np.random.default_rng(11)
        for t in rng.random(200):
            assert polyline_distance(ellipse4096, ellipse4096.eval(t)) < 1e-12

    def test_lipschitz_in_parameter(self, ellipse4096):
        rng = np.random.default_rng(12)
        length = ellipse4096.total_length
        ts = rng.random(500)
        us = rng.random(500)
        for t, u in zip(ts, us):
            gap = abs(t - u) % 1.0
            gap = min(gap, 1.0 - gap)
            dist = np.linalg.norm(ellipse4096.eval(t) - ellipse4096.eval(u))
            assert dist <= length * gap + 1e-12

    def test_min_distance_brute_force_everywhere(self, circle4096):
        base = np.array([1.0, 0.0])
        window = (0.9, 0.1)
        got = circle4096.min_distance_excluding(base, window)
        ts = np.linspace(0.1, 0.9, 100_001)
        brute = np.linalg.norm(circle4096.eval_many(ts) - base, axis=1).min()
        assert got <= brute + 1e-12
        assert brute - got < circle4096.total_length / 4096


class TestBaseRelocation:
    def test_vertex_relocation(self, circle4096):
        t_vertex = circle4096.params[1024]
        moved = circle4096.with_base_param(t_vertex)
        assert np.array_equal(moved.origin, circle4096.points[1024])
        assert moved.n_vertices == circle4096.n_vertices

    def test_mid_segment_relocation_inserts_vertex(self, unit_square):
        moved = unit_square.with_base_param(0.1)
        assert np.allclose(moved.origin, unit_square.eval(0.1))
        assert moved.n_vertices == unit_square.n_vertices + 1

    def test_noop(self, unit_square):
        assert unit_square.with_base_param(0.0) is unit_square

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, unit_square, t):
        with pytest.raises(InvalidArgumentError, match="base parameter must be finite"):
            unit_square.with_base_param(t)


class TestJsonInterface:
    def test_point_list_round_trip(self, unit_square):
        text = json.dumps({"dimension": 2, "points": unit_square.points.tolist()})
        again = curve_from_json(text)
        assert np.array_equal(again.points, unit_square.points)

    def test_generator_spec(self):
        text = json.dumps(
            {"generator": "ellipse", "params": {"a": 2.0, "b": 1.0}, "samples": 256}
        )
        curve = curve_from_json(text)
        assert curve.n_vertices == 256
        assert np.allclose(curve.points[0], (2.0, 0.0))

    def test_closed_duplicate_dropped(self):
        pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        curve = curve_from_json(json.dumps({"points": pts}))
        assert curve.n_vertices == 4

    def test_rejects_mismatched_dimension(self):
        with pytest.raises(InvalidArgumentError):
            curve_from_json(json.dumps({"dimension": 3, "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}))

    def test_rejects_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            curve_from_json(json.dumps({"points": [[0, 0], [1, 0], [1, 1]]}))


class TestGenerators:
    @pytest.mark.parametrize("name", ["circle", "ellipse", "trefoil", "polygon", "corner_wedge", "u_turn", "fourier"])
    def test_generators_build(self, name):
        curve = make_curve(name, samples=128)
        assert curve.n_vertices == 128

    def test_tilted_circle_lies_in_plane(self):
        curve = make_curve("tilted_circle_nd", samples=128, n=3)
        sums = curve.points.sum(axis=1)
        assert np.max(np.abs(sums)) < 1e-12  # plane x + y + z = 0
        assert np.allclose(np.linalg.norm(curve.points, axis=1), 1.0)

    def test_unknown_generator(self):
        with pytest.raises(InvalidArgumentError):
            make_curve("nope", samples=64)

    def test_unknown_parameter(self):
        with pytest.raises(InvalidArgumentError, match="foo"):
            make_curve("circle", samples=64, foo=1)

    def test_sample_floor(self):
        with pytest.raises(InvalidArgumentError):
            make_curve("circle", samples=8)
