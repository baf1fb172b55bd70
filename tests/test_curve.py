import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscribe import (
    Curve,
    InvalidArgumentError,
    curve_from_json,
    make_curve,
    shape_from_degrees,
    solve_equilateral,
    solve_similar,
)
from triscribe.curve import MAX_SAMPLES, SIZE_CAPS, TREE_FANOUT

from conftest import min_distance_loop, polyline_distance, unbuilt_generator


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


@pytest.mark.parametrize("rebase", ["none", "vertex", "segment"])
@pytest.mark.parametrize("m", [16, 63, 64, 65, 4097])
def test_block_vertices_are_the_indexed_vertices(m, rebase):
    """Entry (i, b, s) of ``block_vertices`` is coordinate i of vertex
    b B + s, a vertex past the last read as vertex 0, on a built curve and
    on curves rebased at a vertex and inside a segment; it is a read-only
    view of the vertex columns."""
    from triscribe.curve import BLOCK_SIZE

    curve = make_curve("trefoil", samples=m)
    if rebase == "vertex":
        curve = curve.with_base_param(curve.params[m // 2])
    elif rebase == "segment":
        curve = curve.with_base_param(0.5 * (curve.params[5] + curve.params[6]))
    count = curve.n_vertices
    assert count == m + (rebase == "segment")
    blocks = curve.blocks[0].shape[1]
    rows = curve.block_vertices
    assert rows.shape == (3, blocks, BLOCK_SIZE + 1)
    index = np.minimum(np.arange(blocks)[:, None] * BLOCK_SIZE + np.arange(BLOCK_SIZE + 1), count)
    assert np.array_equal(rows, curve.columns[:, index % count])
    assert np.shares_memory(rows, curve.columns)
    assert not rows.flags.writeable and not curve.columns.flags.writeable


@pytest.mark.parametrize("shift", [0.0, 1e7])
@pytest.mark.parametrize("m,sizes", [(16, [1]), (8192, [128]), (8193, [129, 17]),
                                     (20001, [313, 40])])
def test_tree_boxes_hold_their_children(m, sizes, shift):
    """Each box of a level of the block tree holds the boxes of its children,
    boxes a F ... a F + F - 1 of the level below (capped at the last), to
    within 2^-51 times the coordinate's largest magnitude on each side,
    checked in exact arithmetic; levels are added while the top has more
    than ``TREE_TOP`` boxes.  8193 and 20001 leave a short last box at both
    levels.  The tree is built on first use and then cached."""
    curve = Curve(make_curve("trefoil", samples=m).points + shift)
    assert curve._block_tree is None
    tree = curve.block_tree
    assert tree is curve.block_tree and tree[0] is curve.blocks
    assert [mid.shape[1] for mid, _ in tree] == sizes
    magnitude = np.abs(curve.points).max(axis=0)
    for (mid, half), (top_mid, top_half) in zip(tree, tree[1:]):
        for c in range(mid.shape[1]):
            a = c // TREE_FANOUT
            for i, x in enumerate(magnitude):
                slack = Fraction(2.0 ** -51 * x)
                m_c, h_c = Fraction(mid[i, c]), Fraction(half[i, c])
                m_a, h_a = Fraction(top_mid[i, a]), Fraction(top_half[i, a])
                assert m_a - h_a - slack <= m_c - h_c and m_c + h_c <= m_a + h_a + slack


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

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_length_overflow(self, scale):
        """Finite vertices whose length overflows are refused, with no
        RuntimeWarning (an error under this suite)."""
        with pytest.raises(InvalidArgumentError, match="length overflows"):
            Curve(make_curve("circle", samples=64).points * scale)

    def test_large_finite_curve_builds(self):
        """A 1e150 circle keeps a finite length, to a relative 1e-15 of the
        scaled unit circle's."""
        unit = make_curve("circle", samples=64)
        curve = Curve(unit.points * 1e150)
        assert abs(curve.total_length / (unit.total_length * 1e150) - 1.0) < 1e-15
        assert np.all(np.abs(curve.params - unit.params) < 1e-15)

    def test_large_finite_curve_solves(self):
        """Both solvers find the unit circle's triangle on the 1e150 circle.
        Their own squares of coordinate differences are taken in lengths
        scaled by a power of two (``_param_at_distance``,
        ``_nearest_params``), so nothing overflows at this scale; a
        unit-scale working frame would make those scalings redundant."""
        unit = make_curve("circle", samples=64)
        curve = Curve(unit.points * 1e150)
        shape = shape_from_degrees(60, 60, 60)
        with np.errstate(over="ignore"):
            similar = solve_similar(curve, shape).triangles
            equilateral = solve_equilateral(curve).triangle
        [want] = solve_similar(unit, shape).triangles
        assert len(similar) == 1
        assert abs(similar[0].t_p - want.t_p) < 1e-12 and abs(similar[0].t_q - want.t_q) < 1e-12
        want = solve_equilateral(unit).triangle
        assert abs(equilateral.t_p - want.t_p) < 1e-12 and abs(equilateral.t_q - want.t_q) < 1e-12


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

    def test_maximum_count(self, monkeypatch, unit_square):
        """Refused before any vertex is evaluated."""
        monkeypatch.setattr(Curve, "eval_many", lambda self, ts: pytest.fail("evaluated"))
        with pytest.raises(InvalidArgumentError, match=f"got {MAX_SAMPLES + 1}"):
            unit_square.resample(MAX_SAMPLES + 1)


class TestSampleCap:
    """``make_curve`` refuses more than ``MAX_SAMPLES`` vertices before the
    generator runs; the generator is a stand-in, so nothing is built."""

    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 1e9])
    def test_over_the_cap_is_refused(self, monkeypatch, samples):
        unbuilt_generator(monkeypatch)
        with pytest.raises(InvalidArgumentError, match=f"sample count must lie in .*{MAX_SAMPLES}"):
            make_curve("circle", samples=samples)

    def test_the_cap_reaches_the_generator(self, monkeypatch):
        calls = unbuilt_generator(monkeypatch)
        with pytest.raises(AssertionError, match="generator called"):
            make_curve("circle", samples=MAX_SAMPLES)
        assert calls == [MAX_SAMPLES]


class TestSizeCaps:
    """``make_curve`` refuses a size parameter over its ``SIZE_CAPS`` entry,
    or one (or fourier's seed) that is not a whole number, before the
    generator runs, and passes one at the cap through."""

    CASES = [("tilted_circle_nd", "n"), ("polygon", "sides"), ("fourier", "terms")]

    @pytest.mark.parametrize("generator, key", CASES)
    def test_over_the_cap_is_refused(self, monkeypatch, generator, key):
        calls = unbuilt_generator(monkeypatch, generator)
        with pytest.raises(InvalidArgumentError, match=f"{key} must be at most {SIZE_CAPS[key]}"):
            make_curve(generator, samples=16, **{key: SIZE_CAPS[key] + 1})
        assert calls == []

    @pytest.mark.parametrize("generator, key", CASES + [("fourier", "seed")])
    @pytest.mark.parametrize("value", [3.5, math.nan, -math.inf])
    def test_a_size_that_is_not_whole_is_refused(self, monkeypatch, generator, key, value):
        calls = unbuilt_generator(monkeypatch, generator)
        with pytest.raises(InvalidArgumentError, match=f"parameter {key} must be an integer"):
            make_curve(generator, samples=16, **{key: value})
        assert calls == []

    @pytest.mark.parametrize("generator, key", CASES)
    def test_the_cap_reaches_the_generator(self, monkeypatch, generator, key):
        calls = unbuilt_generator(monkeypatch, generator)
        with pytest.raises(AssertionError, match="generator called"):
            make_curve(generator, samples=16, **{key: SIZE_CAPS[key]})
        assert calls == [16]

    def test_a_whole_float_seed_is_its_integer(self):
        want = make_curve("fourier", samples=64, seed=3).points
        assert np.array_equal(make_curve("fourier", samples=64, seed=3.0).points, want)


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

    @pytest.mark.parametrize("samples", [16.9, math.nan, math.inf])
    def test_rejects_fractional_samples(self, samples):
        with pytest.raises(InvalidArgumentError, match="samples must be an integer"):
            curve_from_json(json.dumps({"generator": "circle", "samples": samples}))
        with pytest.raises(InvalidArgumentError, match="samples must be an integer"):
            make_curve("circle", samples=samples)

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

    @pytest.mark.parametrize("name,params", [
        ("circle", {"radius": 0.0}), ("circle", {"radius": -1.0}), ("circle", {"radius": math.inf}),
        ("polygon", {"radius": 0.0}), ("polygon", {"radius": -2.0}),
        ("tilted_circle_nd", {"radius": math.nan}), ("tilted_circle_nd", {"n": 4, "radius": -1.0}),
    ])
    def test_radius_must_be_positive_and_finite(self, name, params):
        """A zero radius collapses the curve and a negative one mirrors it
        through the origin: both are refused, naming the radius."""
        with pytest.raises(InvalidArgumentError, match="radius must be positive and finite"):
            make_curve(name, samples=64, **params)

    @pytest.mark.parametrize("half_angle_deg", [0.0, -5.0, 180.0, 200.0, math.nan])
    def test_u_turn_legs_must_not_overlap(self, half_angle_deg):
        """At a half angle of 0 the legs lie on one segment, below it they
        cross, and at 180 degrees they meet again: the curve is not simple."""
        with pytest.raises(InvalidArgumentError, match=r"half_angle_deg must lie in \(0, 180\)"):
            make_curve("u_turn", samples=64, half_angle_deg=half_angle_deg)

    def test_unknown_generator(self):
        with pytest.raises(InvalidArgumentError):
            make_curve("nope", samples=64)

    def test_unknown_parameter(self):
        with pytest.raises(InvalidArgumentError, match="foo"):
            make_curve("circle", samples=64, foo=1)

    def test_sample_floor(self):
        with pytest.raises(InvalidArgumentError):
            make_curve("circle", samples=8)
