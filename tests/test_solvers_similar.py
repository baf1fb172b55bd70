import math
import tracemalloc

import numpy as np
import pytest

from triscribe import (
    Curve,
    DegenerateConfigurationError,
    NoBracketError,
    NumericalDegeneracyError,
    PlanarPath,
    SingularPathError,
    apply_frame,
    canonical_frame,
    check_hypothesis,
    chord_angle_bounds,
    cylindrical_project,
    equilateral_shape,
    make_curve,
    near_base_param,
    passes_through,
    refine_similar,
    shape_from_degrees,
    solve_similar,
    sphere_winding,
    sweep_similar,
    third_vertex_sphere,
    winding_closed,
)
from triscribe import solvers
from triscribe.curve import BLOCK_SIZE, GENERATORS
from triscribe.frames import Sphere
from triscribe.oracle import winding_by_crossing_count
from triscribe.solvers import FALLBACK_EPSILON, SINGULAR_TOL

from conftest import modular_distance, pair_distance_unordered

EQ = equilateral_shape()
RIGHT_ISOCELES = shape_from_degrees(90, 45, 45)
PROJECTION_BASE = np.array([1.0, 0.0])


def dense_angle_oracle(curve, delta, samples):
    """Same grid definition as chord_angle_bounds, denser and written plainly."""
    base = curve.origin
    offs = (np.arange(samples) + 0.5) / samples * delta
    out = curve.eval_many(offs) - base
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    inc = curve.eval_many(1.0 - delta + offs) - base
    inc /= np.linalg.norm(inc, axis=1, keepdims=True)
    sup = 0.0
    inf = math.pi
    for i in range(samples):
        sup = max(sup, float(np.arccos(np.clip(out @ out[i], -1, 1).min())))
        inf = min(inf, float(np.arccos(np.clip(inc @ out[i], -1, 1).max())))
    return sup, inf


class TestChordAngleBounds:
    def test_ellipse_bounds_match_dense_oracle(self, ellipse4096):
        report = chord_angle_bounds(ellipse4096, 0.01, 64)
        sup_oracle, inf_oracle = dense_angle_oracle(ellipse4096, 0.01, 512)
        assert report.sup_outgoing < 0.2 and sup_oracle < 0.2
        assert report.inf_straddling > 2.9 and inf_oracle > 2.9
        assert abs(report.sup_outgoing - sup_oracle) < 0.02
        assert abs(report.inf_straddling - inf_oracle) < 0.02

    def test_corner_wedge_right_angle(self):
        wedge = make_curve("corner_wedge", samples=1024)
        report = chord_angle_bounds(wedge, 0.02, 64)
        assert report.sup_outgoing < 1e-3  # chords lie along one straight leg
        assert abs(report.inf_straddling - math.pi / 2) < 1e-3

    def test_sup_nonnegative(self, circle4096):
        report = chord_angle_bounds(circle4096, 0.1, 16)
        assert report.sup_outgoing >= 0.0


class TestCheckHypothesis:
    def test_ellipse_passes_for_sixty_degrees(self, ellipse4096):
        report = chord_angle_bounds(ellipse4096, 0.01, 64)
        assert check_hypothesis(report, math.radians(60))

    def test_corner_wedge_sixty_true(self):
        report = chord_angle_bounds(make_curve("corner_wedge", samples=1024), 0.02, 64)
        assert check_hypothesis(report, math.radians(60))

    def test_corner_wedge_170_false(self):
        report = chord_angle_bounds(make_curve("corner_wedge", samples=1024), 0.02, 64)
        assert not check_hypothesis(report, math.radians(170))


class TestSphereWinding:
    def test_zero_at_farthest(self, circle4096):
        t1 = circle4096.farthest_param(circle4096.origin)
        assert sphere_winding(circle4096, t1, EQ).winding == 0

    def test_nonzero_near_base(self, circle4096):
        sample = sphere_winding(circle4096, 0.02, EQ)
        assert sample.winding is not None and sample.winding != 0

    def test_exact_value_against_crossing_oracle(self, circle4096):
        """Explicitly build the projected polyline and verify the value is -1."""
        sphere = third_vertex_sphere(circle4096.origin, circle4096.eval(0.02), EQ)
        frame = canonical_frame(sphere)
        projected = cylindrical_project(apply_frame(frame, circle4096.points))
        path = PlanarPath(projected, closed=True)
        oracle = winding_by_crossing_count(path, PROJECTION_BASE)
        assert abs(oracle) == 1
        assert sphere_winding(circle4096, 0.02, EQ).winding == oracle == -1

    def test_constant_between_crossings(self, circle4096):
        """The invariant is locally constant where the sphere misses the curve."""
        for lo, hi, expected in [(0.12, 0.3, -1), (0.37, 0.48, 0)]:
            for t in np.linspace(lo, hi, 10):
                assert sphere_winding(circle4096, t, EQ).winding == expected

    def test_zero_at_farthest_for_all_generators(self):
        for name, kwargs in [
            ("circle", {}),
            ("ellipse", {"a": 2, "b": 1}),
            ("fourier", {"seed": 5, "amp": 0.1}),
            ("tilted_circle_nd", {"n": 3}),
        ]:
            curve = make_curve(name, samples=1024, **kwargs)
            for shape in (EQ, RIGHT_ISOCELES):
                t1 = curve.farthest_param(curve.origin)
                assert sphere_winding(curve, t1, shape).winding == 0


def rotated_reference_winding(curve, t, shape, tol=1e-9):
    """The composition ``sphere_winding`` replaces: rotate into the canonical
    frame, project, then ``passes_through`` / ``winding_closed``.  None means
    singular."""
    sphere = third_vertex_sphere(curve.origin, curve.eval(t), shape)
    return sphere_reference_winding(curve, sphere, tol)


def sphere_reference_winding(curve, sphere, tol=1e-9):
    projected = cylindrical_project(apply_frame(canonical_frame(sphere), curve.points))
    path = PlanarPath(projected, closed=True)
    if passes_through(path, PROJECTION_BASE, tol) is not None:
        return None
    try:
        return winding_closed(path, PROJECTION_BASE)
    except (SingularPathError, NumericalDegeneracyError):
        return None


KERNEL_CASES = [
    ("circle", {}, 0.0, (60, 60, 60)),
    ("ellipse", {"a": 2, "b": 1}, 0.25, (90, 45, 45)),
    ("tilted_circle_nd", {"n": 3}, 0.0, (50, 60, 70)),
    ("tilted_circle_nd", {"n": 6}, 0.5, (60, 60, 60)),
    ("trefoil", {}, 0.0, (50, 60, 70)),
    ("polygon", {"sides": 5}, 0.125, (40, 70, 70)),
    ("polygon", {"sides": 5, "samples": 16}, 0.0, (120, 30, 30)),  # long closing segment
    ("corner_wedge", {}, 0.0, (90, 45, 45)),  # a continuum: many singular nodes
    ("corner_wedge", {}, 0.5, (30, 75, 75)),
    ("u_turn", {}, 0.25, (60, 60, 60)),
    ("fourier", {"seed": 0}, 0.75, (30, 75, 75)),
    ("fourier", {"seed": 3}, 0.0, (120, 30, 30)),
]


def assert_kernel_matches_reference(curve, shape):
    """Winding and singular flag agree with the rotated composition on a
    256-node grid over the whole curve and on bisection nodes, where the
    sphere touches the curve."""
    grid = []
    for t in (np.arange(256) + 0.5) / 256:
        try:
            grid.append(sphere_winding(curve, t, shape))
        except DegenerateConfigurationError:
            continue
    nodes = list(grid)
    for a, b in zip(grid[:-1], grid[1:]):
        if a.singular or b.singular or a.winding == b.winding:
            continue
        lo, hi = a.t, b.t
        for _ in range(40):
            mid = sphere_winding(curve, 0.5 * (lo + hi), shape)
            nodes.append(mid)
            if mid.singular:
                break
            lo, hi = (mid.t, hi) if mid.winding == a.winding else (lo, mid.t)
    for sample in nodes:
        expected = rotated_reference_winding(curve, sample.t, shape)
        assert sample.singular == (expected is None), sample
        assert sample.winding == expected, sample


@pytest.mark.parametrize("name,kwargs,base,angles", KERNEL_CASES)
def test_kernel_matches_rotated_reference(name, kwargs, base, angles):
    curve = make_curve(name, **{"samples": 1024, **kwargs}).with_base_param(base)
    assert_kernel_matches_reference(curve, shape_from_degrees(*angles))


SCALED_KERNEL_CASES = [
    ("fourier", {"seed": 0}, 0.75, (30, 75, 75), 1e-9),
    ("fourier", {"seed": 0}, 0.75, (30, 75, 75), 1e9),
    ("tilted_circle_nd", {"n": 6}, 0.5, (60, 60, 60), 1e-9),
    ("trefoil", {}, 0.0, (50, 60, 70), 1e9),
    ("corner_wedge", {}, 0.0, (90, 45, 45), 1e-9),
    ("corner_wedge", {}, 0.0, (90, 45, 45), 1e9),
    ("corner_wedge", {"samples": 4096}, 0.0, (90, 45, 45), 1.0),
]


@pytest.mark.parametrize("name,kwargs,base,angles,scale", SCALED_KERNEL_CASES)
def test_kernel_matches_rotated_reference_scaled(name, kwargs, base, angles, scale):
    """The candidate bound and its rounding margin scale with the curve; the
    corner_wedge 90-45-45 continuum has a whole leg of candidate segments."""
    unit = make_curve(name, **{"samples": 1024, **kwargs})
    curve = Curve(unit.points * scale).with_base_param(base)
    assert_kernel_matches_reference(curve, shape_from_degrees(*angles))


def test_kernel_vertex_tolerance_scales_with_diameter():
    """A tiny sphere makes the projected path huge; a vertex 3e-9 from (1, 0)
    is then singular by the 1e-12 * diameter vertex rule, not by ``tol``."""
    r = math.sqrt(3.0) / 2.0 * 1e-3
    curve = Curve([(0, 0), (1e-3, 0), (0.5e-3, r * (1.0 + 3e-9)), (5, 0.2), (5, 5), (0, 5)])
    t = float(curve.params[1])
    sphere = third_vertex_sphere(curve.origin, curve.eval(t), EQ)
    projected = cylindrical_project(apply_frame(canonical_frame(sphere), curve.points))
    assert passes_through(PlanarPath(projected, closed=True), PROJECTION_BASE, 1e-9) is None
    assert rotated_reference_winding(curve, t, EQ) is None
    assert sphere_winding(curve, t, EQ).singular


@pytest.mark.parametrize("offset,singular", [(3e-9, True), (2.5e-8, False)])
def test_kernel_exact_vertex_tolerance_for_tiny_sphere(monkeypatch, offset, singular):
    """R / r is about 1.6e4, so the bounding-box bound on the vertex tolerance
    (3.7e-8) exceeds ``tol``: a vertex within the bound of (1, 0) but farther
    than ``tol`` from every segment needs the exact full-pass tolerance
    (1.6e-8), which decides both ways here."""
    exact_vertex_tolerance = solvers._vertex_tolerance
    calls = []

    def counted(columns, sphere):
        calls.append(sphere)
        return exact_vertex_tolerance(columns, sphere)

    monkeypatch.setattr(solvers, "_vertex_tolerance", counted)
    r = math.sqrt(3.0) / 2.0 * 1e-3
    curve = Curve([(0, 0), (1e-3, 0), (0.5e-3, r * (1.0 + offset)), (10, 0.2), (10, 10), (0, 10)])
    t = float(curve.params[1])
    sphere = third_vertex_sphere(curve.origin, curve.eval(t), EQ)
    lower, upper = curve.bounds
    assert np.linalg.norm(np.maximum(sphere.center - lower, upper - sphere.center)) > 1e4 * r
    sample = sphere_winding(curve, t, EQ)
    assert len(calls) == 1
    assert sample.singular is singular
    assert sample.winding == rotated_reference_winding(curve, t, EQ)


def full_pass_candidates(curve, sphere, tol):
    """The candidate segments of a full-array pass: ends within
    2 max(tol, vtol) of z = 0, or straddling it, in the exact projection."""
    _, h = solvers._cylinder_coords(curve.columns, sphere)
    z = h / sphere.radius
    thr = 2.0 * max(tol, solvers._vertex_tolerance(curve.columns, sphere))
    near = np.abs(z) <= thr
    below = z < 0.0
    return np.flatnonzero((below != np.roll(below, -1)) | near | np.roll(near, -1))


CANDIDATE_FAMILIES = [(name, {}) for name in sorted(GENERATORS) if name != "tilted_circle_nd"] + [
    ("tilted_circle_nd", {"n": 3}),
    ("tilted_circle_nd", {"n": 6}),
]


def random_spheres(curve, rng, count):
    """Spheres from tiny to larger than the curve, as (center, radius, normal)
    rows; half are placed so that a vertex has z = 0 or z = 1.5 tol, inside
    2 tol only."""
    lower, upper = curve.bounds
    n = curve.dimension
    normal = rng.standard_normal((count, n))
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    radius = curve.extent * 10.0 ** rng.uniform(-5.0, 1.0, count)
    center = lower + (upper - lower) * rng.uniform(-0.5, 1.5, (count, n))
    for k in range(count):
        if k % 4 < 2:
            vertex = curve.points[rng.integers(curve.n_vertices)]
            center[k] = vertex + 1.5 * (k % 4) * SINGULAR_TOL * radius[k] * normal[k]
    return center, radius, normal


def candidate_pairs(curve, center, radius, normal):
    """The kernel's candidate (node, segment) pairs, as a set, at its threshold."""
    bound = solvers._vertex_tolerance_bound(curve, center, radius)
    thr = 2.0 * np.maximum(SINGULAR_TOL, bound)
    found = set()
    for node, seg in solvers._candidate_pairs(curve, center, radius, normal, thr):
        found.update(zip(node.tolist(), seg.tolist()))
    return found


def assert_candidates_contain_full_pass(curve, center, radius, normal):
    found = candidate_pairs(curve, center, radius, normal)
    bound = solvers._vertex_tolerance_bound(curve, center, radius)
    for k in range(len(radius)):
        sphere = Sphere(center[k], radius[k], normal[k], curve.dimension)
        assert bound[k] >= solvers._vertex_tolerance(curve.columns, sphere)
        for j in full_pass_candidates(curve, sphere, SINGULAR_TOL):
            assert (k, int(j)) in found, (k, j)


@pytest.mark.parametrize("scale,shift", [(1e-9, 0.0), (1.0, 0.0), (1e9, 0.0), (1.0, 1e7)])
@pytest.mark.parametrize("name,kwargs", CANDIDATE_FAMILIES)
def test_candidate_bound_contains_full_pass_candidates(name, kwargs, scale, shift):
    """Random spheres, from tiny to larger than the curve, some placed so that
    a vertex has z = 0 or z = 1.5 tol: the kernel's candidate set holds every
    segment the full pass would examine.  Far from the origin (``shift``) the
    rounding of the dot products can exceed 2 tol r, and only the margin
    ``delta`` keeps the straddling segments."""
    curve = Curve(make_curve(name, samples=1024, **kwargs).points * scale + shift)
    rng = np.random.default_rng(len(name) + curve.dimension)
    assert_candidates_contain_full_pass(curve, *random_spheres(curve, rng, 40))


BLOCK_INDEX_CURVES = [
    ("fourier", {"seed": 2}),  # n = 2
    ("trefoil", {}),  # n = 3
    ("tilted_circle_nd", {"n": 6}),
]


@pytest.mark.parametrize("budget", [solvers.PAIR_BUDGET, 70])
@pytest.mark.parametrize("scale,shift", [(1e-9, 0.0), (1.0, 0.0), (1e9, 0.0), (1.0, 1e7)])
@pytest.mark.parametrize("samples", [1000, 4097])
@pytest.mark.parametrize("name,kwargs", BLOCK_INDEX_CURVES)
def test_block_index_keeps_full_pass_candidates(monkeypatch, name, kwargs, samples, scale, shift, budget):
    """The block test drops no segment the full pass would examine, with a
    short last block (m not a multiple of the block size) and with spheres
    through the closing segment, in one batch and, with a small budget, in
    chunks of one to four nodes and slices of one block."""
    monkeypatch.setattr(solvers, "PAIR_BUDGET", budget)
    curve = Curve(make_curve(name, samples=samples, **kwargs).points * scale + shift)
    assert curve.n_vertices % BLOCK_SIZE != 0
    rng = np.random.default_rng(samples + curve.dimension)
    center, radius, normal = random_spheres(curve, rng, 24)
    # Planes through the closing segment, at its ends and inside it.
    last, first = curve.points[-1], curve.points[0]
    for k, w in enumerate((0.0, 0.5, 1.0)):
        center[k] = last + w * (first - last)
    assert_candidates_contain_full_pass(curve, center, radius, normal)
    assert (0, curve.n_vertices - 1) in candidate_pairs(curve, center, radius, normal)


@pytest.mark.parametrize("samples", [1000, 4097])
@pytest.mark.parametrize("name,kwargs", BLOCK_INDEX_CURVES)
def test_kernel_with_short_last_block_matches_reference(name, kwargs, samples):
    """Spheres whose hyperplane passes through vertex 0, with that vertex
    projected to rho = 2: the padding of the short last block repeats vertex
    0, and the segments it stands for must not be counted again.  Windings
    and singular flags agree with the rotated reference."""
    curve = make_curve(name, samples=samples, **kwargs)
    rng = np.random.default_rng(samples)
    center, radius, normal = random_spheres(curve, rng, 16)
    for k in range(8):
        w = rng.standard_normal(curve.dimension)
        w -= (w @ normal[k]) * normal[k]
        center[k] = curve.points[0] + 2.0 * radius[k] * w / np.linalg.norm(w)
    winding, singular = solvers._projected_windings(curve, center, radius, normal, SINGULAR_TOL)
    for k in range(len(radius)):
        expected = sphere_reference_winding(curve, Sphere(center[k], radius[k], normal[k], curve.dimension))
        assert singular[k] == (expected is None), k
        if expected is not None:
            assert winding[k] == expected, k


GRID_CASES = [
    ("circle", {}, (60, 60, 60)),
    ("ellipse", {"a": 2, "b": 1}, (90, 45, 45)),
    ("tilted_circle_nd", {"n": 3}, (50, 60, 70)),
    ("tilted_circle_nd", {"n": 6}, (60, 60, 60)),
    ("trefoil", {}, (50, 60, 70)),
    ("polygon", {"sides": 5}, (40, 70, 70)),
    ("corner_wedge", {}, (90, 45, 45)),  # a continuum: every node singular
    ("corner_wedge", {"samples": 4096}, (90, 45, 45)),
    ("u_turn", {}, (60, 60, 60)),
    ("fourier", {"seed": 0}, (30, 75, 75)),
    ("fourier", {"seed": 3}, (120, 30, 30)),
]


@pytest.mark.parametrize("chunk_nodes", [None, 128, 1])
@pytest.mark.parametrize("grid_size", [2, 3, 257])
@pytest.mark.parametrize("name,kwargs,angles", GRID_CASES)
def test_batched_grid_matches_per_node(monkeypatch, name, kwargs, angles, grid_size, chunk_nodes):
    """One kernel call over the sweep grid gives what ``sphere_winding`` gives
    node by node, to the bit: with the whole grid in one chunk, in chunks of
    128 nodes (257 = 2 * 128 + 1) and one node at a time."""
    curve = make_curve(name, **{"samples": 1024, **kwargs})
    if chunk_nodes is not None:
        monkeypatch.setattr(solvers, "PAIR_BUDGET", chunk_nodes * curve.blocks[0].shape[1])
    shape = shape_from_degrees(*angles)
    t_far = curve.farthest_param(curve.origin)
    ts = np.linspace(near_base_param(curve, shape, FALLBACK_EPSILON), t_far, grid_size)
    batched = solvers._sphere_windings(curve, ts, shape)
    assert [s.t for s in batched] == ts.tolist()
    assert batched == [sphere_winding(curve, t, shape) for t in ts]
    if name == "corner_wedge":
        assert all(s.singular for s in batched[1:-1])


@pytest.mark.parametrize("name,kwargs,samples,angles", [
    ("corner_wedge", {}, 4096, (90, 45, 45)),
    ("tilted_circle_nd", {"n": 6}, 65536, (60, 60, 60)),
])
def test_grid_memory_is_bounded(monkeypatch, name, kwargs, samples, angles):
    """The temporaries of the sweep's grid call stay under a fixed cap: on the
    corner_wedge continuum a quarter of the curve is a candidate at every
    node, and the n = 6 curve has 65536 vertices in six coordinates.  The
    curve's cached arrays are built first; the one-node calls of the
    bisection are left out, because a singular node takes a full pass over
    the curve for its touch parameter."""
    curve = make_curve(name, samples=samples, **kwargs)
    curve.columns, curve.blocks
    kernel = solvers._sphere_windings
    peaks = []

    def measured(curve, ts, shape):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        samples = kernel(curve, ts, shape)
        if len(ts) > 1:
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return samples

    monkeypatch.setattr(solvers, "_sphere_windings", measured)
    tracemalloc.start()
    try:
        result = sweep_similar(curve, shape_from_degrees(*angles))
    finally:
        tracemalloc.stop()
    assert len(result.grid) == 256 and len(peaks) == 1
    assert peaks[0] < 2 * 2**20


FIGURE_EIGHT = Curve([
    (0, 0), (1, 0), (1, 1), (0, 1),  # out and back to the base
    (0, 0), (-2, 0), (-2, -2), (0, -2),  # (-2, -2) is farthest
])
REVISIT = float(FIGURE_EIGHT.params[4])


class TestDropped:
    def test_revisit_of_the_base_at_a_node(self):
        """The curve comes back to the base at a vertex half way to the
        farthest vertex.  That makes the clear radius zero, so the grid starts
        at the base itself, and its middle node lands on the revisiting
        vertex: neither has a candidate sphere, and both are listed."""
        figure_eight, revisit = FIGURE_EIGHT, REVISIT
        assert figure_eight.farthest_param(figure_eight.origin) == 2.0 * revisit
        result = sweep_similar(figure_eight, RIGHT_ISOCELES, grid_size=5)
        ts = np.linspace(result.t_near, result.t_far, 5)
        assert ts[2] == revisit
        assert result.dropped == [ts[0], ts[2]]
        assert [s.t for s in result.grid] == [ts[1], ts[3], ts[4]]

    def test_none_dropped_on_a_simple_curve(self, circle4096):
        assert sweep_similar(circle4096, EQ, grid_size=64, epsilon=0.2).dropped == []

    @pytest.mark.parametrize("t", [0.0, REVISIT], ids=["start", "revisit"])
    def test_one_node_call_at_the_base_raises(self, t):
        with pytest.raises(DegenerateConfigurationError):
            sphere_winding(FIGURE_EIGHT, t, EQ)

    def test_bisection_midpoint_on_a_revisit_of_the_base(self):
        """The invariant changes across the revisit (the swept point passes
        through the base, no sphere crosses the curve), and the bisection's
        first midpoint is the revisiting vertex.  That pair yields neither a
        bracket nor a seed; the change further on is still bracketed."""
        result = sweep_similar(FIGURE_EIGHT, EQ, grid_size=5)
        ts = np.linspace(result.t_near, result.t_far, 5)
        below, above, last = result.grid
        assert (below.t, above.t, last.t) == (ts[1], ts[3], ts[4])
        assert below.winding != above.winding
        assert 0.5 * (below.t + above.t) == REVISIT
        lo, hi = result.bracket
        assert above.t < lo < hi < last.t
        assert [t for t, _ in result.seeds] == [0.5 * (lo + hi)]


class TestSweep:
    def test_circle_equilateral_bracket(self, circle4096):
        result = sweep_similar(circle4096, EQ, grid_size=256, epsilon=0.2)
        values = [s.winding for s in result.grid if not s.singular]
        assert values[0] == -1 and values[-1] == 0
        assert result.bracket is not None
        lo, hi = result.bracket
        # Width reaches 1e-10 unless a singular (direct-crossing) sample fires first.
        assert hi - lo <= 1e-6
        assert abs(0.5 * (lo + hi) - 1.0 / 3.0) < 1e-4

    def test_circle_right_isoceles_bracket(self, circle4096):
        result = sweep_similar(circle4096, RIGHT_ISOCELES, grid_size=256, epsilon=0.2)
        assert result.bracket is not None
        assert abs(0.5 * sum(result.bracket) - 0.25) < 1e-4

    def test_grid_two_fails_cleanly(self, circle4096):
        with pytest.raises(NoBracketError) as err:
            sweep_similar(circle4096, EQ, grid_size=2, epsilon=0.2)
        assert len(err.value.grid) == 2


class TestRefine:
    def test_circle_equilateral_from_seed(self, circle4096):
        tri = refine_similar(circle4096, EQ, 0.34, 0.66)
        assert modular_distance(tri.t_p, 1.0 / 3.0) < 1e-6
        assert modular_distance(tri.t_q, 2.0 / 3.0) < 1e-6
        assert tri.max_residual < 1e-9

    def test_circle_right_isoceles_from_seed(self, circle4096):
        tri = refine_similar(circle4096, RIGHT_ISOCELES, 0.26, 0.74)
        assert modular_distance(tri.t_p, 0.25) < 1e-6
        assert modular_distance(tri.t_q, 0.75) < 1e-6
        assert tri.max_residual < 1e-9
        assert np.linalg.norm(tri.point_p - np.array([0.0, 1.0])) < 1e-5
        assert np.linalg.norm(tri.point_q - np.array([0.0, -1.0])) < 1e-5


class TestSolveSimilar:
    def test_circle_equilateral(self, circle4096):
        outcome = solve_similar(circle4096, EQ)
        assert len(outcome.triangles) == 1
        tri = outcome.triangles[0]
        found = sorted([tri.t_p, tri.t_q])
        assert abs(found[0] - 1.0 / 3.0) < 1e-6
        assert abs(found[1] - 2.0 / 3.0) < 1e-6
        assert tri.max_residual < 1e-9
        assert outcome.hypothesis is not None and outcome.hypothesis.satisfied

    def test_circle_right_isoceles(self, circle4096):
        outcome = solve_similar(circle4096, RIGHT_ISOCELES)
        tri = outcome.triangles[0]
        found = sorted([tri.t_p, tri.t_q])
        assert abs(found[0] - 0.25) < 1e-6 and abs(found[1] - 0.75) < 1e-6
        assert tri.max_residual < 1e-9

    def test_tilted_circle_r3(self):
        curve = make_curve("tilted_circle_nd", samples=4096, n=3)
        outcome = solve_similar(curve, EQ)
        tri = outcome.triangles[0]
        assert pair_distance_unordered((tri.t_p, tri.t_q), (1.0 / 3.0, 2.0 / 3.0)) < 1e-6
        assert tri.max_residual < 1e-9

    def test_triangles_reverify_on_input_curve(self, ellipse4096):
        from triscribe import residuals

        outcome = solve_similar(ellipse4096, EQ)
        for tri in outcome.triangles:
            again = residuals(EQ, ellipse4096.origin,
                              ellipse4096.eval(tri.t_p), ellipse4096.eval(tri.t_q))
            assert abs(again[0] - tri.residual_oq) < 1e-12
            assert abs(again[1] - tri.residual_pq) < 1e-12

    def test_base_relocation(self, circle4096):
        t_vertex = float(circle4096.params[1024])
        outcome = solve_similar(circle4096, EQ, base_param=t_vertex)
        tri = outcome.triangles[0]
        assert np.allclose(tri.point_o, circle4096.points[1024])
        assert tri.max_residual < 1e-9
        found = sorted([tri.t_p, tri.t_q])
        assert abs(found[0] - 1.0 / 3.0) < 1e-4 and abs(found[1] - 2.0 / 3.0) < 1e-4


class TestKeywords:
    def test_sweep_defaults_to_fallback_epsilon(self, circle4096):
        result = sweep_similar(circle4096, EQ, grid_size=64)
        assert result.epsilon == FALLBACK_EPSILON
        assert result.t_near == near_base_param(circle4096, EQ, FALLBACK_EPSILON)

    def test_solve_similar_grid_size(self, circle4096):
        with pytest.raises(NoBracketError) as err:
            solve_similar(circle4096, EQ, grid_size=2)
        assert len(err.value.grid) == 2
        assert len(solve_similar(circle4096, EQ, grid_size=64).sweep.grid) == 64

    def test_solve_similar_residual_tol(self, circle4096):
        outcome = solve_similar(circle4096, EQ, grid_size=64, residual_tol=1e-30)
        assert outcome.triangles == []
        assert any(w.startswith("refinement stalled") for w in outcome.warnings)

    @pytest.mark.parametrize("name", ["circle", "ellipse"])
    def test_same_triangles_at_every_scale(self, name):
        unit = make_curve(name, samples=1024)
        found = []
        for scale in (1e-6, 1.0, 1e6):
            outcome = solve_similar(Curve(unit.points * scale), EQ)
            found.append(np.array([(t.t_p, t.t_q) for t in outcome.triangles]))
        assert len(found[1]) > 0
        for params in found:
            assert params.shape == found[1].shape
            assert np.abs(params - found[1]).max() < 1e-9


class TestScaleFreeGuards:
    @pytest.mark.parametrize("scale", [1e-12, 1e-13])
    def test_tiny_circle_same_as_unit(self, scale):
        """The degeneracy guards scale with the curve: a tiny circle keeps the
        unit circle's certified window and triangle, with no warnings."""
        unit = make_curve("circle", samples=1024)
        expected = solve_similar(unit, EQ)
        outcome = solve_similar(Curve(unit.points * scale), EQ)
        assert outcome.hypothesis.delta == expected.hypothesis.delta == 0.2
        assert outcome.hypothesis.satisfied
        assert outcome.sweep.epsilon == expected.sweep.epsilon
        assert outcome.warnings == expected.warnings == []
        assert len(outcome.triangles) == len(expected.triangles) == 1
        assert abs(outcome.triangles[0].t_p - expected.triangles[0].t_p) < 1e-9
        assert abs(outcome.triangles[0].t_q - expected.triangles[0].t_q) < 1e-9


class TestNearBaseParam:
    def test_circle_matches_half_clear_radius(self, circle4096):
        t2 = near_base_param(circle4096, EQ, 0.2)
        base = circle4096.origin
        clear = 0.5 * circle4096.min_distance_excluding(base, (0.8, 0.2))
        assert np.linalg.norm(circle4096.eval(t2) - base) == pytest.approx(clear, abs=1e-9)
        assert 0.0 < t2 < 0.2


class TestAgainstBruteForce:
    def test_ellipse_equilateral_matches_grid_optimum(self, ellipse4096):
        from triscribe.oracle import brute_force_similar

        outcome = solve_similar(ellipse4096, EQ)
        optimum = brute_force_similar(ellipse4096, EQ, 512)
        best = min(
            pair_distance_unordered((t.t_p, t.t_q), (optimum.t_best, optimum.s_best))
            for t in outcome.triangles
        )
        assert best <= optimum.grid_step
        assert all(t.max_residual < 1e-9 for t in outcome.triangles)


class TestThreadCap:
    def test_env_var_does_not_change_results(self, circle4096, monkeypatch):
        monkeypatch.setenv("INSCRIBED_TRI_THREADS", "1")
        serial = sweep_similar(circle4096, EQ, grid_size=64, epsilon=0.2)
        monkeypatch.setenv("INSCRIBED_TRI_THREADS", "4")
        threaded = sweep_similar(circle4096, EQ, grid_size=64, epsilon=0.2)
        assert [(s.t, s.winding, s.singular) for s in serial.grid] == [
            (s.t, s.winding, s.singular) for s in threaded.grid
        ]
        monkeypatch.setenv("INSCRIBED_TRI_THREADS", "not-a-number")
        fallback = sweep_similar(circle4096, EQ, grid_size=64, epsilon=0.2)
        assert [(s.t, s.winding) for s in fallback.grid] == [
            (s.t, s.winding) for s in serial.grid
        ]
