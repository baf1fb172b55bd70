import contextlib
import math
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscribe import (
    Curve,
    DegenerateConfigurationError,
    InvalidArgumentError,
    NoBracketError,
    RefineFailedError,
    SingularPathError,
    chord_angle_bounds,
    equilateral_shape,
    make_curve,
    near_base_param,
    refine_similar,
    shape_from_degrees,
    solve_equilateral,
    solve_similar,
    sweep_similar,
)
from triscribe import solvers
from triscribe.cli import cylindrical_project
from triscribe.curve import BLOCK_SIZE, GENERATORS, point_segment_distances
from triscribe.solvers import FALLBACK_EPSILON, SINGULAR_TOL

from conftest import (
    KERNEL_CASES,
    REVISIT_MESSAGE,
    fail_ladder_rungs,
    modular_distance,
    pair_distance_unordered,
)
from reference import (
    FULL_BISECT_WIDTH,
    bisect_then_newton,
    NumericalDegeneracyError,
    PlanarPath,
    Sphere,
    apply_frame,
    canonical_frame,
    dense_candidate_pairs,
    passes_through,
    sphere_winding,
    third_vertex_sphere,
    winding_by_crossing_count,
    winding_closed,
)

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
        report = chord_angle_bounds(ellipse4096, 0.01, math.radians(60))
        sup_oracle, inf_oracle = dense_angle_oracle(ellipse4096, 0.01, 512)
        assert report.sup_outgoing < 0.2 and sup_oracle < 0.2
        assert report.inf_straddling > 2.9 and inf_oracle > 2.9
        assert abs(report.sup_outgoing - sup_oracle) < 0.02
        assert abs(report.inf_straddling - inf_oracle) < 0.02

    def test_corner_wedge_right_angle(self):
        wedge = make_curve("corner_wedge", samples=1024)
        report = chord_angle_bounds(wedge, 0.02, math.radians(60))
        assert report.sup_outgoing < 1e-3  # chords lie along one straight leg
        assert abs(report.inf_straddling - math.pi / 2) < 1e-3

    def test_sup_nonnegative(self, circle4096):
        report = chord_angle_bounds(circle4096, 0.1, math.radians(60))
        assert report.sup_outgoing >= 0.0

    @pytest.mark.parametrize("vertex_angle", [64, 0.0, math.pi, -1.0, math.nan, math.inf])
    def test_vertex_angle_outside_open_interval(self, circle4096, vertex_angle):
        """The third argument is the vertex angle; a value outside (0, pi),
        such as the sample count the function once took there, is refused."""
        with pytest.raises(InvalidArgumentError, match="vertex angle must lie in"):
            chord_angle_bounds(circle4096, 0.1, vertex_angle)

    def test_report_is_always_judged(self):
        with pytest.raises(TypeError):
            solvers.AngleConditionReport(0.1, 0.0, math.pi)


class TestCheckHypothesis:
    def test_ellipse_passes_for_sixty_degrees(self, ellipse4096):
        report = chord_angle_bounds(ellipse4096, 0.01, math.radians(60))
        assert report.satisfied is True and report.vertex_angle == math.radians(60)

    def test_corner_wedge_sixty_true(self):
        report = chord_angle_bounds(make_curve("corner_wedge", samples=1024), 0.02,
                                    math.radians(60))
        assert report.satisfied is True

    def test_corner_wedge_170_false(self):
        report = chord_angle_bounds(make_curve("corner_wedge", samples=1024), 0.02,
                                    math.radians(170))
        assert report.satisfied is False


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


def grid_changes(grid):
    """The changes of a sweep grid: neighbouring nodes, neither singular, of
    different windings."""
    return [(a, b) for a, b in zip(grid[:-1], grid[1:])
            if not (a.singular or b.singular or a.winding == b.winding)]


def sequential_bisection(curve, shape, a, b, width):
    """The bisection of the grid change from node ``a`` to node ``b``, one
    midpoint at a time through the one-node reference kernel: its bracket at
    ``width`` or at a singular midpoint, or None at a midpoint without a
    sphere."""
    lo, hi = a.t, b.t
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        try:
            sample = sphere_winding(curve, mid, shape)
        except DegenerateConfigurationError:
            return None  # no sphere there: no bracket, no seed
        if sample.singular:
            break
        lo, hi = (mid, hi) if sample.winding == a.winding else (lo, mid)
    return lo, hi


def assert_bisection_is_sequential(curve, shape, grid, width):
    """``_bisect`` gives every grid change the bracket of the sequential
    bisection; returns those brackets."""
    kernel = partial(solvers._node_windings, curve, shape=shape)
    changes = grid_changes(grid)
    want = [sequential_bisection(curve, shape, a, b, width) for a, b in changes]
    assert [solvers._bisect(kernel, a.t, b.t, a.winding, width) for a, b in changes] == want
    return want


@pytest.mark.parametrize("width", [FULL_BISECT_WIDTH, 1e-6])
@pytest.mark.parametrize("name,kwargs,base,angles", KERNEL_CASES)
def test_bisection_is_the_sequential_bisection(name, kwargs, base, angles, width):
    """``_bisect`` gives each change of the sweep grid the bracket of the
    reference kernel's bisection.  At ``FULL_BISECT_WIDTH`` every bisection
    here stops at a singular midpoint; at the default 1e-6 every one stops
    on the width."""
    curve = make_curve(name, **{"samples": 1024, **kwargs}).with_base_param(base)
    shape = shape_from_degrees(*angles)
    try:
        grid = sweep_similar(curve, shape).grid
    except NoBracketError:
        return
    brackets = assert_bisection_is_sequential(curve, shape, grid, width)
    assert all((hi - lo <= width) == (width == 1e-6) for lo, hi in brackets)


def similar_outcome(curve, shape, base):
    """The triangles' parameters and the warnings, or None without a bracket."""
    try:
        outcome = solve_similar(curve, shape, base_param=base)
    except NoBracketError:
        return None
    return [(tri.t_p, tri.t_q) for tri in outcome.triangles], outcome.warnings


@pytest.mark.parametrize("name,kwargs,base,angles", KERNEL_CASES + [
    ("trefoil", {}, 0.5, (60, 60, 60)),  # four triangles' t_p lie outside their 1e-6 brackets
])
def test_handoff_finds_the_triangles_of_the_full_bisection(monkeypatch, name, kwargs, base, angles):
    """Newton from a ``HANDOFF_WIDTH`` bracket finds the triangles, within
    1e-12, and the warnings that bisecting every bracket to
    ``FULL_BISECT_WIDTH`` finds, also where the triangle lies outside the
    1e-6 bracket."""
    curve = make_curve(name, **{"samples": 4096, **kwargs})
    shape = shape_from_degrees(*angles)
    got = similar_outcome(curve, shape, base)
    monkeypatch.setattr(solvers, "HANDOFF_WIDTH", FULL_BISECT_WIDTH)
    want = similar_outcome(curve, shape, base)
    if want is None:
        assert got is None
        return
    assert got[1] == want[1]
    assert len(got[0]) == len(want[0])
    for (t_p, t_q), (want_p, want_q) in zip(got[0], want[0]):
        assert abs(t_p - want_p) <= 1e-12 and abs(t_q - want_q) <= 1e-12


def test_each_seed_is_refined_once(monkeypatch):
    """Newton runs once from each of the sweep's seeds, and besides only
    from the midpoint of each grid change whose triangle was refused and
    which was bisected instead: two of the trefoil's changes at 60-60-60,
    base 0.5."""
    calls = []
    refine = solvers.refine_similar

    def counted(curve, shape, t0, s0, residual_tol=1e-9):
        calls.append((t0, s0))
        return refine(curve, shape, t0, s0, residual_tol)

    monkeypatch.setattr(solvers, "refine_similar", counted)
    curve = make_curve("trefoil", samples=4096)
    sweep = solve_similar(curve, EQ, base_param=0.5).sweep
    mids = [0.5 * (a.t + b.t) for a, b in grid_changes(sweep.grid)]
    touch = solvers._touch_params(curve.with_base_param(0.5), mids, EQ)
    refused = [seed for seed in zip(mids, touch) if seed not in sweep.seeds]
    assert len(refused) == 2
    assert Counter(calls) == Counter(sweep.seeds) + Counter(refused)
    assert len(sweep.refined) == len(sweep.seeds)


# Cases of the cli-small catalogue (4096 vertices) and the number of grid
# changes where Newton's triangle from the midpoint is refused, so that the
# change is bisected.
FALLBACK_CASES = [
    ("trefoil", {}, 0.25, (60, 60, 60), 1),  # the touch parameter at t_p is 0.28 from t_q
    ("trefoil", {}, 0.5, (60, 60, 60), 2),  # both bracket ends have one winding
    ("trefoil", {}, 0.875, (60, 60, 60), 2),  # a singular bracket end; t_p outside the change
    ("trefoil", {}, 0.5, (90, 45, 45), 1),  # t_p outside the change
    ("trefoil", {}, 0.5, (110, 35, 35), 2),  # t_p outside the change, twice
    ("u_turn", {}, 0.25, (30, 60, 90), 1),  # the touch parameter at t_p is 0.099 from t_q
    ("u_turn", {}, 0.875, (30, 60, 90), 1),
    # Accepted: t_p lies 2.4e-8 below the change's far end, the farthest
    # parameter, and the bracket around it reaches past that end.
    ("corner_wedge", {}, 0.0, (60, 60, 60), 0),
]
ORACLE_CASES = [case + (None,) for case in KERNEL_CASES] + [
    ("trefoil", {}, 0.5, (60, 60, 60), None),  # four triangles' t_p lie outside their 1e-6 brackets
] + FALLBACK_CASES


@pytest.mark.parametrize("name,kwargs,base,angles,_", ORACLE_CASES)
def test_newton_from_the_grid_finds_the_triangles_of_bisection(name, kwargs, base, angles, _):
    """Newton from the grid finds the triangles, within 1e-12, and the
    warnings of bisecting every grid change first (``tests/reference.py``),
    or no bracket where that finds none."""
    curve = make_curve(name, **{"samples": 4096, **kwargs})
    shape = shape_from_degrees(*angles)
    try:
        want, want_warnings, _, _ = bisect_then_newton(curve, shape, base)
    except NoBracketError:
        with pytest.raises(NoBracketError):
            solve_similar(curve, shape, base_param=base)
        return
    outcome = solve_similar(curve, shape, base_param=base)
    assert outcome.warnings == want_warnings
    assert len(outcome.triangles) == len(want)
    for got, tri in zip(outcome.triangles, want):
        assert abs(got.t_p - tri.t_p) <= 1e-12 and abs(got.t_q - tri.t_q) <= 1e-12


@pytest.mark.parametrize("name,kwargs,base,angles,bisected", FALLBACK_CASES)
def test_refused_grid_changes_are_bisected(monkeypatch, name, kwargs, base, angles, bisected):
    """Where Newton's triangle from a change's midpoint leaves its change,
    has no bracket of different windings around t_p or a touch parameter
    far from t_q, the change is bisected, and only there."""
    calls = []
    bisect = solvers._bisect

    def counted(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(solvers, "_bisect", counted)
    solve_similar(make_curve(name, samples=4096, **kwargs), shape_from_degrees(*angles),
                  base_param=base)
    assert len(calls) == bisected


@pytest.mark.parametrize("name,kwargs,base,angles,bisected", FALLBACK_CASES)
def test_each_bisection_call_takes_one_node(monkeypatch, name, kwargs, base, angles, bisected):
    """Besides the grid call and the one call that checks Newton's brackets,
    every kernel call is a bisection's and takes one node.  A bisection
    makes one call per halving of its change down to ``HANDOFF_WIDTH``, or
    fewer where a singular or dead midpoint stops it."""
    sizes, bisections = [], []
    node_windings, bisect = solvers._node_windings, solvers._bisect

    def counted_nodes(curve, ts, shape):
        sizes.append(ts.size)
        return node_windings(curve, ts, shape)

    def counted_bisect(kernel, lo, hi, w_lo, width):
        first = len(sizes)
        found = bisect(kernel, lo, hi, w_lo, width)
        bisections.append((hi - lo, sizes[first:], found))
        return found

    monkeypatch.setattr(solvers, "_node_windings", counted_nodes)
    monkeypatch.setattr(solvers, "_bisect", counted_bisect)
    solve_similar(make_curve(name, samples=4096, **kwargs), shape_from_degrees(*angles),
                  base_param=base)
    inside = [size for _, made, _ in bisections for size in made]
    grid_call, *check = sizes[:len(sizes) - len(inside)]
    assert grid_call == 256 and len(check) <= 1 and all(size % 2 == 0 for size in check)
    assert inside == [1] * len(inside)
    assert len(bisections) == bisected
    for width, made, found in bisections:
        halvings = 0
        while width > solvers.HANDOFF_WIDTH:
            width, halvings = 0.5 * width, halvings + 1
        if found is not None and found[1] - found[0] <= solvers.HANDOFF_WIDTH:
            assert len(made) == halvings
        else:
            assert len(made) <= halvings


@pytest.mark.parametrize("name,kwargs,base,angles,_", ORACLE_CASES)
def test_accepted_triangles_lie_in_their_brackets(name, kwargs, base, angles, _):
    """Every accepted change's bracket is at most ``HANDOFF_WIDTH`` wide,
    holds Newton's t_p and has live, non-singular ends of different
    windings; its seed and triangle are the sweep's, and the sweep reports
    the first change's bracket."""
    curve = make_curve(name, **{"samples": 4096, **kwargs})
    shape = shape_from_degrees(*angles)
    try:
        sweep = solve_similar(curve, shape, base_param=base).sweep
    except NoBracketError:
        return
    work = curve.with_base_param(base)
    accepted = solvers._newton_from_grid(work, shape, grid_changes(sweep.grid), 1e-9)
    for done in filter(None, accepted):
        (lo, hi), seed, tri = done
        assert lo <= tri.t_p <= hi
        assert hi - lo <= solvers.HANDOFF_WIDTH
        winding, singular, live = solvers._node_windings(work, np.array([lo, hi]), shape)
        assert live.all() and not singular.any() and winding[0] != winding[1]
        refined = sweep.refined[sweep.seeds.index(seed)]
        assert (refined.t_p, refined.t_q) == (tri.t_p, tri.t_q)
    if accepted and accepted[0]:
        assert sweep.bracket == accepted[0][0]


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

    def counted(columns, center, radius, normal):
        calls.append(center)
        return exact_vertex_tolerance(columns, center, radius, normal)

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


def full_pass_candidates(curve, center, radius, normal, tol):
    """The candidate segments of a full-array pass: ends within
    2 max(tol, vtol) of z = 0, or straddling it, in the exact projection."""
    _, h = solvers._cylinder_coords(curve.columns, center, normal)
    z = h / radius
    thr = 2.0 * max(tol, solvers._vertex_tolerance(curve.columns, center, radius, normal))
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
        sphere = center[k], radius[k], normal[k]
        assert bound[k] >= solvers._vertex_tolerance(curve.columns, *sphere)
        for j in full_pass_candidates(curve, *sphere, SINGULAR_TOL):
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
@pytest.mark.parametrize("samples", [1000, 4097, 20001])
@pytest.mark.parametrize("name,kwargs", BLOCK_INDEX_CURVES)
def test_block_index_keeps_full_pass_candidates(monkeypatch, name, kwargs, samples, scale, shift, budget):
    """The block test drops no segment the full pass would examine, with a
    short last block (m not a multiple of the block size) and with spheres
    through the closing segment, in one batch and, with a small budget, in
    chunks of one to four nodes and slices of one block."""
    monkeypatch.setattr(solvers, "PAIR_BUDGET", budget)
    monkeypatch.setattr(solvers, "SCAN_MULTIPLE", 1)
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


@pytest.mark.parametrize("budget", [solvers.PAIR_BUDGET, 70])
@pytest.mark.parametrize("scale,shift", [(1e-9, 0.0), (1.0, 0.0), (1e9, 0.0), (1.0, 1e7)])
@pytest.mark.parametrize("samples,levels", [(8193, 2), (20001, 2), (65537, 3)])
@pytest.mark.parametrize("name,kwargs", BLOCK_INDEX_CURVES)
def test_block_tree_yields_the_dense_candidates(monkeypatch, name, kwargs, samples, levels, scale,
                                                shift, budget):
    """Walking the block tree top down yields exactly the (node, segment)
    pairs of the dense block test, in its order, on trees of two and three
    levels with short last boxes, with random spheres from tiny to larger
    than the curve, some through a vertex, and spheres through the closing
    segment; with a small budget each lower level is tested in slices of 8
    parent pairs and the top in chunks of one node or a few."""
    monkeypatch.setattr(solvers, "PAIR_BUDGET", budget)
    monkeypatch.setattr(solvers, "SCAN_MULTIPLE", 1)
    curve = Curve(make_curve(name, samples=samples, **kwargs).points * scale + shift)
    assert len(curve.block_tree) == levels
    rng = np.random.default_rng(samples + curve.dimension)
    center, radius, normal = random_spheres(curve, rng, 24)
    last, first = curve.points[-1], curve.points[0]
    for k, w in enumerate((0.0, 0.5, 1.0)):
        center[k] = last + w * (first - last)
    thr = 2.0 * np.maximum(SINGULAR_TOL, solvers._vertex_tolerance_bound(curve, center, radius))
    batches = list(solvers._candidate_pairs(curve, center, radius, normal, thr))
    node, seg = dense_candidate_pairs(curve, center, radius, normal, thr)
    assert np.concatenate([node for node, _ in batches]).tolist() == node.tolist()
    assert np.concatenate([seg for _, seg in batches]).tolist() == seg.tolist()


@pytest.mark.parametrize("rebase", [0.0, 0.3])
@pytest.mark.parametrize("samples", [4096, 4097, 4159])  # m mod 64 = 0, 1, 63
@pytest.mark.parametrize("name,kwargs", BLOCK_INDEX_CURVES)
def test_block_rows_yield_the_dense_candidates(name, kwargs, samples, rebase):
    """The vertex test reads each surviving block's vertices as a row of
    ``Curve.block_vertices`` and yields the pairs of the dense scan, which
    gathers them by index: with m a multiple of the block size, one above
    it and one below, and on the curve rebased inside a segment (one vertex
    more), with random spheres and spheres through the closing segment."""
    curve = make_curve(name, samples=samples, **kwargs).with_base_param(rebase)
    assert curve.n_vertices == samples + (rebase > 0.0)
    rng = np.random.default_rng(samples + curve.dimension)
    center, radius, normal = random_spheres(curve, rng, 24)
    last, first = curve.points[-1], curve.points[0]
    for k, w in enumerate((0.0, 0.5, 1.0)):
        center[k] = last + w * (first - last)
    thr = 2.0 * np.maximum(SINGULAR_TOL, solvers._vertex_tolerance_bound(curve, center, radius))
    batches = list(solvers._candidate_pairs(curve, center, radius, normal, thr))
    node, seg = dense_candidate_pairs(curve, center, radius, normal, thr)
    assert np.concatenate([node for node, _ in batches]).tolist() == node.tolist()
    assert np.concatenate([seg for _, seg in batches]).tolist() == seg.tolist()
    assert (0, curve.n_vertices - 1) in set(zip(node.tolist(), seg.tolist()))


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
        monkeypatch.setattr(solvers, "SCAN_MULTIPLE", 1)
    shape = shape_from_degrees(*angles)
    t_far = curve.farthest_param(curve.origin)
    ts = np.linspace(near_base_param(curve, shape, FALLBACK_EPSILON), t_far, grid_size)
    batched = solvers._sphere_windings(curve, ts, shape)
    assert [s.t for s in batched] == ts.tolist()
    assert batched == [sphere_winding(curve, t, shape) for t in ts]
    if name == "corner_wedge":
        assert all(s.singular for s in batched[1:-1])


def grid_spheres(curve, shape, grid_size):
    """The spheres of a sweep grid of ``grid_size`` nodes, as the kernel's
    (center, radius, normal) rows."""
    t_far = curve.farthest_param(curve.origin)
    ts = np.linspace(near_base_param(curve, shape, FALLBACK_EPSILON), t_far, grid_size)
    spheres = [third_vertex_sphere(curve.origin, p, shape) for p in curve.eval_many(ts)]
    return (np.array([s.center for s in spheres]), np.array([s.radius for s in spheres]),
            np.array([s.normal for s in spheres]))


@pytest.mark.parametrize("name,kwargs,angles", GRID_CASES)
def test_sphere_rows_are_the_reference_spheres(name, kwargs, angles):
    """Every node of a 257-node sweep grid gets the reference
    ``third_vertex_sphere``'s center, radius and normal, to the bit, in one
    batch and one node at a time."""
    curve = make_curve(name, **{"samples": 1024, **kwargs})
    shape = shape_from_degrees(*angles)
    t_far = curve.farthest_param(curve.origin)
    ts = np.linspace(near_base_param(curve, shape, FALLBACK_EPSILON), t_far, 257)
    want = [rows.tobytes() for rows in grid_spheres(curve, shape, 257)]
    *batch, live = solvers._spheres(curve, ts, shape)
    assert live.all() and [rows.tobytes() for rows in batch] == want
    alone = [solvers._spheres(curve, ts[g:g + 1], shape)[:3] for g in range(ts.size)]
    assert [np.concatenate(rows).tobytes() for rows in zip(*alone)] == want


@pytest.mark.parametrize("multiple", [None, 1])
@pytest.mark.parametrize("budget", [None, 1, 7, 70])
@pytest.mark.parametrize("name,kwargs,angles", GRID_CASES)
def test_windings_do_not_depend_on_batching(monkeypatch, name, kwargs, angles, budget, multiple):
    """Windings and singular flags are the same whatever the batch and scan
    sizes: with batches of one pair, with batches cut inside a slice (7 and
    70 pairs against slices of up to ``SCAN_MULTIPLE * PAIR_BUDGET``
    entries) and carried across slices, on grids that include the
    corner_wedge continuum."""
    curve = make_curve(name, **{"samples": 1024, **kwargs})
    spheres = grid_spheres(curve, shape_from_degrees(*angles), 17 if budget == 1 else 65)
    expected = solvers._projected_windings(curve, *spheres, SINGULAR_TOL)
    if budget is not None:
        monkeypatch.setattr(solvers, "PAIR_BUDGET", budget)
    if multiple is not None:
        monkeypatch.setattr(solvers, "SCAN_MULTIPLE", multiple)
    winding, singular = solvers._projected_windings(curve, *spheres, SINGULAR_TOL)
    assert winding.tolist() == expected[0].tolist()
    assert singular.tolist() == expected[1].tolist()


@pytest.mark.parametrize("budget", [1, 7, 70, 3000])
@pytest.mark.parametrize("name,kwargs,angles", [
    ("corner_wedge", {}, (90, 45, 45)),
    ("trefoil", {}, (50, 60, 70)),
])
def test_candidate_batches_are_full_and_in_scan_order(monkeypatch, name, kwargs, angles, budget):
    """Every batch of candidate pairs but the last holds exactly
    ``PAIR_BUDGET`` pairs, and the pairs come in the same order whatever
    the batch and slice sizes."""
    curve = make_curve(name, samples=1024, **kwargs)
    center, radius, normal = grid_spheres(curve, shape_from_degrees(*angles), 65)
    thr = 2.0 * np.maximum(SINGULAR_TOL, solvers._vertex_tolerance_bound(curve, center, radius))

    def pairs():
        batches = list(solvers._candidate_pairs(curve, center, radius, normal, thr))
        node = np.concatenate([node for node, _ in batches])
        seg = np.concatenate([seg for _, seg in batches])
        return [s.size for _, s in batches], node.tolist(), seg.tolist()

    _, *expected = pairs()
    monkeypatch.setattr(solvers, "PAIR_BUDGET", budget)
    for multiple in (1, 3):
        monkeypatch.setattr(solvers, "SCAN_MULTIPLE", multiple)
        sizes, *got = pairs()
        assert got == expected
        assert set(sizes[:-1]) <= {budget} and 0 < sizes[-1] <= budget


@st.composite
def projected_segments(draw):
    """A segment of the projected half-plane rho >= 0, as ((rho, z), (rho, z)):
    free, of zero length, or placed so that the foot of (1, 0) falls at a
    fraction ``foot`` along it, before it (< 0), inside or past it (> 1)."""
    kind = draw(st.sampled_from(["free", "point", "foot"]))
    rho, z = st.floats(0.0, 1e3), st.floats(-1e3, 1e3)
    a = np.array([draw(rho), draw(z)])
    if kind == "free":
        return a, np.array([draw(rho), draw(z)])
    if kind == "point":
        return a, a.copy()
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    length = draw(st.floats(1e-9, 0.2))
    foot = draw(st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 3.0))
    lift = draw(st.floats(-1.0, 1.0))
    ab = length * np.array([math.cos(angle), math.sin(angle)])
    a = PROJECTION_BASE - foot * ab + lift * np.array([-ab[1], ab[0]])
    return a, a + ab


@settings(max_examples=300, deadline=None)
@given(segments=st.lists(projected_segments(), min_size=1, max_size=6))
def test_base_distances_match_point_segment_distances(segments):
    """The exact pass's component distance from (1, 0) has the bits of
    ``point_segment_distances``."""
    starts = np.array([a for a, _ in segments])
    ends = np.array([b for _, b in segments])
    rho = np.stack((starts[:, 0], ends[:, 0]))
    z = np.stack((starts[:, 1], ends[:, 1]))
    got = solvers._base_distances(rho, z)
    want = point_segment_distances(PROJECTION_BASE, starts, ends)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,kwargs,samples,angles,cap", [
    ("corner_wedge", {}, 4096, (90, 45, 45), 2 * 2**20),
    ("tilted_circle_nd", {"n": 6}, 65536, (60, 60, 60), 2 * 2**20),
    ("corner_wedge", {}, 65536, (90, 45, 45), 3 * 2**20),
])
def test_grid_memory_is_bounded(monkeypatch, name, kwargs, samples, angles, cap):
    """The temporaries of the sweep's grid call stay under a fixed cap: on the
    corner_wedge continuum a quarter of the curve is a candidate at every
    node and every node but the ends is singular, so the call includes
    the touch pass of 254 spheres; the n = 6 curve has 65536 vertices in
    six coordinates.  At m = 65536 the block tree has two levels, and on
    the continuum over a quarter of the (node, box) pairs survive at each.
    The curve's cached arrays, all but the block tree, are built first.
    The grid is the sweep's only call of ``_sphere_windings``; the
    bisection's tree calls take ``_node_windings``."""
    curve = make_curve(name, samples=samples, **kwargs)
    curve.columns, curve.blocks
    kernel = solvers._sphere_windings
    peaks = []

    def measured(curve, ts, shape):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        samples = kernel(curve, ts, shape)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return samples

    monkeypatch.setattr(solvers, "_sphere_windings", measured)
    tracemalloc.start()
    try:
        result = sweep_similar(curve, shape_from_degrees(*angles))
    finally:
        tracemalloc.stop()
    assert len(result.grid) == 256 and len(peaks) == 1
    assert peaks[0] < cap


def test_touch_pass_memory_is_bounded():
    """The touch parameters of the corner_wedge 90-45-45 continuum's 256 grid
    spheres at m = 65536 take no whole-curve temporary: the nearest vertices
    come from a bounded number of (sphere, block) pairs a pass, and the
    segment search from at most ``PAIR_BUDGET`` samples a pass.  The curve's
    cached arrays are built first."""
    curve = make_curve("corner_wedge", samples=65536)
    curve.columns, curve.bounds, curve.blocks
    center, radius, normal = grid_spheres(curve, shape_from_degrees(90, 45, 45), 256)
    center, normal = np.ascontiguousarray(center.T), np.ascontiguousarray(normal.T)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        params = solvers._nearest_params(curve, center, radius, normal)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert params.shape == (256,)
    assert peak < 2 * 2**20


def test_near_base_memory_is_bounded():
    """The sweep's start parameter takes no whole-curve temporary: the
    minimum distance measures only the blocks the block index cannot rule
    out, a bounded number at a time, and the crossing is solved on the
    scan's samples.  Building the block index is included."""
    curve = make_curve("tilted_circle_nd", samples=65536, n=6)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t_near = near_base_param(curve, EQ, FALLBACK_EPSILON)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 0.0 < t_near < FALLBACK_EPSILON
    assert peak < 2 * 2**20


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
        """No sphere there, so neither the kernel nor the touch pass has one."""
        live = solvers._spheres(FIGURE_EIGHT, np.array([t, 0.5 * REVISIT]), EQ)[3]
        assert live.tolist() == [False, True]
        with pytest.raises(DegenerateConfigurationError):
            sphere_winding(FIGURE_EIGHT, t, EQ)
        with pytest.raises(DegenerateConfigurationError):
            solvers._touch_params(FIGURE_EIGHT, [t], EQ)

    def test_bisection_midpoint_on_a_revisit_of_the_base(self):
        """The invariant changes across the revisit (the swept point passes
        through the base, no sphere crosses the curve), and the change's
        midpoint, where Newton would start and the bisection's first
        midpoint, is the revisiting vertex.  That pair yields neither a
        bracket nor a seed; the change further on is still bracketed, around
        the triangle Newton finds from its midpoint."""
        result = sweep_similar(FIGURE_EIGHT, EQ, grid_size=5)
        ts = np.linspace(result.t_near, result.t_far, 5)
        below, above, last = result.grid
        assert (below.t, above.t, last.t) == (ts[1], ts[3], ts[4])
        assert below.winding != above.winding
        assert 0.5 * (below.t + above.t) == REVISIT
        lo, hi = result.bracket
        assert above.t < lo < hi < last.t
        assert [t for t, _ in result.seeds] == [0.5 * (above.t + last.t)]
        (triangle,) = result.refined
        assert lo <= triangle.t_p <= hi


def test_bisection_stops_at_a_revisit_of_the_base():
    """The first midpoint of one grid change is the vertex where the figure
    eight returns to the base: ``_bisect`` gives that change no bracket, as
    the sequential bisection does, and bisects the next change as it does."""
    grid = sweep_similar(FIGURE_EIGHT, EQ, grid_size=5).grid
    brackets = assert_bisection_is_sequential(FIGURE_EIGHT, EQ, grid, solvers.HANDOFF_WIDTH)
    assert brackets[0] is None and brackets[1] is not None


class TestSweep:
    def test_circle_equilateral_bracket(self, circle4096):
        result = sweep_similar(circle4096, EQ, grid_size=256, epsilon=0.2)
        values = [s.winding for s in result.grid if not s.singular]
        assert values[0] == -1 and values[-1] == 0
        assert result.bracket is not None
        lo, hi = result.bracket
        # Width reaches HANDOFF_WIDTH unless a singular (direct-crossing) sample fires first.
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


def test_refine_takes_a_converged_seeds_residuals_once(monkeypatch, circle4096):
    """A seed that already meets the stopping residual is the triangle, and
    its residuals are taken once."""
    tri = solve_similar(circle4096, EQ).triangles[0]
    assert tri.max_residual < 1e-13
    calls = []
    residuals = solvers.residuals

    def counted(*args):
        calls.append(args)
        return residuals(*args)

    monkeypatch.setattr(solvers, "residuals", counted)
    again = refine_similar(circle4096, EQ, tri.t_p, tri.t_q)
    assert len(calls) == 1
    assert (again.t_p, again.t_q) == (tri.t_p, tri.t_q)
    assert (again.residual_oq, again.residual_pq) == (tri.residual_oq, tri.residual_pq)


def line_searches(norms):
    """The line searches of one refinement, read from the largest residual of
    each of its evaluations in order: the seed's, then per Newton step four
    for the central-difference Jacobian and the trials of ``_STEP_FRACTIONS``
    up to the first that lowers the residual.  Returns each search as (its
    trials, whether one lowered the residual), and the residual reached."""
    current, i, searches = norms[0], 1, []
    while i < len(norms):
        i += 4
        trials = norms[i:i + len(solvers._STEP_FRACTIONS)]
        lowered = next((k for k, x in enumerate(trials) if x < current), None)
        if lowered is not None:
            trials = trials[:lowered + 1]
            current = trials[-1]
        i += len(trials)
        searches.append((trials, lowered is not None))
    return searches, current


@pytest.mark.parametrize("solve, passes", [
    (lambda: solve_equilateral(make_curve("u_turn", samples=1024, leg=1e9)), False),
    (lambda: solve_similar(make_curve("corner_wedge", samples=4096), RIGHT_ISOCELES,
                           base_param=0.5), True),
], ids=["u_turn-leg-1e9", "continuum-base-half"])
def test_refine_stops_at_its_first_failed_line_search(monkeypatch, solve, passes):
    """Newton stops at its own floor.  Every refinement either meets the
    stopping residual after a step that lowered it, or stalls: its last line
    search is its first that fails to lower the residual, and no residual is
    taken after it.  The triangle (the failure's, on the folded u_turn) is
    the point that search started from.  The base-1/2 continuum's seeds
    stall near 1.1e-13 and pass; the u_turn's stall far above the tolerance
    and fail."""
    runs, ends = [], []
    residuals, refine = solvers.residuals, solvers.refine_similar

    def recorded_residuals(*args):
        try:
            res = residuals(*args)
        except DegenerateConfigurationError:
            runs[-1].append(math.inf)  # scored 1e6, above every residual met here
            raise
        runs[-1].append(max(abs(r) for r in res))
        return res

    def recorded_refine(*args):
        runs.append([])
        try:
            tri = refine(*args)
        except RefineFailedError as exc:
            ends.append(exc.best)
            raise
        ends.append(tri)
        return tri

    monkeypatch.setattr(solvers, "residuals", recorded_residuals)
    monkeypatch.setattr(solvers, "refine_similar", recorded_refine)
    with contextlib.suppress(RefineFailedError):
        solve()
    stalled = []
    for norms, tri in zip(runs, ends, strict=True):
        searches, current = line_searches(norms)
        assert current == tri.max_residual
        assert all(lowered for _, lowered in searches[:-1])
        if searches and not searches[-1][1]:
            # Every trial failed, or none was made: the Jacobian was
            # singular or the step not finite.
            assert len(searches[-1][0]) in (0, len(solvers._STEP_FRACTIONS))
            assert current >= 1e-13
            stalled.append((len(searches[-1][0]), current))
        else:
            assert current < 1e-13
    assert any(count for count, _ in stalled)  # at least one full failed search
    assert all((n <= 1e-9) == passes for _, n in stalled)


def test_continuum_at_base_half_keeps_its_triangles():
    """The corner_wedge 90-45-45 continuum at base 1/2 holds a family of
    right isosceles triangles; the solver returns 104 of them, each meeting
    the residual tolerance."""
    outcome = solve_similar(make_curve("corner_wedge", samples=4096), RIGHT_ISOCELES,
                            base_param=0.5)
    assert len(outcome.triangles) == 104
    assert all(tri.max_residual <= 1e-9 for tri in outcome.triangles)


@pytest.mark.parametrize("scale", [2.0 ** 500, 1e150])
def test_solvers_do_not_overflow_on_a_huge_circle(scale):
    """Lengths near 1e150 square to near 1e300, so the distance roots and the
    touch parameters' closed-form fractions scale their lengths by a power
    of two first: no overflow warning (the suite turns it into an error),
    and by 2**500, which is exact, the unit circle's parameters bit for
    bit."""
    unit = make_curve("circle", samples=64)
    curve = Curve(unit.points * scale)
    pairs = []
    for c in (unit, curve):
        tri = solve_similar(c, EQ).triangles[0]
        eq = solve_equilateral(c).triangle
        pairs.append([tri.t_p, tri.t_q, eq.t_p, eq.t_q])
    if scale == 2.0 ** 500:
        assert pairs[1] == pairs[0]
    else:
        assert np.abs(np.subtract(*pairs)).max() < 1e-12


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("seed", ["t0", "s0"])
def test_refine_refuses_a_seed_that_is_not_finite(seed, value):
    """A NaN or infinite seed parameter is refused before any work (a stand-in
    with no curve attributes shows it), not carried to a NaN triangle."""
    seeds = {"t0": 0.3, "s0": 0.6, seed: value}
    with pytest.raises(InvalidArgumentError, match=f"{seed}={value!r}"):
        refine_similar(None, EQ, **seeds)
    with pytest.raises(InvalidArgumentError, match=f"{seed}={value!r}"):
        refine_similar(make_curve("ellipse", samples=256), EQ, **seeds)


@pytest.mark.parametrize("epsilon", [0.7, 0.0, 0.5, math.nan, -0.1])
def test_sweep_refuses_an_epsilon_outside_the_window_range(monkeypatch, epsilon):
    """A window half-width outside (0, 0.5) is refused before any curve query
    runs.  At 0.7 the window (0.3, 0.7) would exclude the arc opposite the
    base instead of the arc around it, and the sweep would start at the base
    itself; the other values would fail later with an interval message."""
    curve = make_curve("ellipse", samples=256)

    def no_query(*args):
        raise AssertionError("a curve query ran")

    monkeypatch.setattr(Curve, "farthest_param", no_query)
    monkeypatch.setattr(Curve, "min_distance_excluding", no_query)
    for call in (sweep_similar, near_base_param):
        with pytest.raises(InvalidArgumentError, match=r"^epsilon must lie in \(0, 0.5\)$"):
            call(curve, EQ, epsilon=epsilon)


@pytest.mark.parametrize("grid_size", [1, 2.5, math.nan, math.inf, solvers.MAX_GRID_SIZE + 1,
                                       10 ** 20, 1e300])
def test_sweep_refuses_a_grid_size_before_allocating(monkeypatch, grid_size):
    """A grid size that is not a whole number in [2, ``MAX_GRID_SIZE``] is
    refused before the grid is laid out (``np.linspace`` fails if reached)
    and, by ``solve_similar``, before its window ladder runs."""
    curve = make_curve("ellipse", samples=256)

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was laid out")

    monkeypatch.setattr(solvers.np, "linspace", no_grid)
    monkeypatch.setattr(solvers, "similar_window", no_grid)
    for call in (sweep_similar, solve_similar):
        with pytest.raises(InvalidArgumentError, match="^grid size must"):
            call(curve, EQ, grid_size=grid_size)


def test_sweep_takes_a_whole_grid_size_of_any_number_type():
    curve = make_curve("ellipse", samples=256)
    for grid_size in (64.0, np.int64(64)):
        assert len(sweep_similar(curve, EQ, grid_size=grid_size).grid) == 64


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
        from reference import brute_force_similar

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


def pairwise_dedupe(triangles, tol):
    """The plain form of ``_dedupe``: each triangle against each kept one."""

    def param_distance(a, b):
        d = abs(a - b) % 1.0
        return min(d, 1.0 - d)

    kept = []
    for tri in sorted(triangles, key=lambda tr: (tr.t_p, tr.t_q)):
        if not any(
            param_distance(tri.t_p, other.t_p) <= tol and param_distance(tri.t_q, other.t_q) <= tol
            for other in kept
        ):
            kept.append(tri)
    return kept


@pytest.mark.parametrize("seed", range(20))
def test_dedupe_is_the_pairwise_comparison(seed):
    """Clusters of near-duplicates, some across parameter 0 = 1, pairs at
    exactly the tolerance and a continuum-like run of distinct triangles:
    the same triangles, in the same order."""
    from types import SimpleNamespace

    rng = np.random.default_rng(seed)
    params = rng.random((40, 2))
    near = params[rng.integers(0, 40, 30)]
    near += rng.choice([-1.5, -0.5, 0.0, 0.5, 1.0, 1.5], near.shape) * solvers.DEDUPE_TOL
    edge = np.array([[1e-5, 0.5], [1.0 - 5e-5, 0.5], [0.25, 0.25], [0.25 + 1e-4, 0.25]])
    run = np.column_stack([np.linspace(0.3, 0.31, 64), np.linspace(0.7, 0.69, 64)])
    triangles = [SimpleNamespace(t_p=float(p), t_q=float(q))
                 for p, q in np.vstack([params, near % 1.0, edge, run])]
    rng.shuffle(triangles)
    got = solvers._dedupe(triangles, solvers.DEDUPE_TOL)
    want = pairwise_dedupe(triangles, solvers.DEDUPE_TOL)
    assert [id(t) for t in got] == [id(t) for t in want]
    assert solvers._dedupe([], solvers.DEDUPE_TOL) == []


ANGLE_FAILED = "angle scan at delta={} failed: " + REVISIT_MESSAGE
ANGLE_UNCERTIFIED = ("angle condition not certified on the ladder; continuing anyway "
                     "(the condition is sufficient, not necessary)")


@pytest.mark.parametrize("angles,rungs,epsilon,scanned,warnings", [
    ((60, 60, 60), (0.2,), 0.1, (0.1, True), [ANGLE_FAILED.format(0.2)]),
    ((60, 60, 60), solvers.EPSILON_LADDER, FALLBACK_EPSILON, None,
     [ANGLE_FAILED.format(d) for d in (0.2, 0.1, 0.05, 0.02, 0.01)] + [ANGLE_UNCERTIFIED]),
    # No rung certifies a 1 degree vertex angle on the circle: the report
    # kept is the last rung's that did not raise.
    ((1, 89.5, 89.5), (0.01,), FALLBACK_EPSILON, (0.02, False),
     [ANGLE_FAILED.format(0.01), ANGLE_UNCERTIFIED]),
], ids=["first-rung", "every-rung", "last-rung-uncertified"])
def test_ladder_skips_a_rung_whose_scan_raises(monkeypatch, circle4096, angles, rungs, epsilon,
                                               scanned, warnings):
    """A rung whose angle scan raises is skipped with a warning, in rung
    order; the window is the first rung certified, or ``FALLBACK_EPSILON``
    after the uncertified warning; the outcome's report is the last scan
    that did not raise, None when every one raised."""
    shape = shape_from_degrees(*angles)
    real = solvers.chord_angle_bounds
    fail_ladder_rungs(monkeypatch, "chord_angle_bounds", rungs)
    outcome = solve_similar(circle4096, shape)
    assert outcome.sweep.epsilon == epsilon
    assert outcome.warnings == warnings
    if scanned is None:
        assert outcome.hypothesis is None
    else:
        delta, satisfied = scanned
        want = real(circle4096, delta, shape.vertex_angle)
        assert outcome.hypothesis == want and want.satisfied is satisfied
    assert len(outcome.triangles) == 1
