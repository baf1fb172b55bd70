import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscribe import (
    Curve,
    InvalidArgumentError,
    RefineFailedError,
    SingularPathError,
    check_strong_monotone,
    equilateral_shape,
    make_curve,
    ratio_path,
    refine_similar,
    solve_equilateral,
    solve_similar,
    sweep_similar,
)
from triscribe import solvers
from triscribe.curve import row_norms

from conftest import (
    KERNEL_CASES,
    REVISIT_MESSAGE,
    fail_ladder_rungs,
    pair_distance_unordered,
)
from reference import (
    FULL_BISECT_WIDTH,
    NumericalDegeneracyError,
    PlanarPath,
    brute_force_similar,
    ratio_loop,
    winding_by_crossing_count,
    winding_closed,
)

ORIGIN = np.zeros(2)


class TestStrongMonotone:
    def test_corner_wedge_true(self):
        wedge = make_curve("corner_wedge", samples=1024)
        assert check_strong_monotone(wedge, 0.05)

    def test_u_turn_false(self):
        fold = make_curve("u_turn", samples=1024)
        assert not check_strong_monotone(fold, 0.05)

    def test_u_turn_false_across_ladder(self):
        fold = make_curve("u_turn", samples=2048)
        for eps in (0.2, 0.1, 0.05, 0.02, 0.01):
            assert not check_strong_monotone(fold, eps)

    def test_circle_true(self, circle4096):
        assert check_strong_monotone(circle4096, 0.05)


class TestRatioPath:
    def test_endpoints_machine_exact(self, circle4096):
        for s in (0.2, 1.0 / 3.0, 0.5, 0.77):
            path = ratio_path(circle4096, s, 256)
            assert path[0, 0] == -1.0 and path[0, 1] == 0.0
            assert path[-1, 0] == 0.0 and path[-1, 1] == -1.0

    def test_circle_regular_triangle_crossing(self, circle4096):
        path = ratio_path(circle4096, 2.0 / 3.0, 1025)  # odd count samples t = 1/2 exactly
        mid = path[512]
        assert np.linalg.norm(mid) < 1e-6

    def test_farthest_anchor_stays_left(self, circle4096):
        s1 = circle4096.farthest_param(circle4096.origin)
        path = ratio_path(circle4096, s1, 1024)
        assert np.max(path[:, 0]) <= 1e-12


@pytest.mark.parametrize("n", range(2, 8))
def test_ratio_path_norms_are_row_norms(n):
    """Up to seven axes, the axis-by-axis sums of ``ratio_path`` give the
    bits of ``row_norms``: on random rows of widely spread sizes, and on the
    ratio path of an n-dimensional curve."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((4096, n)) * np.exp(rng.uniform(-30.0, 30.0, (4096, 1)))
    assert np.array_equal(np.sqrt(solvers._axis_dot(rows.T, rows.T)), row_norms(rows))
    if n == 2:
        curve = make_curve("ellipse", a=2, b=1, samples=4096)
    else:
        curve = make_curve("tilted_circle_nd", n=n, samples=4096)
    s = 0.6180339887
    pts = curve.eval_many(s * np.linspace(0.0, 1.0, 1024))
    base, anchor = curve.origin, curve.eval(s)
    span = row_norms((anchor - base)[None, :])[0]
    want = np.column_stack([row_norms(pts - base) / span - 1.0, row_norms(pts - anchor) / span - 1.0])
    assert np.array_equal(ratio_path(curve, s, 1024), want)


class TestReferenceLoop:
    @pytest.mark.parametrize("gen,kwargs", [("circle", {}), ("ellipse", {"a": 2, "b": 1})])
    def test_loop_winds_once(self, gen, kwargs):
        curve = make_curve(gen, samples=4096, **kwargs)
        outcome = solve_equilateral(curve)
        assert outcome.strongly_monotone
        assert outcome.loop_winding == 1

    def test_loop_winding_direct(self, circle4096):
        from triscribe.solvers import _param_at_distance

        base = circle4096.origin
        eps = 0.05
        assert check_strong_monotone(circle4096, eps)
        s_far = circle4096.farthest_param(base)
        clear = circle4096.min_distance_excluding(base, (1.0 - eps, eps))
        s_near = _param_at_distance(circle4096, clear / 3.0, 1.0, 1.0 - eps)
        assert 1.0 - eps < s_near < 1.0
        loop = ratio_loop(ratio_path(circle4096, s_far, 1024), ratio_path(circle4096, s_near, 1024))
        assert winding_closed(loop, ORIGIN) == 1


class TestSolveEquilateral:
    def test_circle_regular_triangle(self, circle4096):
        outcome = solve_equilateral(circle4096)
        tri = outcome.triangle
        found = sorted([tri.t_p, tri.t_q])
        assert abs(found[0] - 1.0 / 3.0) < 1e-6
        assert abs(found[1] - 2.0 / 3.0) < 1e-6
        assert tri.max_residual < 1e-9
        assert outcome.loop_winding == 1

    def test_ellipse_matches_brute_force(self, ellipse4096):
        outcome = solve_equilateral(ellipse4096)
        tri = outcome.triangle
        assert tri.max_residual < 1e-9
        optimum = brute_force_similar(ellipse4096, equilateral_shape(), 512)
        assert (
            pair_distance_unordered((tri.t_p, tri.t_q), (optimum.t_best, optimum.s_best))
            <= optimum.grid_step
        )

    def test_base_relocation(self, circle4096):
        t_vertex = float(circle4096.params[2048])
        outcome = solve_equilateral(circle4096, base_param=t_vertex)
        tri = outcome.triangle
        assert np.allclose(tri.point_o, circle4096.points[2048])
        assert tri.max_residual < 1e-9


def _answer(curve, base=0.0):
    """The triangle's parameters, or None when the refinement fails."""
    try:
        tri = solve_equilateral(curve, base_param=base).triangle
    except RefineFailedError:
        return None
    return (tri.t_p, tri.t_q)


class TestScaleFreeAcceptance:
    def test_residual_tol_keyword(self):
        fold = make_curve("u_turn", samples=1024)
        assert 0.4 < solve_equilateral(fold, residual_tol=1.0).triangle.max_residual < 1.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("solve", [
        lambda curve, tol: solve_similar(curve, equilateral_shape(), residual_tol=tol),
        lambda curve, tol: solve_equilateral(curve, residual_tol=tol),
        lambda curve, tol: refine_similar(curve, equilateral_shape(), 0.3, 0.6, tol),
        lambda curve, tol: sweep_similar(curve, equilateral_shape(), residual_tol=tol),
    ], ids=["solve_similar", "solve_equilateral", "refine_similar", "sweep_similar"])
    def test_residual_tol_must_be_positive_and_finite(self, solve, tol):
        """Refused before the curve is touched (a stand-in with no curve
        attributes shows it), and on the folded curve whose best triangle
        has residual 0.44, which a NaN or infinite tolerance would accept."""
        with pytest.raises(InvalidArgumentError, match="residual_tol"):
            solve(None, tol)
        with pytest.raises(InvalidArgumentError, match="residual_tol"):
            solve(make_curve("u_turn", samples=1024, leg=1e9), tol)

    @pytest.mark.parametrize("name, accepted", [("circle", True), ("ellipse", True),
                                                ("u_turn", False)])
    def test_same_decision_at_every_scale(self, name, accepted):
        unit = make_curve(name, samples=1024)
        answers = [_answer(Curve(unit.points * scale)) for scale in (1e-6, 1.0, 1e6, 1e9)]
        assert [a is not None for a in answers] == [accepted] * 4
        if accepted:
            assert np.abs(np.array(answers) - np.array(answers[1])).max() < 1e-9

    @pytest.mark.parametrize("scale", [1e-12, 1e-13])
    def test_tiny_circle_same_as_unit(self, scale):
        """The revisit guard scales with the curve: a tiny circle keeps the
        unit circle's monotone window and triangle, with no warnings."""
        unit = make_curve("circle", samples=1024)
        expected = solve_equilateral(unit)
        outcome = solve_equilateral(Curve(unit.points * scale))
        assert outcome.strongly_monotone and expected.strongly_monotone
        assert outcome.epsilon == expected.epsilon
        assert outcome.warnings == expected.warnings == []
        assert abs(outcome.triangle.t_p - expected.triangle.t_p) < 1e-9
        assert abs(outcome.triangle.t_q - expected.triangle.t_q) < 1e-9


@pytest.mark.parametrize("name,kwargs,base", sorted({(n, tuple(k.items()), b)
                                                     for n, k, b, _ in KERNEL_CASES}) + [
    # Newton's anchor lies outside the 1e-6 anchor bracket on the first two,
    # and on the folded u_turn Newton fails from either bracket.
    ("trefoil", (), 0.625),
    ("fourier", (("seed", 0),), 0.25),
    ("u_turn", (), 0.0),
])
def test_handoff_finds_the_triangle_of_the_full_bisection(monkeypatch, name, kwargs, base):
    """Newton from a ``HANDOFF_WIDTH`` anchor bracket finds the triangle,
    within 1e-12, that bisecting to ``FULL_BISECT_WIDTH`` finds, or fails
    where it fails.  A failure's stalled residual depends on the seed, so
    the messages are not compared."""
    curve = make_curve(name, **{"samples": 4096, **dict(kwargs)})
    got = _answer(curve, base)
    monkeypatch.setattr(solvers, "HANDOFF_WIDTH", FULL_BISECT_WIDTH)
    want = _answer(curve, base)
    if want is None:
        assert got is None
    else:
        assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12


def test_each_seed_is_refined_once(monkeypatch):
    """Newton runs once, from the anchor bracket's seed, also where its
    anchor lies outside that bracket (the trefoil at base 0.625)."""
    calls = []
    refine = solvers.refine_similar

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(solvers, "refine_similar", counted)
    solve_equilateral(make_curve("trefoil", samples=4096), base_param=0.625)
    assert len(calls) == 1


def loop_outcome(fn):
    """The winding, or the error type and the index of a singular vertex."""
    try:
        return fn()
    except SingularPathError as exc:
        return ("singular", exc.index)
    except NumericalDegeneracyError:
        return ("not-an-integer", None)


@pytest.mark.parametrize("gen,kwargs,base", [
    ("circle", {}, 0.0),
    ("ellipse", {"a": 2, "b": 1}, 0.375),
    ("fourier", {"seed": 1}, 0.0),
    ("fourier", {"seed": 3}, 0.625),
    ("trefoil", {}, 0.0),
    ("tilted_circle_nd", {"n": 3}, 0.5),
    ("polygon", {"sides": 5}, 0.125),
    ("corner_wedge", {}, 0.0),
    ("u_turn", {}, 0.0),
])
def test_loop_winding_is_winding_closed_of_the_loop(monkeypatch, gen, kwargs, base):
    """The far half taken once per solve gives every loop the winding (or
    the error) ``winding_closed`` gives the whole loop: at every anchor the
    solver's bisection tries, and at anchors spread from the far anchor to
    the near one."""
    calls = []
    loop_winding = solvers._loop_winding

    def recorded(curve, far, s):
        calls.append((curve, far, s))
        return loop_winding(curve, far, s)

    monkeypatch.setattr(solvers, "_loop_winding", recorded)
    try:
        solve_equilateral(make_curve(gen, samples=4096, **kwargs), base_param=base)
    except RefineFailedError:
        pass  # the folded u_turn: the bisection ran, the refinement failed
    work, far, s_near = calls[0]
    s_far = work.farthest_param(work.origin)
    spread = np.linspace(s_far, s_near, 41)[1:-1].tolist()
    for s in [s for _, _, s in calls] + spread:
        loop = ratio_loop(far.points, ratio_path(work, s, solvers.RATIO_SAMPLES))
        want = loop_outcome(lambda: winding_closed(loop, ORIGIN))
        assert loop_outcome(lambda: loop_winding(work, far, s)) == want, s
    # The reference loop and at least 19 bisection steps to HANDOFF_WIDTH.
    assert len(calls) >= 20


def test_loop_winding_singular_vertex_matches_winding_closed(monkeypatch):
    """Anchored at vertex B of a curve through the equilateral apex A over
    (0, 0) and B = (1, 0), with A the midpoint in parameter, the near path
    sample at t = 1/2 is A itself, which maps to the origin: both forms
    raise SingularPathError at the same loop vertex."""
    curve = Curve([(0.0, 0.0), (0.5, np.sqrt(3.0) / 2.0), (1.0, 0.0), (1.0, -1.0), (0.0, -1.0)])
    samples = 1025
    monkeypatch.setattr(solvers, "RATIO_SAMPLES", samples)
    s = float(curve.params[2])
    path_far = ratio_path(curve, 0.7, samples)
    loop = ratio_loop(path_far, ratio_path(curve, s, samples))
    want = loop_outcome(lambda: winding_closed(loop, ORIGIN))
    assert want == ("singular", samples + samples // 2)
    far = solvers._FarHalf.of(path_far)
    assert loop_outcome(lambda: solvers._loop_winding(curve, far, s)) == want


def loop_winding_of(points, split):
    """``_loop_winding`` of the closed planar path ``points``, split into a far
    half (the first ``split`` vertices) and a near path (the rest, reversed,
    as ``ratio_path`` gives it)."""
    far = solvers._FarHalf.of(points[:split])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "ratio_path", lambda curve, s, samples: points[split:][::-1])
        return solvers._loop_winding(None, far, 0.5)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    winding=st.integers(-2, 2),
    count=st.integers(8, 40),
    on_axis=st.booleans(),
    split=st.floats(0.0, 1.0),
)
def test_loop_crossing_count_is_the_reference_winding(seed, winding, count, on_axis, split):
    """A random closed path that keeps clear of the origin: turns of less
    than 2 radians (so every segment passes at least ~0.25 from the origin)
    at radii in [0.5, 2], summing to ``winding`` full turns; with
    ``on_axis`` its first vertex lies on the ray.  The crossing count is the
    angle-sum and the ray-casting reference winding, wherever the path is
    split into its far and near halves."""
    rng = np.random.default_rng(seed)
    while True:
        steps = rng.uniform(-1.9, 1.9, count)
        steps += (2.0 * math.pi * winding - steps.sum()) / count
        if np.all(np.abs(steps) < 2.0):
            break
    theta = np.concatenate(([0.0], np.cumsum(steps[:-1])))
    if not on_axis:
        theta += rng.uniform(0.0, 2.0 * math.pi)
    points = rng.uniform(0.5, 2.0, count)[:, None] * np.column_stack((np.cos(theta), np.sin(theta)))
    path = PlanarPath(points, closed=True)
    assert winding_closed(path, ORIGIN) == winding_by_crossing_count(path, ORIGIN) == winding
    assert loop_winding_of(points, 1 + int(split * (count - 2))) == winding


@pytest.mark.parametrize("seed", range(8))
def test_loop_winding_refuses_a_segment_through_the_origin(seed):
    """A segment between two vertices far from the origin passes through it,
    in any direction: its crossing lies on the origin up to rounding, so no
    count certifies the winding, and the loop is refused as singular
    wherever that segment falls (far half, junction, near path, closing)."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(2)
    u /= np.linalg.norm(u)
    ring = 3.0 * np.column_stack((np.cos([1.0, 2.5, 4.0]), np.sin([1.0, 2.5, 4.0])))
    points = np.vstack((-rng.uniform(0.5, 2.0) * u, rng.uniform(0.5, 2.0) * u, ring))
    for shift in range(len(points)):
        rolled = np.roll(points, shift, axis=0)
        for split in range(1, len(points)):
            with pytest.raises(SingularPathError, match="within rounding"):
                loop_winding_of(rolled, split)


def one_anchor_bisection(work, far, w_hi, lo, hi, width):
    """The anchor bisection written plainly, one loop winding a step: the
    bracket at most ``width`` wide, or the wider one whose midpoint's loop
    is singular.  An anchor whose loop winds as the near anchor's
    (``w_hi``) becomes the high end."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        try:
            w_mid = solvers._loop_winding(work, far, mid)
        except SingularPathError:
            break
        lo, hi = (lo, mid) if w_mid == w_hi else (mid, hi)
    return lo, hi


@pytest.mark.parametrize("width", [solvers.HANDOFF_WIDTH, FULL_BISECT_WIDTH])
@pytest.mark.parametrize("gen,kwargs,base", [
    ("circle", {}, 0.0),
    ("ellipse", {"a": 2, "b": 1}, 0.375),
    ("fourier", {"seed": 1}, 0.0),
    ("fourier", {"seed": 3}, 0.625),
    ("trefoil", {}, 0.0),
    ("tilted_circle_nd", {"n": 3}, 0.5),
    ("polygon", {"sides": 5}, 0.125),
    ("corner_wedge", {}, 0.0),
    ("u_turn", {}, 0.0),
])
def test_anchor_walk_is_the_one_anchor_bisection(monkeypatch, gen, kwargs, base, width):
    """``_bisect`` on the loop-winding kernel gives the bracket of one loop
    winding a step, from the solve's far and near anchors and its reference
    loop winding."""
    calls = []
    loop_winding = solvers._loop_winding

    def recorded(curve, far, s):
        calls.append((curve, far, s))
        return loop_winding(curve, far, s)

    monkeypatch.setattr(solvers, "_loop_winding", recorded)
    try:
        solve_equilateral(make_curve(gen, samples=4096, **kwargs), base_param=base)
    except RefineFailedError:
        pass
    monkeypatch.undo()
    work, far, s_near = calls[0]
    s_far = work.farthest_param(work.origin)
    try:
        w_hi = loop_winding(work, far, s_near)
    except SingularPathError:
        w_hi = 1
    want = one_anchor_bisection(work, far, w_hi, s_far, s_near, width)
    kernel = partial(solvers._anchor_windings, work, far, w_hi)
    assert solvers._bisect(kernel, s_far, s_near, True, width) == want


def test_anchor_kernel_flags_a_singular_loop(monkeypatch):
    """On the curve of ``test_loop_winding_singular_vertex_matches_winding_closed``
    the loop at vertex B's anchor is singular: the kernel flags it, live and
    with no winding change, and gives its neighbours their windings (0,
    which differs from 1)."""
    curve = Curve([(0.0, 0.0), (0.5, np.sqrt(3.0) / 2.0), (1.0, 0.0), (1.0, -1.0), (0.0, -1.0)])
    monkeypatch.setattr(solvers, "RATIO_SAMPLES", 1025)
    far = solvers._FarHalf.of(ratio_path(curve, 0.7, 1025))
    s = float(curve.params[2])
    differs, singular, live = solvers._anchor_windings(curve, far, 1, np.array([s, 0.5 * s, 0.6]))
    assert differs.tolist() == [False, True, True]
    assert singular.tolist() == [True, False, False]
    assert live.tolist() == [True, True, True]


def step_kernel(flagged, singular):
    """A kernel for ``_bisect``: 1 below 0.3 and 0 above, with a singular
    flag (``singular``) or no life at the anchors of ``flagged``."""
    def kernel(ts):
        hit = np.isin(ts, flagged)
        return (ts < 0.3).astype(int), hit & singular, ~hit | singular
    return kernel


WALK_MIDPOINTS = 20  # halvings of [0, 1] down to a width of at most 1e-6


@pytest.mark.parametrize("singular", [True, False], ids=["singular", "not-live"])
@pytest.mark.parametrize("visit", range(WALK_MIDPOINTS))
def test_walk_stops_at_a_singular_or_dead_midpoint(visit, singular):
    """A singular or dead anchor at the ``visit``-th midpoint of the walk,
    any of its midpoints, stops it there: with the bracket around that
    midpoint, wider than the width, or with None."""
    lo, hi, path = 0.0, 1.0, []
    while hi - lo > 1e-6:
        path.append((lo, hi))
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid < 0.3 else (lo, mid)
    assert len(path) == WALK_MIDPOINTS
    lo, hi = path[visit]
    kernel = step_kernel([0.5 * (lo + hi)], singular)
    want = (lo, hi) if singular else None
    assert solvers._bisect(kernel, 0.0, 1.0, 1, 1e-6) == want


MONOTONE_FAILED = "monotone scan at eps={} failed: " + REVISIT_MESSAGE
NO_MONOTONE = "no strongly monotone window found on the ladder; continuing anyway"


@pytest.mark.parametrize("rungs,epsilon,monotone,warnings", [
    ((0.2,), 0.1, True, [MONOTONE_FAILED.format(0.2)]),
    (solvers.EPSILON_LADDER, solvers.FALLBACK_EPSILON, False,
     [MONOTONE_FAILED.format(e) for e in (0.2, 0.1, 0.05, 0.02, 0.01)] + [NO_MONOTONE]),
], ids=["first-rung", "every-rung"])
def test_ladder_skips_a_rung_whose_scan_raises(monkeypatch, circle4096, rungs, epsilon, monotone,
                                               warnings):
    """A rung whose monotone scan raises is skipped with a warning, in rung
    order; the window is the first strongly monotone rung, or
    ``FALLBACK_EPSILON`` after the no-window warning, and the triangle is
    still found."""
    fail_ladder_rungs(monkeypatch, "check_strong_monotone", rungs)
    outcome = solve_equilateral(circle4096)
    assert outcome.epsilon == epsilon
    assert outcome.strongly_monotone is monotone
    assert outcome.warnings == warnings
    assert pair_distance_unordered((outcome.triangle.t_p, outcome.triangle.t_q),
                                   (2.0 / 3.0, 1.0 / 3.0)) < 1e-6
