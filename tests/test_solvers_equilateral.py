import numpy as np
import pytest

from triscribe import (
    Curve,
    RefineFailedError,
    check_strong_monotone,
    equilateral_shape,
    make_curve,
    ratio_path,
    solve_equilateral,
    winding_closed,
)
from triscribe.oracle import brute_force_similar
from triscribe.solvers import _ratio_loop

from conftest import pair_distance_unordered

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
            assert path.points[0, 0] == -1.0 and path.points[0, 1] == 0.0
            assert path.points[-1, 0] == 0.0 and path.points[-1, 1] == -1.0

    def test_circle_regular_triangle_crossing(self, circle4096):
        path = ratio_path(circle4096, 2.0 / 3.0, 1025)  # odd count samples t = 1/2 exactly
        mid = path.points[512]
        assert np.linalg.norm(mid) < 1e-6

    def test_farthest_anchor_stays_left(self, circle4096):
        s1 = circle4096.farthest_param(circle4096.origin)
        path = ratio_path(circle4096, s1, 1024)
        assert np.max(path.points[:, 0]) <= 1e-12


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
        loop = _ratio_loop(ratio_path(circle4096, s_far, 1024), ratio_path(circle4096, s_near, 1024))
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


def _answer(curve):
    try:
        tri = solve_equilateral(curve).triangle
    except RefineFailedError:
        return None
    return (tri.t_p, tri.t_q)


class TestScaleFreeAcceptance:
    def test_residual_tol_keyword(self):
        fold = make_curve("u_turn", samples=1024)
        assert 0.4 < solve_equilateral(fold, residual_tol=1.0).triangle.max_residual < 1.0

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
