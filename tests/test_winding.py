import math

import numpy as np
import pytest

from triscribe import SingularPathError, ratio_path

from reference import (
    PlanarPath,
    angle_sweep,
    concat_paths,
    passes_through,
    reverse_path,
    winding_closed,
)

ORIGIN = np.zeros(2)


def half_circle(segments=64):
    th = np.linspace(0.0, math.pi, segments + 1)
    return PlanarPath(np.column_stack([np.cos(th), np.sin(th)]))


def square_path(reverse=False):
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    if reverse:
        pts = pts[::-1]
    return PlanarPath(pts, closed=True)


class TestAngleSweep:
    def test_open_half_circle(self):
        assert angle_sweep(half_circle(), ORIGIN) == pytest.approx(0.5, abs=1e-9)

    def test_far_base_below_half(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            path = PlanarPath(rng.standard_normal((10, 2)))
            base = np.array([50.0, 40.0])
            assert abs(angle_sweep(path, base)) < 0.5

    def test_collinear_segment(self):
        path = PlanarPath(np.array([(1.0, 1.0), (2.0, 2.0)]))
        assert angle_sweep(path, ORIGIN) == 0.0

    def test_vertex_at_base_raises(self):
        path = PlanarPath(np.array([(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)]))
        with pytest.raises(SingularPathError) as err:
            angle_sweep(path, ORIGIN)
        assert err.value.index == 1


class TestWindingClosed:
    def test_square_ccw(self):
        assert winding_closed(square_path(), np.array([0.5, 0.5])) == 1

    def test_square_reversed(self):
        assert winding_closed(square_path(reverse=True), np.array([0.5, 0.5])) == -1

    def test_base_outside(self):
        assert winding_closed(square_path(), np.array([5.0, 5.0])) == 0

    def test_circle_traversed_twice(self):
        th = np.linspace(0.0, 4.0 * math.pi, 257)[:-1]
        path = PlanarPath(np.column_stack([np.cos(th), np.sin(th)]), closed=True)
        assert winding_closed(path, ORIGIN) == 2


class TestPassesThrough:
    def test_exact_hit(self):
        path = PlanarPath(np.array([(-1.0, -1.0), (1.0, 1.0), (2.0, 0.0)]))
        assert passes_through(path, ORIGIN, 1e-9) == 0

    def test_circle_far_from_center(self):
        th = np.linspace(0.0, 2.0 * math.pi, 65)
        path = PlanarPath(np.column_stack([np.cos(th), np.sin(th)]), closed=True)
        assert passes_through(path, ORIGIN, 0.5) is None

    def test_ratio_path_origin_crossing(self, circle4096):
        path = PlanarPath(ratio_path(circle4096, 2.0 / 3.0, 1024))
        hit = passes_through(path, ORIGIN, 1e-6)
        assert hit is not None
        assert abs(hit / (1024 - 1) - 0.5) < 1e-2  # crossing sits near t = 1/2


class TestProperties:
    def test_additivity_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = PlanarPath(rng.standard_normal((8, 2)))
            g_pts = np.vstack([f.points[-1], rng.standard_normal((7, 2))])
            g = PlanarPath(g_pts)
            base = np.array([10.0, -3.0])
            total = angle_sweep(concat_paths(f, g), base)
            assert total == pytest.approx(angle_sweep(f, base) + angle_sweep(g, base), abs=1e-12)

    def test_reversal_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = PlanarPath(rng.standard_normal((12, 2)))
            base = rng.standard_normal(2) * 3.0
            assert angle_sweep(reverse_path(f), base) == -angle_sweep(f, base)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(6)
        base = np.array([0.5, 0.5])
        path = square_path()
        w = winding_closed(path, base)
        for _ in range(25):
            ang = rng.uniform(0, 2 * math.pi)
            scale = rng.uniform(0.1, 10.0)
            rot = scale * np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
            moved = PlanarPath((path.points - base) @ rot.T + base, closed=True)
            assert winding_closed(moved, base) == w

    def test_refinement_stability(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((9, 2))
        path = PlanarPath(pts, closed=True)
        base = np.array([4.0, 4.0])
        before = angle_sweep(path, base)
        refined = []
        for a, b in zip(pts, np.vstack([pts[1:], pts[:1]])):
            refined.append(a)
            refined.append(0.5 * (a + b))
        refined_path = PlanarPath(np.array(refined), closed=True)
        assert angle_sweep(refined_path, base) == pytest.approx(before, abs=1e-12)
