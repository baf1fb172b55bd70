import math

import numpy as np

from triscribe import equilateral_shape, shape_from_degrees

from conftest import pair_distance_unordered
from reference import (
    PlanarPath,
    brute_force_similar,
    segment_distances,
    winding_by_crossing_count,
    winding_closed,
)


class TestBruteForce:
    def test_circle_equilateral(self, circle4096):
        opt = brute_force_similar(circle4096, equilateral_shape(), 512)
        assert pair_distance_unordered((opt.t_best, opt.s_best), (2 / 3, 1 / 3)) <= 1 / 512
        assert opt.residual_inf < 0.02

    def test_circle_right_isoceles(self, circle4096):
        opt = brute_force_similar(circle4096, shape_from_degrees(90, 45, 45), 512)
        assert pair_distance_unordered((opt.t_best, opt.s_best), (0.25, 0.75)) <= 1 / 512
        assert opt.residual_inf < 0.02

    def test_minimality_against_random_lattice_points(self, ellipse4096):
        shape = shape_from_degrees(70, 60, 50)
        g = 128
        opt = brute_force_similar(ellipse4096, shape, g)
        from triscribe import residuals

        rng = np.random.default_rng(9)
        base = ellipse4096.origin
        for _ in range(1000):
            i, j = rng.integers(0, g, size=2)
            if i == j:
                continue
            t, s = (i + 0.5) / g, (j + 0.5) / g
            r = residuals(shape, base, ellipse4096.eval(t), ellipse4096.eval(s))
            assert max(abs(r[0]), abs(r[1])) >= opt.residual_inf - 1e-12


class TestCrossingCount:
    def test_square_interior(self):
        path = PlanarPath(np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]), closed=True)
        assert winding_by_crossing_count(path, np.array([0.5, 0.5])) == 1

    def test_base_outside(self):
        path = PlanarPath(np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]), closed=True)
        assert winding_by_crossing_count(path, np.array([5.0, 5.0])) == 0

    def test_doubled_circle(self):
        th = np.linspace(0.0, 4.0 * math.pi, 129)[:-1]
        path = PlanarPath(np.column_stack([np.cos(th), np.sin(th)]), closed=True)
        assert winding_by_crossing_count(path, np.zeros(2)) == 2

    def test_vertex_on_ray_is_perturbed(self):
        # A vertex sits exactly on the rightward ray from the base.
        path = PlanarPath(np.array([(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)]), closed=True)
        assert winding_by_crossing_count(path, np.zeros(2)) == 1

    def test_agreement_with_angle_sum(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 2000:
            k = int(rng.integers(3, 13))
            pts = rng.standard_normal((k, 2))
            base = rng.standard_normal(2)
            path = PlanarPath(pts, closed=True)
            if segment_distances(path, base).min() < 1e-6:
                continue
            assert winding_closed(path, base) == winding_by_crossing_count(path, base)
            checked += 1
