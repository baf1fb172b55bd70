import math

import numpy as np
import pytest

from triscribe import DegenerateConfigurationError, shape_from_angles, shape_from_degrees
from triscribe.cli import cylindrical_project

from reference import (
    ScaledIsometry,
    Sphere,
    apply_frame,
    canonical_frame,
    rotation_aligning,
    third_vertex_sphere,
)

SQRT3 = math.sqrt(3.0)


class TestThirdVertexSphere:
    def test_planar_equilateral(self):
        s = third_vertex_sphere((0, 0), (1, 0), shape_from_degrees(60, 60, 60))
        assert np.allclose(s.center, (0.5, 0.0))
        assert s.radius == pytest.approx(SQRT3 / 2, abs=1e-14)
        assert np.allclose(s.normal, (1.0, 0.0))
        pts = s.surface_points(2)
        assert np.allclose(sorted(pts[:, 1]), [-SQRT3 / 2, SQRT3 / 2])

    def test_r3_equilateral_circle(self):
        s = third_vertex_sphere((0, 0, 0), (1, 0, 0), shape_from_degrees(60, 60, 60))
        assert np.allclose(s.center, (0.5, 0.0, 0.0))
        assert s.radius == pytest.approx(SQRT3 / 2, abs=1e-14)
        for x in s.surface_points(16):
            assert x[0] == pytest.approx(0.5, abs=1e-12)

    def test_right_isoceles_centers_on_o(self):
        s = third_vertex_sphere((0, 0), (1, 0), shape_from_degrees(90, 45, 45))
        assert np.allclose(s.center, (0.0, 0.0), atol=1e-14)
        assert s.radius == pytest.approx(1.0, abs=1e-14)
        pts = s.surface_points(2)
        assert np.allclose(sorted(pts[:, 1]), [-1.0, 1.0])

    def test_degenerate_p(self):
        with pytest.raises(DegenerateConfigurationError):
            third_vertex_sphere((0, 0), (0, 0), shape_from_degrees(60, 60, 60))

    def test_random_spheres_satisfy_both_distances(self):
        """For random configurations every sphere point is at the two target
        distances from o and p respectively (1e3 configs, 32 points each)."""
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            o = rng.standard_normal(n)
            p = o + rng.standard_normal(n)
            if np.linalg.norm(p - o) < 1e-3:
                continue
            raw = rng.uniform(0.3, math.pi - 0.6, size=3)
            angles = raw / raw.sum() * math.pi
            shape = shape_from_angles(*angles)
            sphere = third_vertex_sphere(o, p, shape)
            dist = np.linalg.norm(p - o)
            pts = sphere.surface_points(32, seed=7)
            d_o = np.linalg.norm(pts - o, axis=1)
            d_p = np.linalg.norm(pts - p, axis=1)
            assert np.max(np.abs(d_o - shape.ratio_oq * dist)) < 1e-10 * dist
            assert np.max(np.abs(d_p - shape.ratio_pq * dist)) < 1e-10 * dist


class TestRotationAligning:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_random_alignments(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            a = rng.standard_normal(n)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(n)
            b /= np.linalg.norm(b)
            rot = rotation_aligning(a, b)
            assert np.allclose(rot @ a, b, atol=1e-12)
            assert np.allclose(rot.T @ rot, np.eye(n), atol=1e-10)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_antiparallel(self, n):
        e = np.zeros(n)
        e[-1] = 1.0
        rot = rotation_aligning(-e, e)
        assert np.allclose(rot @ (-e), e, atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-10)

    def test_near_antiparallel_stays_exact(self):
        e = np.array([0.0, 0.0, 1.0])
        a = np.array([1e-9, 0.0, -1.0])
        a /= np.linalg.norm(a)
        rot = rotation_aligning(a, e)
        assert np.linalg.norm(rot @ a - e) < 1e-12


class TestCanonicalFrame:
    def test_axis_aligned_sphere(self):
        sphere = Sphere(np.zeros(3), 2.0, np.array([0.0, 0.0, 1.0]), 3)
        frame = canonical_frame(sphere)
        assert np.allclose(frame.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(frame.translation, 0.0)
        assert frame.scale == pytest.approx(0.5)

    def test_r3_offset_sphere_lands_on_canonical(self):
        sphere = Sphere(np.array([1.0, 1.0, 1.0]), 1.0, np.array([1.0, 0.0, 0.0]), 3)
        frame = canonical_frame(sphere)
        phis = 2.0 * math.pi * np.arange(64) / 64
        samples = np.column_stack([np.ones(64), 1.0 + np.cos(phis), 1.0 + np.sin(phis)])
        mapped = apply_frame(frame, samples)
        assert np.max(np.abs(np.linalg.norm(mapped, axis=1) - 1.0)) < 1e-10
        assert np.max(np.abs(mapped[:, -1])) < 1e-10

    def test_planar_two_point_sphere(self):
        shape = shape_from_degrees(60, 60, 60)
        sphere = third_vertex_sphere((0.0, 0.0), (1.0, 0.0), shape)
        frame = canonical_frame(sphere)
        mapped = apply_frame(frame, sphere.surface_points(2))
        assert np.allclose(sorted(mapped[:, 0]), [-1.0, 1.0], atol=1e-12)
        assert np.max(np.abs(mapped[:, 1])) < 1e-12

    def test_canonical_landing_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            o = rng.standard_normal(n)
            p = o + rng.standard_normal(n) * 2.0
            if np.linalg.norm(p - o) < 1e-3:
                continue
            sphere = third_vertex_sphere(o, p, shape_from_degrees(70, 60, 50))
            frame = canonical_frame(sphere)
            landed = cylindrical_project(apply_frame(frame, sphere.surface_points(16, seed=3)))
            assert np.max(np.abs(landed - np.array([1.0, 0.0]))) < 1e-9

    def test_frame_similarity(self):
        rng = np.random.default_rng(6)
        sphere = third_vertex_sphere(rng.standard_normal(4), rng.standard_normal(4),
                                     shape_from_degrees(55, 65, 60))
        frame = canonical_frame(sphere)
        for _ in range(50):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            lhs = np.linalg.norm(apply_frame(frame, x) - apply_frame(frame, y))
            rhs = frame.scale * np.linalg.norm(x - y)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_frame_continuity_along_sweep(self, ellipse4096):
        """Adjacent sweep parameters give nearby rotations on a smooth curve."""
        shape = shape_from_degrees(60, 60, 60)
        base = ellipse4096.origin
        delta = 1e-4
        for t in (0.15, 0.3, 0.45, 0.6, 0.8):
            r1 = canonical_frame(third_vertex_sphere(base, ellipse4096.eval(t), shape)).rotation
            r2 = canonical_frame(third_vertex_sphere(base, ellipse4096.eval(t + delta), shape)).rotation
            assert np.linalg.norm(r1 - r2) < 1e-2


class TestApplyFrame:
    def test_identity(self):
        frame = ScaledIsometry(np.eye(2), np.zeros(2), 1.0)
        x = np.array([0.3, -0.7])
        assert np.array_equal(apply_frame(frame, x), x)

    def test_scale_only(self):
        frame = ScaledIsometry(np.eye(2), np.zeros(2), 2.0)
        assert np.allclose(apply_frame(frame, np.array([1.0, 1.0])), (2.0, 2.0))

    def test_sphere_center_to_origin(self):
        sphere = third_vertex_sphere((0.2, -0.4, 1.0), (1.5, 0.3, 0.0), shape_from_degrees(60, 60, 60))
        frame = canonical_frame(sphere)
        assert np.allclose(apply_frame(frame, sphere.center), np.zeros(3), atol=1e-14)

    def test_dimension_mismatch(self):
        frame = ScaledIsometry(np.eye(2), np.zeros(2), 1.0)
        with pytest.raises(Exception):
            apply_frame(frame, np.array([1.0, 2.0, 3.0]))


class TestCylindricalProject:
    def test_three_four_five(self):
        assert np.allclose(cylindrical_project(np.array([3.0, 4.0, 5.0])), (5.0, 5.0))

    def test_axis_point(self):
        assert np.allclose(cylindrical_project(np.array([0.0, 0.0, 0.0, 2.5])), (0.0, 2.5))

    def test_canonical_sphere_collapses(self):
        sphere = Sphere(np.zeros(4), 1.0, np.array([0.0, 0.0, 0.0, 1.0]), 4)
        pts = sphere.surface_points(32, seed=1)
        assert np.max(np.abs(cylindrical_project(pts) - np.array([1.0, 0.0]))) < 1e-12

    def test_planar_fold(self):
        assert np.allclose(cylindrical_project(np.array([-2.0, 3.0])), (2.0, 3.0))
