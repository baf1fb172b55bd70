"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
All tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from triscribe import (
    Curve,
    check_strong_monotone,
    chord_angle_bounds,
    equilateral_shape,
    make_curve,
    near_base_param,
    ratio_path,
    shape_from_degrees,
    solve_equilateral,
    solve_similar,
)
from triscribe.solvers import _param_at_distance

from conftest import pair_distance_unordered
from reference import (
    PlanarPath,
    brute_force_similar,
    ratio_loop,
    segment_distances,
    sphere_winding,
    winding_by_crossing_count,
    winding_closed,
)

EQ = equilateral_shape()


def report(number, label, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number} failed: {label}"


@pytest.fixture(scope="module")
def circle():
    return make_curve("circle", samples=4096)


@pytest.fixture(scope="module")
def ellipse():
    return make_curve("ellipse", samples=4096, a=2, b=1)


def test_criterion_1_regular_triangle(circle):
    started = time.perf_counter()
    outcome = solve_similar(circle, EQ, base_param=0.0)
    elapsed = time.perf_counter() - started
    ok = len(outcome.triangles) >= 1
    if ok:
        tri = outcome.triangles[0]
        found = sorted([tri.t_p, tri.t_q])
        ok = (
            abs(found[0] - 1 / 3) < 1e-6
            and abs(found[1] - 2 / 3) < 1e-6
            and tri.max_residual < 1e-9
            and elapsed < 2.0
        )
    report(1, f"regular triangle on the circle ({elapsed:.2f}s)", ok)


def test_criterion_2_right_isoceles(circle):
    outcome = solve_similar(circle, shape_from_degrees(90, 45, 45), base_param=0.0)
    ok = len(outcome.triangles) >= 1
    if ok:
        tri = outcome.triangles[0]
        found = sorted([tri.t_p, tri.t_q])
        vertices = sorted([tuple(np.round(tri.point_p, 4)), tuple(np.round(tri.point_q, 4))])
        ok = (
            abs(found[0] - 0.25) < 1e-6
            and abs(found[1] - 0.75) < 1e-6
            and tri.max_residual < 1e-9
            and np.allclose(vertices[0], (0.0, -1.0), atol=1e-4)
            and np.allclose(vertices[1], (0.0, 1.0), atol=1e-4)
        )
    report(2, "right isoceles (90,45,45) on the circle", ok)


def test_criterion_3_differentiable_point_bounds(ellipse):
    reps = [chord_angle_bounds(ellipse, 0.01, math.radians(deg)) for deg in (30, 60, 90, 120)]
    rep = reps[0]
    ok = rep.sup_outgoing < 0.2 and rep.inf_straddling > 2.9
    ok = ok and all(r.satisfied for r in reps)
    report(3, f"ellipse bounds sup={rep.sup_outgoing:.3f} inf={rep.inf_straddling:.3f}", ok)


def test_criterion_4_winding_endpoints(circle):
    started = time.perf_counter()
    ok = True
    for n in (2, 3, 5):
        if n == 2:
            curve = circle
        else:
            rng = np.random.default_rng(n)
            basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
            curve = Curve(circle.points @ basis[:2, :])
        t_far = curve.farthest_param(curve.origin)
        t_near = near_base_param(curve, EQ, 0.2)
        w_far = sphere_winding(curve, t_far, EQ)
        w_near = sphere_winding(curve, t_near, EQ)
        ok = ok and w_far.winding == 0 and w_near.winding is not None and w_near.winding != 0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report(4, f"winding endpoints in R^2, R^3, R^5 ({elapsed:.2f}s)", ok)


def test_criterion_5_reference_loop_winding(circle, ellipse):
    ok = True
    for curve in (circle, ellipse):
        eps = next(e for e in (0.2, 0.1, 0.05, 0.02, 0.01) if check_strong_monotone(curve, e))
        s_far = curve.farthest_param(curve.origin)
        clear = curve.min_distance_excluding(curve.origin, (1.0 - eps, eps))
        s_near = _param_at_distance(curve, clear / 3.0, 1.0, 1.0 - eps)
        loop = ratio_loop(ratio_path(curve, s_far, 1024), ratio_path(curve, s_near, 1024))
        ok = ok and winding_closed(loop, np.zeros(2)) == 1
    report(5, "reference loop winds exactly once on circle and ellipse", ok)


def test_criterion_6_ratio_path_invariants():
    rng = np.random.default_rng(2718)
    curves = [
        make_curve("circle", samples=2048),
        make_curve("ellipse", samples=2048, a=2, b=1),
    ] + [make_curve("fourier", samples=2048, seed=k, amp=0.1) for k in range(4)]
    ok = True
    for trial in range(100):
        curve = curves[trial % len(curves)]
        s = float(rng.uniform(0.05, 0.95))
        path = ratio_path(curve, s, 256)
        ok = ok and path[0, 0] == -1.0 and path[0, 1] == 0.0
        ok = ok and path[-1, 0] == 0.0 and path[-1, 1] == -1.0
    for curve in curves:
        s_far = curve.farthest_param(curve.origin)
        far_path = ratio_path(curve, s_far, 1024)
        ok = ok and float(far_path[:, 0].max()) <= 1e-12
        eps = next(
            (e for e in (0.2, 0.1, 0.05, 0.02, 0.01) if check_strong_monotone(curve, e)), None
        )
        ok = ok and eps is not None
        if eps is None:
            continue
        clear = curve.min_distance_excluding(curve.origin, (1.0 - eps, eps))
        s_near = _param_at_distance(curve, clear / 3.0, 1.0, 1.0 - eps)
        near_path = ratio_path(curve, s_near, 2048)
        in_open_third_quadrant = (near_path[:, 0] < -1e-12) & (near_path[:, 1] < -1e-12)
        ok = ok and not bool(in_open_third_quadrant.any())
    report(6, "ratio-path endpoint/quadrant invariants on 100 random (curve, s)", ok)


def test_criterion_7_oracle_equivalence():
    ok = True
    for seed in range(10):
        curve = make_curve("fourier", samples=2048, seed=seed, terms=4, amp=0.1)
        optimum = brute_force_similar(curve, EQ, 512)
        similar = solve_similar(curve, EQ)
        equilateral = solve_equilateral(curve)
        d_similar = min(
            pair_distance_unordered((t.t_p, t.t_q), (optimum.t_best, optimum.s_best))
            for t in similar.triangles
        )
        d_equilateral = pair_distance_unordered(
            (equilateral.triangle.t_p, equilateral.triangle.t_q),
            (optimum.t_best, optimum.s_best),
        )
        ok = ok and d_similar <= optimum.grid_step and d_equilateral <= optimum.grid_step
        ok = ok and max(t.max_residual for t in similar.triangles) < 1e-9
        ok = ok and equilateral.triangle.max_residual < 1e-9
        ok = ok and 1e-9 < optimum.residual_inf < 30.0 * optimum.grid_step
    report(7, "solver outputs within one lattice step of brute-force optima", ok)


def test_criterion_8_winding_oracle_agreement():
    rng = np.random.default_rng(31415)
    started = time.perf_counter()
    agree = 0
    total = 10_000
    done = 0
    while done < total:
        k = int(rng.integers(3, 13))
        pts = rng.standard_normal((k, 2))
        base = rng.standard_normal(2)
        path = PlanarPath(pts, closed=True)
        if segment_distances(path, base).min() < 1e-6:
            continue
        if winding_closed(path, base) == winding_by_crossing_count(path, base):
            agree += 1
        done += 1
    elapsed = time.perf_counter() - started
    ok = agree == total and elapsed < 10.0
    report(8, f"winding oracle agreement {agree}/{total} ({elapsed:.2f}s)", ok)


def test_criterion_9_similarity_invariance():
    curve = make_curve("tilted_circle_nd", samples=2048, n=3)
    reference = solve_similar(curve, EQ)
    rng = np.random.default_rng(99)
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] *= -1.0
    moved = Curve(curve.points @ rotation.T * 3.7)
    transformed = solve_similar(moved, EQ)
    ok = len(reference.triangles) == len(transformed.triangles) >= 1
    if ok:
        for a, b in zip(reference.triangles, transformed.triangles):
            ok = ok and abs(a.t_p - b.t_p) < 1e-6 and abs(a.t_q - b.t_q) < 1e-6
    report(9, "solve parameters invariant under rotation + scaling in R^3", ok)


def test_criterion_10_monotone_classifier(circle):
    wedge = make_curve("corner_wedge", samples=1024)
    fold = make_curve("u_turn", samples=1024)
    ok = (
        check_strong_monotone(wedge, 0.05)
        and check_strong_monotone(circle, 0.05)
        and not check_strong_monotone(fold, 0.05)
    )
    report(10, "monotonicity classifier: wedge/circle true, fold-back false", ok)
