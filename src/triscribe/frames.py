"""Candidate spheres, the frames that normalize them, and the radial projection.

For a base point o and a swept point p, the third vertices q completing a
triangle of the target shape form an (n-2)-sphere: the intersection of the
spheres ``|q - o| = ratio_oq * |p - o|`` and ``|q - p| = ratio_pq * |p - o|``.
A scaled isometry carries that sphere onto the canonical unit sphere in the
hyperplane ``x_n = 0``; the cylindrical projection then collapses the whole
canonical sphere to the single planar point (1, 0), which is what makes
winding numbers around (1, 0) a usable crossing invariant.

The rotation carrying the sphere normal to the last axis is only determined
up to an orthogonal map of the first n-1 coordinates; the cylindrical radius
is invariant under exactly those maps, so the projected path (and with it the
winding number) does not depend on the choice.

The frame and the projection are the reference definition, not the hot path.
Composed, they are closed-form: a point x maps to ``(|v - h normal| / r, h / r)``
with ``v = x - center`` and ``h = v . normal``, which is what the sweep's
winding kernel (``solvers.sphere_winding``) evaluates without any rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, InfeasibleShapeError, InvalidArgumentError

ANTIPARALLEL_TOL = 1e-8


@dataclass(frozen=True)
class Sphere:
    """An (n-2)-sphere: points at ``radius`` from ``center`` inside the
    hyperplane through ``center`` with unit ``normal``.  For n = 2 this is a
    pair of points."""

    center: np.ndarray
    radius: float
    normal: np.ndarray
    dimension: int

    def surface_points(self, count, seed=0):
        """Deterministic sample of points on the sphere (both points if n = 2)."""
        n = self.dimension
        basis = rotation_aligning(self.normal, _axis(n, n - 1)).T[:, : n - 1]
        if n == 2:
            u = basis[:, 0]
            reps = (count + 1) // 2
            pts = np.vstack([self.center + self.radius * u, self.center - self.radius * u] * reps)
            return pts[:count]
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((count, n - 1))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        return self.center + self.radius * z @ basis.T


@dataclass(frozen=True)
class ScaledIsometry:
    """x -> scale * rotation @ (x + translation), with rotation in SO(n)."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float


def _axis(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def third_vertex_sphere(o, p, shape):
    """The sphere of third vertices q making (o, p, q) similar to ``shape``."""
    o = np.asarray(o, dtype=float)
    p = np.asarray(p, dtype=float)
    d = p - o
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise DegenerateConfigurationError("sphere requires p distinct from o")
    r1 = shape.ratio_oq * dist
    r2 = shape.ratio_pq * dist
    alpha = (r1 * r1 - r2 * r2 + dist * dist) / (2.0 * dist * dist)
    rad_sq = r1 * r1 - alpha * alpha * dist * dist
    if rad_sq <= 0.0:
        # Cannot occur for a shape built from strictly interior angles.
        raise InfeasibleShapeError("side ratios admit no third vertex off the o-p line")
    return Sphere(
        center=o + alpha * d,
        radius=float(np.sqrt(rad_sq)),
        normal=d / dist,
        dimension=o.shape[0],
    )


def rotation_aligning(a, b):
    """Minimal rotation in SO(n) carrying unit vector ``a`` to unit vector ``b``.

    Acts as the identity on the orthogonal complement of span(a, b).  When the
    vectors are antiparallel the minimal rotation is not unique; the convention
    here rotates by pi in the plane of ``b`` and the first axis farthest from it.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    c = float(np.dot(a, b))
    if c < -1.0 + ANTIPARALLEL_TOL:
        # Route through the axis most orthogonal to b; each leg is well away
        # from the antiparallel singularity, so the alignment stays exact.
        k = int(np.argmin(np.abs(b)))
        w = _axis(n, k) - b * b[k]
        w /= np.linalg.norm(w)
        return rotation_aligning(w, b) @ rotation_aligning(a, w)
    rot = np.eye(n) - np.outer(a + b, a + b) / (1.0 + c) + 2.0 * np.outer(b, a)
    return rot


def canonical_frame(sphere):
    """Frame carrying the sphere onto the unit sphere of the ``x_n = 0`` plane.

    Translation moves the sphere center to the origin, the minimal rotation
    takes the hyperplane normal to the last axis, and scaling by 1/radius
    normalizes the size.
    """
    n = sphere.dimension
    rot = rotation_aligning(sphere.normal, _axis(n, n - 1))
    return ScaledIsometry(rotation=rot, translation=-sphere.center, scale=1.0 / sphere.radius)


def apply_frame(frame, x):
    """Apply a scaled isometry to one point (n,) or a batch of points (m, n)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != frame.translation.shape[0]:
        raise InvalidArgumentError("point dimension does not match the frame")
    return frame.scale * (x + frame.translation) @ frame.rotation.T


def cylindrical_project(x):
    """Collapse the first n-1 coordinates to their radius: x -> (d, x_n).

    Every point of the canonical sphere maps to (1, 0).
    """
    x = np.asarray(x, dtype=float)
    d = np.sqrt((x[..., :-1] ** 2).sum(axis=-1))
    return np.stack([d, x[..., -1]], axis=-1)
