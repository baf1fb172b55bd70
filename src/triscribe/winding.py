"""Winding numbers and angle sweeps of planar polyline paths.

Angles are accumulated per segment as atan2(cross, dot) of consecutive
position vectors relative to the base point.  Each increment lies in
(-pi, pi], no branch cuts appear, and totals are exactly-rounded sums, so
reversal negates a sweep bitwise and concatenation adds sweeps exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import point_segment_distances
from .errors import InvalidArgumentError, NumericalDegeneracyError, SingularPathError

ROUNDING_SLACK = 0.01


@dataclass(frozen=True)
class PlanarPath:
    """Polyline in R^2; a closed path is identified first-to-last for winding."""

    points: np.ndarray
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise InvalidArgumentError("a planar path needs at least two 2-D points")
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("path coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def diameter(self):
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.hypot(span[0], span[1]))


def reverse_path(path):
    return PlanarPath(path.points[::-1].copy(), closed=path.closed)


def concat_paths(first, second):
    """Concatenation; the duplicated junction vertex is dropped."""
    return PlanarPath(np.vstack([first.points, second.points[1:]]), closed=False)


def _relative(path, base, tol):
    base = np.asarray(base, dtype=float)
    v = path.points - base
    r = np.hypot(v[:, 0], v[:, 1])
    if tol is None:
        tol = 1e-12 * max(path.diameter, 1e-300)
    hits = np.nonzero(r <= tol)[0]
    if hits.size:
        raise SingularPathError(
            f"path vertex {hits[0]} lies on the winding base", index=int(hits[0])
        )
    return v


def angle_sweep(path, base, tol=None):
    """Accumulated turn of the path around ``base``, in full turns.

    Open paths give a real number; closed paths wrap through the closing
    segment.  A vertex within ``tol`` of the base raises SingularPathError,
    which callers treat as a detected crossing rather than a failure.
    """
    v = _relative(path, base, tol)
    if path.closed:
        v = np.vstack([v, v[:1]])
    return math.fsum(angle_increments(v)) / (2.0 * math.pi)


def angle_increments(v):
    """The turn, atan2(cross, dot), from each row of ``v`` (positions
    relative to the base) to the next, as a list."""
    x0, y0 = v[:-1, 0], v[:-1, 1]
    x1, y1 = v[1:, 0], v[1:, 1]
    cross = x0 * y1 - y0 * x1
    dot = x0 * x1 + y0 * y1
    return np.arctan2(cross, dot).tolist()


def integer_winding(sweep):
    """The integer a closed path's angle sweep (in full turns) rounds to."""
    nearest = round(sweep)
    if abs(sweep - nearest) >= ROUNDING_SLACK:
        raise NumericalDegeneracyError(
            f"angle sweep {sweep!r} is not close to an integer; refine the path"
        )
    return int(nearest)


def winding_closed(path, base, tol=None):
    """Integer winding number of a closed path around ``base``."""
    if not path.closed:
        raise InvalidArgumentError("winding_closed needs a closed path")
    return integer_winding(angle_sweep(path, base, tol=tol))


def segment_distances(path, base):
    """Distance from ``base`` to every segment (incl. the closing one if closed)."""
    pts = path.points
    if path.closed:
        pts = np.vstack([pts, pts[:1]])
    return point_segment_distances(base, pts[:-1], pts[1:])


def passes_through(path, base, tol):
    """Index of the first segment within ``tol`` of ``base``, or None."""
    if tol <= 0.0:
        raise InvalidArgumentError("tolerance must be positive")
    dists = segment_distances(path, base)
    hits = np.nonzero(dists < tol)[0]
    return int(hits[0]) if hits.size else None
