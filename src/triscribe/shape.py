"""Target triangle shapes as side ratios, plus candidate-triple residuals.

A shape is given by its three vertex angles; the solvers consume the two side
ratios measured against the side from the distinguished vertex o to the swept
vertex p:

    ratio_oq = |q - o| / |p - o|        ratio_pq = |q - p| / |p - o|

Construction normalizes ratio_oq >= 1 by swapping the p/q labels when needed,
so downstream code never branches on it.  The distinguished vertex angle stays
attached to o regardless of the swap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, InvalidArgumentError

ANGLE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TriangleShape:
    angle_o: float
    angle_p: float
    angle_q: float
    ratio_oq: float  # |q - o| / |p - o|, >= 1 after label normalization
    ratio_pq: float  # |q - p| / |p - o|
    vertex_angle: float  # angle at the distinguished vertex o


def shape_from_angles(angle_o, angle_p, angle_q):
    """Build a shape from vertex angles in radians (angle at o listed first)."""
    angles = (float(angle_o), float(angle_p), float(angle_q))
    # Written so that NaN fails both checks.
    if not all(0.0 < a < math.pi for a in angles):
        raise InvalidArgumentError("vertex angles must lie strictly inside (0, pi)")
    if not abs(sum(angles) - math.pi) <= ANGLE_SUM_TOL:
        raise InvalidArgumentError("vertex angles must sum to pi")
    ao, ap, aq = angles
    # Law of sines: each side ratio is the ratio of the sines of the opposite angles.
    r = math.sin(ap) / math.sin(aq)
    if r < 1.0:
        ap, aq = aq, ap
        r = math.sin(ap) / math.sin(aq)
    r_prime = math.sin(ao) / math.sin(aq)
    # Sides 1, r and r_prime: rounding breaks the inequality for an angle near pi.
    if not (r < 1.0 + r_prime and r_prime < 1.0 + r):
        raise InvalidArgumentError("side ratios break the strict triangle inequality")
    # The squared radius of the solvers' sphere of third vertices at unit
    # |p - o|; cancellation can round it to 0, as at angles 1e-7, 90, 89.9999999 degrees.
    alpha = (r * r - r_prime * r_prime + 1.0) / 2.0
    if not r * r - alpha * alpha > 0.0:
        raise InvalidArgumentError("side ratios admit no third vertex off the o-p line")
    return TriangleShape(ao, ap, aq, r, r_prime, vertex_angle=ao)


def equilateral_shape():
    third = math.pi / 3.0
    return shape_from_angles(third, third, third)


def shape_from_degrees(deg_o, deg_p, deg_q):
    return shape_from_angles(math.radians(deg_o), math.radians(deg_p), math.radians(deg_q))


def residuals(shape, o, p, q):
    """Signed deviations of the triple (o, p, q) from the target side ratios.

    Both residuals vanish exactly when the triangle o-p-q is similar to the
    target with the distinguished vertex at o.  Invariant under any similarity
    transform applied to the three points.
    """
    o = np.asarray(o, dtype=float)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    base = float(np.linalg.norm(p - o))
    d_oq = float(np.linalg.norm(q - o))
    d_pq = float(np.linalg.norm(q - p))
    scale = max(d_oq, d_pq, 1.0e-300)
    if base < 1e-14 * scale:
        raise DegenerateConfigurationError("swept vertex p coincides with the base o")
    return (d_oq / base - shape.ratio_oq, d_pq / base - shape.ratio_pq)
