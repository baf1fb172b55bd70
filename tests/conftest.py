import inspect
import math

import numpy as np
import pytest

from triscribe import Curve, DegenerateConfigurationError, make_curve, solvers
from triscribe.curve import GENERATORS, point_segment_distances

from reference import point_segment_distance


# Curve families, base parameters and shapes that reach every path of the
# sweep: the winding kernel's tests and both solvers' handoff tests use them.
KERNEL_CASES = [
    ("circle", {}, 0.0, (60, 60, 60)),
    ("ellipse", {"a": 2, "b": 1}, 0.25, (90, 45, 45)),
    ("tilted_circle_nd", {"n": 3}, 0.0, (50, 60, 70)),
    ("tilted_circle_nd", {"n": 6}, 0.5, (60, 60, 60)),
    ("trefoil", {}, 0.0, (50, 60, 70)),
    ("polygon", {"sides": 5}, 0.125, (40, 70, 70)),
    ("polygon", {"sides": 5, "samples": 16}, 0.0, (120, 30, 30)),  # long closing segment
    ("corner_wedge", {}, 0.0, (90, 45, 45)),  # a continuum: many singular nodes
    ("corner_wedge", {}, 0.5, (30, 75, 75)),
    ("u_turn", {}, 0.25, (60, 60, 60)),
    ("fourier", {"seed": 0}, 0.75, (30, 75, 75)),
    ("fourier", {"seed": 3}, 0.0, (120, 30, 30)),
]


@pytest.fixture(scope="session")
def circle4096():
    return make_curve("circle", samples=4096)


@pytest.fixture(scope="session")
def ellipse4096():
    return make_curve("ellipse", samples=4096, a=2, b=1)


@pytest.fixture()
def unit_square():
    return Curve([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def modular_distance(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def pair_distance_unordered(a, b):
    """Distance between parameter pairs, invariant to vertex order."""
    keep = max(modular_distance(a[0], b[0]), modular_distance(a[1], b[1]))
    swap = max(modular_distance(a[0], b[1]), modular_distance(a[1], b[0]))
    return min(keep, swap)


def polyline_distance(curve, x):
    """Brute-force distance from a point to every polyline segment."""
    pts = np.vstack([curve.points, curve.points[:1]])
    a, b = pts[:-1], pts[1:]
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    s = np.clip(((x - a) * ab).sum(axis=1) / denom, 0.0, 1.0)
    closest = a + s[:, None] * ab
    return float(np.linalg.norm(closest - x, axis=1).min())


def one_row_distance(x, a, b):
    """``point_segment_distances`` on one segment: the arithmetic, and the bits,
    of each segment that ``Curve.min_distance_excluding`` measures."""
    return float(point_segment_distances(x, a[None, :], b[None, :])[0])


def min_distance_loop(curve, base, excluded, distance=point_segment_distance):
    """Reference: one ``distance`` call per clipped retained segment.  The
    default, ``point_segment_distance``, is a formula of its own (``np.dot``,
    ``np.linalg.norm``); ``one_row_distance`` gives the bits to expect."""
    lo, hi = excluded
    retained = [(hi, lo)] if hi <= lo else [(0.0, lo), (hi, 1.0)]
    params, pts, m = curve.params, curve.points, curve.n_vertices
    best = math.inf
    for u, v in retained:
        for j in range(m):
            a, b = params[j], params[j + 1]
            ca, cb = max(a, u), min(b, v)
            if cb <= ca:
                continue
            pa = pts[j] if ca == a else curve.eval(ca)
            pb = pts[(j + 1) % m] if cb == b else curve.eval(cb)
            best = min(best, distance(base, pa, pb))
    return best


def unbuilt_generator(monkeypatch, name="circle"):
    """Replace generator ``name`` by one that takes the same parameters,
    records its sample count and fails, so that no curve is built; the list
    of counts it was called with."""
    calls = []

    def generator(samples, **params):
        calls.append(samples)
        raise AssertionError("generator called")

    generator.__signature__ = inspect.signature(GENERATORS[name])
    monkeypatch.setitem(GENERATORS, name, generator)
    return calls


REVISIT_MESSAGE = "curve revisits the base point inside the window"


def fail_ladder_rungs(monkeypatch, scan, rungs):
    """Make the solvers' ladder scan ``scan`` (``chord_angle_bounds`` or
    ``check_strong_monotone``) raise its own DegenerateConfigurationError on
    the window half-widths ``rungs`` and run as it does on the others.  A
    real scan raises only when one of its nodes lands exactly on a revisit
    of the base, which no test curve arranges."""
    real = getattr(solvers, scan)

    def failing(curve, eps, *args):
        if eps in rungs:
            raise DegenerateConfigurationError(REVISIT_MESSAGE)
        return real(curve, eps, *args)

    monkeypatch.setattr(solvers, scan, failing)
