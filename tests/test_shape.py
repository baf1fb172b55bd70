import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscribe import (
    DegenerateConfigurationError,
    InvalidArgumentError,
    residuals,
    shape_from_angles,
    shape_from_degrees,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestShapeFromAngles:
    def test_equilateral(self):
        s = shape_from_degrees(60, 60, 60)
        assert s.ratio_oq == pytest.approx(1.0, abs=1e-12)
        assert s.ratio_pq == pytest.approx(1.0, abs=1e-12)
        assert s.vertex_angle == pytest.approx(math.pi / 3)

    def test_right_isoceles_at_o(self):
        s = shape_from_degrees(90, 45, 45)
        assert s.ratio_oq == pytest.approx(1.0, abs=1e-12)
        assert s.ratio_pq == pytest.approx(SQRT2, abs=1e-12)

    def test_30_60_90_swaps_labels(self):
        s = shape_from_degrees(30, 60, 90)
        assert s.ratio_oq == pytest.approx(2.0 / SQRT3, abs=1e-12)
        assert s.ratio_pq == pytest.approx(1.0 / SQRT3, abs=1e-12)
        assert s.vertex_angle == pytest.approx(math.radians(30))
        assert s.angle_p == pytest.approx(math.radians(90))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidArgumentError):
            shape_from_degrees(60, 60, 70)

    def test_rejects_degenerate_angle(self):
        with pytest.raises(InvalidArgumentError):
            shape_from_angles(0.0, math.pi / 2, math.pi / 2)

    @pytest.mark.parametrize("degrees", [(179.9999999, 5e-8, 5e-8), (5e-8, 179.9999999, 5e-8),
                                         (5e-8, 5e-8, 179.9999999)])
    def test_rejects_ratios_past_the_triangle_inequality(self, degrees):
        """The angles pass both checks, but the sines round so that one side
        ratio is at least the sum of the other two sides."""
        with pytest.raises(InvalidArgumentError, match="strict triangle inequality"):
            shape_from_degrees(*degrees)

    @pytest.mark.parametrize("degrees", [(1e-7, 90, 89.9999999), (1e-7, 89.9999999, 90)])
    def test_rejects_ratios_that_admit_no_third_vertex(self, degrees):
        """The side ratios obey the strict triangle inequality, but the
        squared radius of the sphere of third vertices at unit |p - o|,
        ratio_oq^2 - alpha^2 with alpha = (ratio_oq^2 - ratio_pq^2 + 1) / 2,
        cancels to 0 (it is 0.75 at 60-60-60)."""
        with pytest.raises(InvalidArgumentError, match="no third vertex off the o-p line"):
            shape_from_degrees(*degrees)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_rejects_non_finite_angle(self, bad, slot):
        angles = [math.pi / 3] * 3
        angles[slot] = bad
        with pytest.raises(InvalidArgumentError, match="strictly inside"):
            shape_from_angles(*angles)


angle_triples = st.tuples(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
).map(lambda raw: tuple(a * math.pi / sum(raw) for a in raw)).filter(
    lambda t: min(t) > 1e-3 and max(t) < math.pi - 1e-3
)


@settings(max_examples=200, deadline=None)
@given(angle_triples)
def test_swap_keeps_ratio_oq_at_least_one(angles):
    s = shape_from_angles(*angles)
    assert s.ratio_oq >= 1.0 - 1e-12


@settings(max_examples=200, deadline=None)
@given(angle_triples)
def test_sides_reproduce_angles(angles):
    """Law-of-cosines round trip: sides (1, ratio_oq, ratio_pq) realize the angles."""
    s = shape_from_angles(*angles)
    op, oq, pq = 1.0, s.ratio_oq, s.ratio_pq

    def angle_from_sides(adj1, adj2, opposite):
        return math.acos(
            max(-1.0, min(1.0, (adj1 * adj1 + adj2 * adj2 - opposite * opposite) / (2 * adj1 * adj2)))
        )

    assert angle_from_sides(op, oq, pq) == pytest.approx(s.angle_o, abs=1e-10)
    assert angle_from_sides(op, pq, oq) == pytest.approx(s.angle_p, abs=1e-10)
    assert angle_from_sides(oq, pq, op) == pytest.approx(s.angle_q, abs=1e-10)


class TestResiduals:
    def test_exact_equilateral(self):
        s = shape_from_degrees(60, 60, 60)
        r1, r2 = residuals(s, (0, 0), (1, 0), (0.5, SQRT3 / 2))
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12

    def test_off_equilateral_arithmetic(self):
        s = shape_from_degrees(60, 60, 60)
        r1, r2 = residuals(s, (0, 0), (1, 0), (1, 1))
        assert r1 == pytest.approx(SQRT2 - 1.0, abs=1e-12)
        assert r2 == pytest.approx(0.0, abs=1e-12)

    def test_right_isoceles_exact(self):
        s = shape_from_degrees(90, 45, 45)
        r1, r2 = residuals(s, (0, 0), (1, 0), (0, 1))
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12

    def test_degenerate_base(self):
        s = shape_from_degrees(60, 60, 60)
        with pytest.raises(DegenerateConfigurationError):
            residuals(s, (0, 0), (0, 0), (1, 1))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_residuals_similarity_invariant(scale, angle, shift):
    """Residuals are unchanged by rotation, scaling and translation."""
    s = shape_from_degrees(75, 65, 40)
    o = np.array([0.3, -0.2])
    p = np.array([1.4, 0.9])
    q = np.array([-0.6, 1.1])
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    move = lambda x: scale * rot @ x + shift
    base = residuals(s, o, p, q)
    moved = residuals(s, move(o), move(p), move(q))
    assert moved[0] == pytest.approx(base[0], abs=1e-10)
    assert moved[1] == pytest.approx(base[1], abs=1e-10)
