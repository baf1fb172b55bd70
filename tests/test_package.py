"""The package's public surface: the names it exports and the modules it ships."""

import importlib.util

import triscribe

PUBLIC = """
    AngleConditionReport Curve DegenerateConfigurationError EquilateralOutcome InfeasibleShapeError
    InscribedTriangle InvalidArgumentError NoBracketError RefineFailedError
    SimilarOutcome SingularPathError SweepResult TriangleShape TriscribeError WindingSample
    check_strong_monotone chord_angle_bounds curve_from_json curve_from_spec equilateral_shape
    load_curve make_curve near_base_param ratio_path refine_similar residuals shape_from_angles
    shape_from_degrees solve_equilateral solve_similar sweep_similar
""".split()


def test_exports_are_the_kept_names():
    assert triscribe.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(triscribe, name) is not None, name


def test_reference_modules_are_not_shipped():
    """The rotated frame, the planar-path layer and the oracles live in the
    tests' ``reference`` module, not in the package."""
    for name in ("frames", "winding", "oracle"):
        assert importlib.util.find_spec(f"triscribe.{name}") is None, name
