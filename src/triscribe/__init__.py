"""triscribe: inscribe triangles of a prescribed shape in closed curves in R^n.

The library represents closed curves as chord-length parameterized polylines,
classifies sphere/curve crossings with winding-number invariants, and refines
bracketed crossings into inscribed triangles.  A dedicated solver inscribes
equilateral triangles anchored at a chosen base point via ratio paths.
"""

from .curve import Curve, curve_from_json, curve_from_spec, load_curve, make_curve
from .errors import (
    DegenerateConfigurationError,
    InfeasibleShapeError,
    InvalidArgumentError,
    NoBracketError,
    RefineFailedError,
    SingularPathError,
    TriscribeError,
)
from .shape import TriangleShape, equilateral_shape, residuals, shape_from_angles, shape_from_degrees
from .solvers import (
    AngleConditionReport,
    EquilateralOutcome,
    InscribedTriangle,
    SimilarOutcome,
    SweepResult,
    WindingSample,
    check_strong_monotone,
    chord_angle_bounds,
    near_base_param,
    ratio_path,
    refine_similar,
    solve_equilateral,
    solve_similar,
    sweep_similar,
)

__version__ = "0.1.0"

__all__ = [
    "AngleConditionReport",
    "Curve",
    "DegenerateConfigurationError",
    "EquilateralOutcome",
    "InfeasibleShapeError",
    "InscribedTriangle",
    "InvalidArgumentError",
    "NoBracketError",
    "RefineFailedError",
    "SimilarOutcome",
    "SingularPathError",
    "SweepResult",
    "TriangleShape",
    "TriscribeError",
    "WindingSample",
    "check_strong_monotone",
    "chord_angle_bounds",
    "curve_from_json",
    "curve_from_spec",
    "equilateral_shape",
    "load_curve",
    "make_curve",
    "near_base_param",
    "ratio_path",
    "refine_similar",
    "residuals",
    "shape_from_angles",
    "shape_from_degrees",
    "solve_equilateral",
    "solve_similar",
    "sweep_similar",
]
