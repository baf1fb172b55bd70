"""Exception types shared across the package."""


class TriscribeError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(TriscribeError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateConfigurationError(TriscribeError):
    """Geometry collapsed (coincident points, zero chord, base revisited)."""


class InfeasibleShapeError(TriscribeError):
    """The requested triangle shape admits no third-vertex sphere."""


class SingularPathError(TriscribeError):
    """A planar path has a vertex at (or numerically on) the winding base, or
    crosses an axis through it within rounding of it.

    For the solvers this is not a failure: it signals that the swept sphere
    touches the curve, i.e. the event being hunted.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NoBracketError(TriscribeError):
    """A sweep found no invariant change; carries the grid for diagnostics."""

    def __init__(self, message, grid=None):
        super().__init__(message)
        self.grid = grid if grid is not None else []


class RefineFailedError(TriscribeError):
    """Root polishing did not reach tolerance; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
