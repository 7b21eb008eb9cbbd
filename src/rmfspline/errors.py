"""Exception types raised by the geometry kernel."""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for all kernel errors."""


class DegenerateInputError(GeometryError, ValueError):
    """Zero, parallel or antipodal vector data where a direction is required."""


class ValidationError(GeometryError, ValueError):
    """Input violates a documented precondition (norms, orthonormality, symmetry)."""


class DegenerateCurveError(GeometryError):
    """The quaternion generator vanishes inside the parameter interval."""

    def __init__(self, message: str, root: float | None = None):
        super().__init__(message)
        self.root = root


class FrameConstructionError(GeometryError):
    """No rational frame polynomial matched the rotation-rate identity."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NoSolutionError(GeometryError):
    """The end-tangent equation has no admissible root for this data."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class VanishingDisplacementError(GeometryError):
    """The scaled displacement vanishes, so the segment scale is undefined."""

    def __init__(self, message: str, gamma: float | None = None, phi2: float | None = None):
        super().__init__(message)
        self.gamma = gamma
        self.phi2 = phi2


class InfeasibleTurnError(GeometryError):
    """The chord turns too sharply against the incoming tangent."""

    def __init__(self, message: str, tau: float):
        super().__init__(message)
        self.tau = tau


class SplineBuildError(GeometryError):
    """A segment of the spline could not be constructed."""

    def __init__(
        self,
        message: str,
        segment_index: int,
        cause: GeometryError | None = None,
        tau: float | None = None,
        gap: float | None = None,
        hint: str | None = None,
    ):
        super().__init__(message)
        self.segment_index = segment_index
        self.cause = cause
        self.tau = tau
        self.gap = gap
        self.hint = hint


class StreamFormatError(GeometryError, ValueError):
    """A stream or spline file could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no
