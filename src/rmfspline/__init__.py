"""Quintic PH spline curves carrying piecewise-rational rotation-minimizing frames.

The package interpolates a stream of 3D positions plus one initial frame
orientation by a G1 spline whose segments are quintic Pythagorean-hodograph
curves with rational rotation-minimizing frames, continuous across knots.
"""

from .errors import (
    DegenerateCurveError,
    DegenerateInputError,
    FrameConstructionError,
    GeometryError,
    InfeasibleTurnError,
    NoSolutionError,
    SplineBuildError,
    StreamFormatError,
    ValidationError,
    VanishingDisplacementError,
)
from .hermite import HermiteData, HermiteSolution, analyze, solve
from .ph import PHQuintic, PreImage, curve_from_preimage, hodograph_from_preimage
from .quat import Quaternion, bisector, neg_cross, rotate
from .rrmf import RationalFrame, compute_rational_frame, is_class_I
from .spherical import TangentIndicatrix, construct_from_spherical, quat_sqrt, tangent_indicatrix
from .spline import PointStream, SplinePath, build, chord_knots, minaj2_tangents

__version__ = "0.1.0"

__all__ = [
    "DegenerateCurveError",
    "DegenerateInputError",
    "FrameConstructionError",
    "GeometryError",
    "InfeasibleTurnError",
    "NoSolutionError",
    "SplineBuildError",
    "StreamFormatError",
    "ValidationError",
    "VanishingDisplacementError",
    "HermiteData",
    "HermiteSolution",
    "analyze",
    "solve",
    "PHQuintic",
    "PreImage",
    "TangentIndicatrix",
    "curve_from_preimage",
    "hodograph_from_preimage",
    "tangent_indicatrix",
    "Quaternion",
    "bisector",
    "neg_cross",
    "quat_sqrt",
    "rotate",
    "RationalFrame",
    "compute_rational_frame",
    "construct_from_spherical",
    "is_class_I",
    "PointStream",
    "SplinePath",
    "build",
    "chord_knots",
    "minaj2_tangents",
]
