"""Boundary of ``rmfspline.spherical``: the runtime modules never import it,
and the package exports the same names as before it existed."""

import ast
import importlib
import pathlib

import pytest

import rmfspline
from rmfspline import spherical

RUNTIME = ("quat", "ph", "rrmf", "_bernstein", "hermite", "spline", "oracle", "io_cli")

EXPORTS = [
    "DegenerateCurveError", "DegenerateInputError", "FrameConstructionError", "GeometryError",
    "InfeasibleTurnError", "NoSolutionError", "SplineBuildError", "StreamFormatError",
    "ValidationError", "VanishingDisplacementError", "HermiteData", "HermiteSolution",
    "analyze", "solve", "PHQuintic", "PreImage", "TangentIndicatrix", "curve_from_preimage",
    "hodograph_from_preimage", "tangent_indicatrix", "Quaternion", "bisector", "neg_cross",
    "quat_sqrt", "rotate", "RationalFrame", "compute_rational_frame",
    "construct_from_spherical", "is_class_I", "PointStream", "SplinePath", "build",
    "chord_knots", "minaj2_tangents",
]


def imported_modules(tree: ast.AST) -> set[str]:
    """Every module an import statement names, relative ones as written
    (``.spherical`` for ``from .spherical import x`` and for ``from .
    import spherical``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(f"{base}.{a.name}" if node.module else base + a.name
                         for a in node.names)
    return names


@pytest.mark.parametrize("module", RUNTIME)
def test_runtime_module_does_not_import_spherical(module):
    path = pathlib.Path(rmfspline.__file__).with_name(f"{module}.py")
    names = imported_modules(ast.parse(path.read_text()))
    assert not {".spherical", "rmfspline.spherical"} & names


def test_import_walker_sees_every_form():
    for line in ("from .spherical import boxop", "from . import spherical",
                 "from rmfspline.spherical import boxop", "from rmfspline import spherical",
                 "import rmfspline.spherical"):
        assert {".spherical", "rmfspline.spherical"} & imported_modules(ast.parse(line)), line


def test_package_exports_unchanged():
    assert rmfspline.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(rmfspline, name) is not None
    for name in ("TangentIndicatrix", "tangent_indicatrix", "quat_sqrt",
                 "construct_from_spherical"):
        assert getattr(rmfspline, name) is getattr(spherical, name)


@pytest.mark.parametrize("module,names", [
    ("quat", ["quat_sqrt", "boxop"]),
    ("_bernstein", ["roots_unit_interval", "minimum_unit_interval"]),
    ("ph", ["is_degenerate", "tangent_indicatrix", "reparam_map", "spherical_control_points"]),
    ("rrmf", ["hm_ellipse", "inner_lengths", "construct_from_spherical", "theta1_for_s1"]),
])
def test_moved_names_left_no_alias(module, names):
    mod = importlib.import_module(f"rmfspline.{module}")
    assert [n for n in names if hasattr(mod, n)] == []
