"""Exact Hodge and Newton polygons for exponential sums over finite fields."""

from .exactmath import IntMatrix, SnfResult, determinant, snf, solve_unique
from .polytope import (
    Dominance,
    LowerPolygon,
    NewtonPolyhedron,
    Support,
    build,
    lies_above,
)
from .diagonal import (
    DiagonalSimplex,
    GroupElement,
    Orbit,
    hodge_polygon_diag,
    is_ordinary,
    m_action,
    m_degree,
    newton_polygon_diag,
    orbit_slope,
    orbits,
    ordinary_residues,
    slope_from_digit_sums,
    stickelberger_ord,
)
from .decompose import (
    CollapseResult,
    admissible_check,
    collapse_step,
    complete_collapse,
    facial_decompose,
    generic_ordinary_certificate,
    ordinary_via_faces,
    regular_subdivision,
)
from .catalog import NamedFamily, make

__version__ = "0.1.0"

__all__ = [
    "IntMatrix",
    "SnfResult",
    "determinant",
    "snf",
    "solve_unique",
    "Dominance",
    "LowerPolygon",
    "NewtonPolyhedron",
    "Support",
    "build",
    "lies_above",
    "DiagonalSimplex",
    "GroupElement",
    "Orbit",
    "hodge_polygon_diag",
    "is_ordinary",
    "m_action",
    "m_degree",
    "newton_polygon_diag",
    "orbit_slope",
    "orbits",
    "ordinary_residues",
    "slope_from_digit_sums",
    "stickelberger_ord",
    "CollapseResult",
    "admissible_check",
    "collapse_step",
    "complete_collapse",
    "facial_decompose",
    "generic_ordinary_certificate",
    "ordinary_via_faces",
    "regular_subdivision",
    "NamedFamily",
    "make",
]
