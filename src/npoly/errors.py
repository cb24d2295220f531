"""Exception types shared across the package."""


class NpolyError(Exception):
    """Base class for all package-specific errors."""


class DegenerateMatrix(NpolyError):
    """Matrix is non-square or singular where a nonsingular one is required."""


class DegenerateInput(NpolyError):
    """Input data violates a structural precondition."""


class NotFullDimensional(NpolyError):
    """Hull of the support together with the origin is not full-dimensional."""


class NotCoprime(NpolyError):
    """Acting integer shares a factor with the relevant group order."""

    def __init__(self, message: str, face: int | None = None):
        super().__init__(message)
        self.face = face


class NotIndecomposable(NpolyError):
    """Simplex face carries lattice points other than its vertices."""


class IncomparablePolygons(NpolyError):
    """Polygons do not share the same endpoint abscissa."""


class BrokenInvariant(NpolyError, AssertionError):
    """A computed result fails one of its own consistency checks: a bug."""
