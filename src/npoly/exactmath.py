"""Exact integer and rational linear algebra for small dense systems.

One fraction-free (Bareiss) row echelon does the elimination:
determinants and ranks are read off it in Python's arbitrary-precision
integers. Its Gauss-Jordan form, eliminating above the pivots too, gives
`adjugate` in one pass, and so rational solves and unimodular inverses.
Rational rows have their denominators cleared first, and
``fractions.Fraction`` only appears in rational results. No floating
point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import BrokenInvariant, DegenerateMatrix

LatticePoint = tuple[int, ...]
RationalVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix stored as a tuple of rows."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise DegenerateMatrix("matrix needs at least one row and column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise DegenerateMatrix("ragged rows")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_columns(cls, cols) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        if len({len(c) for c in cols}) > 1:
            raise DegenerateMatrix("ragged columns")
        return cls.from_rows(zip(*cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> LatticePoint:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[LatticePoint]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DegenerateMatrix("dimension mismatch in product")
        cols = other.transpose().entries
        return IntMatrix.from_rows(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        )

    def mul_vector(self, v) -> tuple:
        """Matrix-vector product; accepts int or Fraction entries in v."""
        if len(v) != self.cols:
            raise DegenerateMatrix("dimension mismatch in product")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition P*M*Q = diag(d_1, ..., d_n) with d_i | d_{i+1}."""

    P: IntMatrix
    Q: IntMatrix
    diag: tuple[int, ...]


def _integer_row(row) -> list[int]:
    """A rational row scaled by the lcm of its denominators: same row space."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def _echelon(rows) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns (rows, pivots, sign): the nonzero echelon rows, their increasing
    pivot columns and the sign of the row permutation. Columns without a
    pivot are skipped. Every entry stays a minor of the input (Sylvester's
    identity), so each division is exact, and the last pivot of a
    nonsingular square matrix is its determinant up to that sign.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    pivots = []
    sign = prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == nrows:
            break
        if not a[r][c]:
            k = next((i for i in range(r + 1, nrows) if a[i][c]), None)
            if k is None:
                continue
            a[r], a[k] = a[k], a[r]
            sign = -sign
        top = a[r][c:]
        p = top[0]
        for row in a[r + 1:]:
            f = row[c]
            row[c:] = [(x * p - f * y) // prev for x, y in zip(row[c:], top)]
        prev = p
        pivots.append(c)
    return a[: len(pivots)], pivots, sign


def determinant(m: IntMatrix) -> int:
    """Exact determinant: the last pivot of the fraction-free echelon."""
    if not m.is_square:
        raise DegenerateMatrix("determinant requires a square matrix")
    rows, pivots, sign = _echelon(m.entries)
    return sign * rows[-1][-1] if len(pivots) == m.rows else 0


def rational_rank(vectors) -> int:
    """Rank over Q of a sequence of integer or rational vectors."""
    return len(_echelon([_integer_row(v) for v in vectors])[1])


def adjugate(rows) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of a nonsingular square integer matrix B.

    One fraction-free Gauss-Jordan elimination of [B | I], which clears each
    pivot column above the pivot as well as below it, ends at
    [d*I | d*B^-1] with d = +-det B; every entry stays a minor of the
    input, so each division is exact. adj B = det B * B^-1 is the right
    half up to the sign of the row permutation.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DegenerateMatrix("adjugate requires a square matrix")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign = prev = 1
    for c in range(n):
        if not a[c][c]:
            k = next((i for i in range(c + 1, n) if a[i][c]), None)
            if k is None:
                raise DegenerateMatrix("singular matrix has no adjugate here")
            a[c], a[k] = a[k], a[c]
            sign = -sign
        top = a[c]
        p = top[c]
        for i, row in enumerate(a):
            if i != c:
                f = row[c]
                a[i] = [(x * p - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return [[sign * x for x in row[n:]] for row in a], sign * prev


def solve_unique(m: IntMatrix, u) -> RationalVector:
    """Unique rational solution adj(M)*u / det M of M*r = u for nonsingular M."""
    if not m.is_square:
        raise DegenerateMatrix("system matrix must be square")
    if len(u) != m.rows:
        raise DegenerateMatrix("right-hand side has wrong length")
    try:
        adj, det = adjugate(m.entries)
    except DegenerateMatrix as exc:
        raise DegenerateMatrix("singular system matrix") from exc
    return tuple(Fraction(sum(map(mul, row, u)), det) for row in adj)


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1: det * adj."""
    adj, det = adjugate(m.entries)
    if det not in (1, -1):
        raise DegenerateMatrix("matrix is not unimodular")
    return IntMatrix.from_rows([[det * x for x in row] for row in adj])


def _min_abs_entry(a, t, nrows, ncols):
    best = None
    for i in range(t, nrows):
        for j in range(t, ncols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < abs(best[2])):
                best = (i, j, v)
    return best


def smith_engine(entries) -> tuple[list, list, list, int]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (P, D, Q, rank) as lists of rows with P*A*Q = D, D diagonal with
    positive entries satisfying the divisibility chain, and P, Q unimodular.
    Works for rectangular matrices; rank is the number of nonzero diagonal
    entries.
    """
    a = [list(row) for row in entries]
    nrows, ncols = len(a), len(a[0])
    p = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    q = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < min(nrows, ncols):
        found = _min_abs_entry(a, t, nrows, ncols)
        if found is None:
            break
        while True:
            i0, j0, _ = _min_abs_entry(a, t, nrows, ncols)
            if i0 != t:
                a[t], a[i0] = a[i0], a[t]
                p[t], p[i0] = p[i0], p[t]
            if j0 != t:
                for row in a:
                    row[t], row[j0] = row[j0], row[t]
                for row in q:
                    row[t], row[j0] = row[j0], row[t]
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    k = a[i][t] // pivot
                    if k != 0:
                        a[i] = [x - k * y for x, y in zip(a[i], a[t])]
                        p[i] = [x - k * y for x, y in zip(p[i], p[t])]
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    k = a[t][j] // pivot
                    if k != 0:
                        for row in a:
                            row[j] -= k * row[t]
                        for row in q:
                            row[j] -= k * row[t]
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # force the pivot to divide the remaining block
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            p[t] = [x + y for x, y in zip(p[t], p[offender])]
        t += 1
    for i in range(min(nrows, ncols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            p[i] = [-x for x in p[i]]
    rank = sum(1 for i in range(min(nrows, ncols)) if a[i][i] != 0)
    return p, a, q, rank


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form of a nonsingular square integer matrix."""
    if not m.is_square:
        raise DegenerateMatrix("Smith form is only taken for square matrices here")
    p, d, q, rank = smith_engine(m.entries)
    if rank < m.rows:
        raise DegenerateMatrix("singular matrix has no full invariant factor chain")
    diag = tuple(d[i][i] for i in range(m.rows))
    result = SnfResult(IntMatrix.from_rows(p), IntMatrix.from_rows(q), diag)
    if any(diag[i + 1] % diag[i] for i in range(len(diag) - 1)):
        raise BrokenInvariant("Smith diagonal breaks the divisibility chain")
    if result.P.mul(m).mul(result.Q).entries != tuple(
        tuple(diag[i] * int(i == j) for j in range(m.rows)) for i in range(m.rows)
    ):
        raise BrokenInvariant("P*M*Q does not reconstruct the Smith diagonal")
    return result
