"""Exact integer and rational linear algebra for small dense systems.

Everything works over Python's arbitrary-precision integers and
``fractions.Fraction``; no floating point is used anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInput, DegenerateMatrix

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


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise DegenerateMatrix("determinant requires a square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _echelon(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Row echelon form over the rationals; returns the nonzero rows."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    out = []
    pivot_col = 0
    while rows and pivot_col < ncols:
        pivot_row = next((r for r in rows if r[pivot_col] != 0), None)
        if pivot_row is None:
            pivot_col += 1
            continue
        rows.remove(pivot_row)
        inv = pivot_row[pivot_col]
        pivot_row = [x / inv for x in pivot_row]
        for r in rows:
            if r[pivot_col] != 0:
                f = r[pivot_col]
                for j in range(pivot_col, ncols):
                    r[j] -= f * pivot_row[j]
        out.append(pivot_row)
        pivot_col += 1
    return out


def rational_rank(vectors) -> int:
    """Rank over Q of a sequence of integer or rational vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    if not rows:
        return 0
    return len(_echelon(rows))


def _solve_square(a: list[list[Fraction]], b: list[Fraction]):
    """Solve a square rational system; None when the matrix is singular."""
    n = len(a)
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot is None:
            return None
        aug[k], aug[pivot] = aug[pivot], aug[k]
        pk = aug[k][k]
        aug[k] = [x / pk for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return tuple(aug[i][n] for i in range(n))


def solve_unique(m: IntMatrix, u) -> RationalVector:
    """Unique rational solution of M*r = u for nonsingular M."""
    if not m.is_square:
        raise DegenerateMatrix("system matrix must be square")
    rows = [[Fraction(x) for x in row] for row in m.entries]
    rhs = [Fraction(x) for x in u]
    if len(rhs) != m.rows:
        raise DegenerateMatrix("right-hand side has wrong length")
    sol = _solve_square(rows, rhs)
    if sol is None:
        raise DegenerateMatrix("singular system matrix")
    return sol


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1."""
    n = m.rows
    cols = []
    for j in range(n):
        e = [Fraction(int(i == j)) for i in range(n)]
        col = solve_unique(m, e)
        if any(c.denominator != 1 for c in col):
            raise DegenerateMatrix("matrix is not unimodular")
        cols.append([int(c) for c in col])
    return IntMatrix.from_columns(cols)


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
    assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
    assert result.P.mul(m).mul(result.Q).entries == tuple(
        tuple(diag[i] * int(i == j) for j in range(m.rows)) for i in range(m.rows)
    )
    return result


def lp_min_sum(generators, u) -> Fraction | None:
    """Exact minimum of sum(t_j) over t >= 0 with sum(t_j * V_j) = u.

    Solved by enumerating basic solutions of the row-reduced system, which
    is exact and adequate at the generator counts used here. Returns None
    when u is not a nonnegative combination of the generators.
    """
    gens = [tuple(int(c) for c in g) for g in generators]
    if not gens:
        raise DegenerateInput("empty generator set")
    n = len(gens[0])
    if any(len(g) != n for g in gens) or len(u) != n:
        raise DegenerateInput("generator/target dimension mismatch")
    u = tuple(int(c) for c in u)
    if all(c == 0 for c in u):
        return Fraction(0)
    count = len(gens)
    aug = [[Fraction(g[i]) for g in gens] + [Fraction(u[i])] for i in range(n)]
    reduced = _echelon(aug)
    sys_rows = []
    for row in reduced:
        if all(x == 0 for x in row[:count]):
            if row[count] != 0:
                return None  # u outside the linear span of the generators
            continue
        sys_rows.append(row)
    r = len(sys_rows)
    best = None
    for subset in itertools.combinations(range(count), r):
        sol = _solve_square(
            [[row[j] for j in subset] for row in sys_rows],
            [row[count] for row in sys_rows],
        )
        if sol is None or any(t < 0 for t in sol):
            continue
        total = sum(sol, Fraction(0))
        if best is None or total < best:
            best = total
    return best
