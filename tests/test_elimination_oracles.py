"""Differential oracles for the fraction-free elimination in exactmath.

The references here share no code with it: a Fraction row echelon, a
Fraction Gauss-Jordan solve, a signed-minor normal over cofactor
determinants, and the basic-solution LP and vertex enumeration built on
those.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npoly import decompose as dc
from npoly import exactmath as xm
from npoly.errors import DegenerateMatrix
from oracles import kernel_vector, lp_min_sum, solve_unique


def det_cofactor(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * det_cofactor([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, a in enumerate(rows[0])
    )


def fraction_echelon(rows):
    """Row echelon form over the rationals; returns the nonzero rows."""
    rows = [[Fraction(x) for x in r] for r in rows]
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


def fraction_rref(rows):
    """Reduced row echelon form over the rationals: (nonzero rows, pivots)."""
    out = fraction_echelon(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in out]
    for k, (row, c) in enumerate(zip(out, pivots)):
        for other in out[:k]:
            f = other[c]
            other[:] = [x - f * y for x, y in zip(other, row)]
    return out, pivots


def fraction_solve(a, b):
    """Gauss-Jordan solve of a square rational system; None when singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
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


def signed_minor_normal(vectors, n):
    """Vector orthogonal to n-1 vectors in Q^n (signed maximal minors).

    Zero exactly when the vectors do not span an (n-1)-dimensional space.
    """
    return tuple(
        (-1) ** j * det_cofactor([list(v[:j]) + list(v[j + 1:]) for v in vectors])
        for j in range(n)
    )


def fraction_lp_min_sum(gens, u):
    """Minimum of sum(t) over t >= 0 with sum(t_j g_j) = u, by basic solutions."""
    count = len(gens)
    aug = [[g[i] for g in gens] + [u[i]] for i in range(len(u))]
    rows = fraction_echelon(aug)
    if any(all(x == 0 for x in row[:count]) for row in rows):
        return None
    best = None
    for subset in itertools.combinations(range(count), len(rows)):
        sol = fraction_solve([[row[j] for j in subset] for row in rows],
                             [row[count] for row in rows])
        if sol is not None and all(t >= 0 for t in sol):
            total = sum(sol, Fraction(0))
            best = total if best is None else min(best, total)
    return best


def primitive(v):
    """Primitive integer multiple of a nonzero rational vector, up to sign."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    return tuple(x if lead > 0 else -x for x in ints)


@st.composite
def matrices(draw, nrows=None, ncols=None, rational=None):
    """Integer or Fraction matrices, rank-deficient about as often as not:
    rows past a drawn rank are small combinations of the first ones."""
    nrows = draw(st.integers(1, 4)) if nrows is None else nrows
    ncols = draw(st.integers(1, 4)) if ncols is None else ncols
    if rational is None:
        rational = draw(st.booleans())
    entry = (st.fractions(-4, 4, max_denominator=4) if rational
             else st.integers(-4, 4))
    rank = draw(st.integers(0, min(nrows, ncols)))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=rank, max_size=rank))
    for _ in range(nrows - rank):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows[:rank]))
                     for j in range(ncols)])
    return [tuple(row) for row in draw(st.permutations(rows))]


square_int = st.integers(1, 4).flatmap(lambda n: matrices(n, n, rational=False))


@st.composite
def padded_int_matrices(draw):
    """Integer `matrices` with up to two more rows, each zero or a copy of a
    row, inserted anywhere."""
    rows = draw(matrices(rational=False))
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from([(0,) * len(rows[0])] + rows))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@st.composite
def unimodular(draw):
    """Products of elementary integer row operations on the identity."""
    n = draw(st.integers(1, 4))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            c = draw(st.integers(-3, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return [tuple(row) for row in draw(st.permutations(rows))]


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_fraction_echelon(rows):
    assert xm.rational_rank(rows) == len(fraction_echelon(rows))


@given(padded_int_matrices())
@settings(max_examples=200, deadline=None)
def test_echelon_is_scaled_reduced_row_echelon(rows):
    """The one elimination is Gauss-Jordan: its rows are d times the reduced
    row echelon form, d the last pivot, with the same pivot columns."""
    echelon, pivots, _ = xm._echelon(rows)
    expected, expected_pivots = fraction_rref(rows)
    assert pivots == expected_pivots
    d = echelon[-1][pivots[-1]] if pivots else 1
    assert echelon == [[d * x for x in row] for row in expected]


@given(square_int)
@settings(max_examples=150, deadline=None)
def test_determinant_matches_cofactors(rows):
    assert xm.determinant(xm.IntMatrix.from_rows(rows)) == det_cofactor(rows)


@given(st.integers(2, 5).flatmap(lambda n: matrices(n - 1, n)))
@settings(max_examples=150, deadline=None)
def test_kernel_vector_matches_signed_minors(rows):
    normal = signed_minor_normal(rows, len(rows[0]))
    k = kernel_vector(rows)
    if all(c == 0 for c in normal):
        assert k is None
    else:
        assert primitive(k) == primitive(normal)
        assert gcd(*k) == 1


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_vector_on_any_shape(rows):
    k = kernel_vector(rows)
    ncols = len(rows[0])
    if ncols - len(fraction_echelon(rows)) != 1:
        assert k is None
        return
    assert gcd(*k) == 1
    assert next(x for x in reversed(k) if x) > 0
    assert all(sum(a * x for a, x in zip(row, k)) == 0 for row in rows)


@given(square_int, st.lists(st.fractions(-5, 5, max_denominator=6), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_solve_unique_matches_gauss_jordan(rows, rhs):
    u = rhs[: len(rows)]
    expected = fraction_solve(rows, u)
    m = xm.IntMatrix.from_rows(rows)
    if expected is None:
        with pytest.raises(DegenerateMatrix):
            solve_unique(m, u)
    else:
        assert solve_unique(m, u) == expected


@given(square_int)
@settings(max_examples=150, deadline=None)
def test_adjugate_matches_gauss_jordan(rows):
    n = len(rows)
    cols = [fraction_solve(rows, [int(i == j) for i in range(n)]) for j in range(n)]
    if cols[0] is None:
        with pytest.raises(DegenerateMatrix):
            xm.adjugate(rows)
        return
    det = det_cofactor(rows)
    # adj M = det M * M^-1, column by column
    expected = [[det * cols[j][i] for j in range(n)] for i in range(n)]
    assert xm.adjugate(rows) == (expected, det)


def test_adjugate_refuses_non_square():
    with pytest.raises(DegenerateMatrix):
        xm.adjugate([(1, 2, 3), (4, 5, 6)])


@given(st.one_of(square_int, unimodular()))
@settings(max_examples=150, deadline=None)
def test_unimodular_inverse_matches_gauss_jordan(rows):
    n = len(rows)
    cols = [fraction_solve(rows, [int(i == j) for i in range(n)]) for j in range(n)]
    m = xm.IntMatrix.from_rows(rows)
    if cols[0] is None or any(c.denominator != 1 for col in cols for c in col):
        with pytest.raises(DegenerateMatrix):
            xm.unimodular_inverse(m)
    else:
        assert xm.unimodular_inverse(m) == xm.IntMatrix.from_columns(cols)


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=5),
            st.tuples(*[st.integers(-4, 4)] * n),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_lp_min_sum_matches_fraction_basic_solutions(case):
    gens, u = case
    if all(c == 0 for c in u):
        assert lp_min_sum(gens, u) == 0
    else:
        assert lp_min_sum(gens, u) == fraction_lp_min_sum(gens, u)


def fraction_vertices(ineqs, d):
    """Vertices of {y : a.y <= b} by Gauss-Jordan solves over all d-subsets."""
    vertices = set()
    for subset in itertools.combinations(ineqs, d):
        sol = fraction_solve([a for a, _ in subset], [b for _, b in subset])
        if sol is not None and all(sum(c * y for c, y in zip(a, sol)) <= b
                                   for a, b in ineqs):
            vertices.add(sol)
    return sorted(vertices)


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.tuples(st.tuples(*[st.integers(-3, 3)] * d), st.integers(-4, 4)),
            min_size=1,
            max_size=6,
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_vertices_from_inequalities_match_gauss_jordan(ineqs):
    d = len(ineqs[0][0])
    assert dc._vertices_from_inequalities(ineqs, d) == fraction_vertices(ineqs, d)
