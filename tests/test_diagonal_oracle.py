"""The thin n-point path against the Newton polyhedron it no longer builds.

`DiagonalSimplex.from_matrix` reads det M and the facet denominator D off one
adjugate. Here both are recomputed the slow way: the determinant by its own
elimination, D and the normalized volume from `polytope.build`, and D once
more as the lcm of the denominators of the solution e of e*M = (1,...,1).
The away-facet test of `check_indecomposable_equality`, read off the group
table's norms, is compared with the bounding-box scan of the hull it replaced.
"""

from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npoly import catalog
from npoly import diagonal as dg
from npoly import exactmath as xm
from npoly import polytope as pt
from npoly.errors import DegenerateMatrix, NotIndecomposable
from oracles import check_indecomposable_equality, solve_unique

N_POINT_FAMILIES = [
    ("monomial", {"d": 1}),
    ("monomial", {"d": 12}),
    ("five_dim", {}),
    ("extend_dim", {"n": 6}),
    ("extend_dim", {"n": 7}),
    ("four_dim", {"D": 2, "k": 2}),
    ("four_dim", {"D": 2, "k": 3}),
    ("four_dim", {"D": 3, "k": 2}),
]


def nonsingular_matrices(max_n):
    """Nonsingular n x n matrices, n = 1..max_n, with entries in [-4, 4]."""
    return (
        st.integers(min_value=1, max_value=max_n)
        .flatmap(lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        ))
        .map(xm.IntMatrix.from_rows)
        .filter(lambda m: xm.determinant(m) != 0)
    )


nonsingular = nonsingular_matrices(4)


def assert_matches_slow_path(matrix):
    ds = dg.DiagonalSimplex.from_matrix(matrix)
    poly = pt.build(pt.Support(matrix.rows, tuple(matrix.columns())))
    assert ds.det == xm.determinant(matrix)
    assert ds.denominator == poly.denominator
    assert abs(ds.det) == poly.normalized_volume
    e = solve_unique(matrix.transpose(), (1,) * matrix.rows)
    assert all((c * ds.largest_invariant_factor).denominator == 1 for c in e)
    assert ds.denominator == lcm(*(c.denominator for c in e))
    rel = dg.denominator_divides(ds)
    assert rel.denominator == ds.denominator and rel.divides


@given(nonsingular)
@settings(max_examples=200, deadline=None)
def test_random_matrices_match_the_polyhedron(matrix):
    assert_matches_slow_path(matrix)


def _indecomposable_outcome(check, ds):
    try:
        return check(ds)
    except NotIndecomposable as exc:
        return NotIndecomposable, str(exc)


@given(nonsingular_matrices(3))
@settings(max_examples=200, deadline=None)
def test_away_facet_test_matches_the_box_scan(matrix):
    ds = dg.DiagonalSimplex.from_matrix(matrix)
    assert (_indecomposable_outcome(dg.check_indecomposable_equality, ds)
            == _indecomposable_outcome(check_indecomposable_equality, ds))


@pytest.mark.parametrize(
    "name,params", N_POINT_FAMILIES, ids=[f"{n}-{p}" for n, p in N_POINT_FAMILIES]
)
def test_catalog_families_match_the_polyhedron(name, params):
    support = catalog.make(name, params).support
    assert_matches_slow_path(xm.IntMatrix.from_columns(support.points))


@pytest.mark.parametrize("rows,message", [
    ([[1, 2], [2, 4]], "vertex matrix is singular"),
    ([[0, 0, 1], [0, 0, 2], [1, 1, 0]], "vertex matrix is singular"),
    ([[0]], "vertex matrix is singular"),
    ([[1, 2, 3], [4, 5, 6]], "vertex matrix must be square"),
])
def test_degenerate_matrices_keep_their_messages(rows, message):
    with pytest.raises(DegenerateMatrix) as info:
        dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_rows(rows))
    assert str(info.value) == message
