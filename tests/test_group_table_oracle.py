"""The diagonal group's integer table against the tuple-walking oracles.

`DiagonalSimplex` keeps the group as one table indexed by Smith coordinates,
and the p-action as a map on those indices. `tests/oracles.py` keeps the
former route: sorted `GroupElement`s, acted on one tuple at a time. Every
result is compared: the group, the orbits (representatives, degrees,
slopes), the ordinariness verdict with its witness, the ordinary residue
classes and the Hodge counts. The verdict is also checked against the
polygons: the Newton polygon equals the Hodge polygon exactly when every
orbit keeps one norm, since averaging unequal norms over an orbit lowers
the sum of the squared slopes. The table itself is walked element by
element (`oracles.check_table`): the library checks only the Smith form and
its generators, so these walks guard the mixed-radix construction.

Random small matrices almost always give a cyclic group, so a second
strategy draws U*diag(d1, d2, d3)*V with U and V unimodular, whose group has
two or three nontrivial invariant factors.
"""

from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from npoly import catalog
from npoly import diagonal as dg
from npoly import exactmath as xm
from npoly.errors import BrokenInvariant

MAX_ORDER = 3000


def _bounded(matrix):
    return 0 < abs(xm.determinant(matrix)) <= MAX_ORDER


random_nonsingular = (
    st.integers(min_value=1, max_value=5)
    .flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    ))
    .map(xm.IntMatrix.from_rows)
    .filter(_bounded)
)


@st.composite
def unimodular(draw, n):
    """A product of elementary row operations applied to the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            k = draw(st.integers(-2, 2))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    return rows


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def non_cyclic(draw):
    """U*diag(1, ..., 1, d1, d2, d3)*V with d1 | d2 | d3 and 2 <= d2: two or
    three nontrivial invariant factors."""
    n = draw(st.integers(3, 4))
    d1 = draw(st.integers(1, 4))
    d2 = d1 * draw(st.integers(1 if d1 > 1 else 2, 3))
    d3 = d2 * draw(st.integers(1, 3))
    diag = [1] * (n - 3) + [d1, d2, d3]
    middle = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    rows = _product(_product(draw(unimodular(n)), middle), draw(unimodular(n)))
    return xm.IntMatrix.from_rows(rows)


def _coprime_multiplier(draw, ds):
    m = draw(st.integers(1, 10**6))
    assume(gcd(m, ds.group_order) == 1)
    return m


def assert_table_matches_oracles(ds, m):
    oracles.check_table(ds)
    assert ds.group == oracles.group(ds)
    assert len(ds.group) == ds.group_order
    assert dg.orbits(ds, m) == oracles.orbits(ds, m)
    verdict = dg.is_ordinary(ds, m)
    assert verdict == oracles.is_ordinary(ds, m)
    assert verdict.ordinary == (dg.newton_polygon_diag(ds, m) == dg.hodge_polygon_diag(ds))
    assert dg.ordinary_residues(ds) == oracles.ordinary_residues(ds)
    counts = dg.hodge_counts_diag(ds)
    assert list(counts.items()) == list(oracles.hodge_counts_diag(ds).items())
    table = ds._table
    dn = table.modulus
    images = [table.image(k, m) for k in range(len(table.vectors))]
    assert table.permutation(m) == images
    for k, a in enumerate(table.vectors):
        assert table.vectors[images[k]] == tuple(m * x % dn for x in a)


@given(random_nonsingular, st.data())
@settings(max_examples=150, deadline=None)
def test_random_matrices(matrix, data):
    ds = dg.DiagonalSimplex.from_matrix(matrix)
    assert_table_matches_oracles(ds, _coprime_multiplier(data.draw, ds))


@given(non_cyclic(), st.data())
@settings(max_examples=100, deadline=None)
def test_groups_with_several_invariant_factors(matrix, data):
    ds = dg.DiagonalSimplex.from_matrix(matrix)
    assert sum(d > 1 for d in ds.invariant_factors) >= 2
    assert_table_matches_oracles(ds, _coprime_multiplier(data.draw, ds))


def test_check_table_catches_a_smith_form_with_a_singular_q():
    # Q = [[0, 2], [1, 0]] has det -2, yet its column for d = 2 solves
    # M*r = 0 (mod 1): the library's generator check passes, and only the
    # per-element walk sees the two equal elements
    matrix = xm.IntMatrix.from_rows([[2, 0], [0, 1]])
    honest = dg.DiagonalSimplex.from_matrix(matrix)
    assert honest.invariant_factors == (1, 2)
    oracles.check_table(honest)
    forged = dg.DiagonalSimplex(
        matrix=matrix,
        snf=xm.SnfResult(honest.snf.P, xm.IntMatrix.from_rows([[0, 2], [1, 0]]), (1, 2)),
        det=honest.det,
        denominator=honest.denominator,
    )
    assert forged._table.vectors == [(0, 0), (0, 0)]
    with pytest.raises(BrokenInvariant, match="not distinct"):
        oracles.check_table(forged)


@pytest.mark.parametrize("name,params,p", [
    ("four_dim", {"D": 3, "k": 2}, 7),
    ("four_dim", {"D": 2, "k": 3}, 3),
    ("five_dim", {}, 5),
    ("five_dim", {}, 7),
    ("extend_dim", {"n": 6}, 5),
    ("monomial", {"d": 12}, 5),
])
def test_catalog_families(name, params, p):
    ds = dg.DiagonalSimplex.from_support(catalog.make(name, params).support)
    assert_table_matches_oracles(ds, p)
