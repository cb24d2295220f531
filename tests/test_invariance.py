"""Answers belong to the lattice polytope, not to its coordinates.

A unimodular change of basis x -> Ux, U in GL_n(Z), together with a
reordering of the support, must leave every invariant below unchanged.
Left out by design, because a choice rule or an enumeration order picks
them: the first-lex and max-invariant-factor D*, `certificate_modulus`,
witnesses, piece lists, choice logs and the order of the faces.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npoly import catalog
from npoly import decompose as dc
from npoly import diagonal as dg
from npoly import exactmath as xm
from npoly import polytope as pt
from npoly.errors import NotCoprime, NpolyError
from npoly.primes import primes_below


def answers(n, points):
    support = pt.Support(n, tuple(points))
    poly = pt.build(support)
    data = poly.hodge_data()
    verdicts = []
    for p in primes_below(20):
        try:
            verdicts.append(dc.ordinary_via_faces(support, p).status)
        except NotCoprime:
            verdicts.append("not coprime")
    out = {
        "volume": poly.normalized_volume,
        "D": poly.denominator,
        "facet denominators": sorted(f.b for f in poly.facets_away_from_origin),
        "W": data.W,
        "H": data.H,
        "hodge polygon": data.polygon,
        "facial verdicts": verdicts,
        "exhaustive dstar": sorted(
            c.dstar for _, c in dc.facial_collapse(support, "exhaustive-min-dstar")),
    }
    if len(points) == n:
        ds = dg.DiagonalSimplex.from_support(support)
        coprime = [p for p in primes_below(20) if ds.group_order % p]
        out.update({
            "|det|": abs(ds.det),
            "invariant factors": ds.invariant_factors,
            "hodge counts": dg.hodge_counts_diag(ds),
            "ordinary classes": dg.ordinary_residues(ds).classes,
            "orbit slopes": [sorted((o.slope, o.degree) for o in dg.orbits(ds, p))
                             for p in coprime],
            "newton polygons": [dg.newton_polygon_diag(ds, p) for p in coprime],
            "verdicts": [dg.is_ordinary(ds, p).ordinary for p in coprime],
        })
    return out


def facets(n, points):
    poly = pt.build(pt.Support(n, tuple(points)))
    return {(f.a, f.b): f.vertex_indices for f in poly.facets_away_from_origin}


def move(u, points):
    return [tuple(sum(a * x for a, x in zip(row, q)) for row in u) for q in points]


@st.composite
def unimodular(draw, n):
    """Three elementary +-1 row operations, a row shuffle and a sign."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = draw(st.permutations(range(n)))[:2]
        s = draw(st.sampled_from([-1, 1]))
        rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
    rows = [rows[k] for k in draw(st.permutations(range(n)))]
    k, s = draw(st.integers(0, n - 1)), draw(st.sampled_from([-1, 1]))
    rows[k] = [s * a for a in rows[k]]
    return rows


@st.composite
def moved_supports(draw):
    n = draw(st.integers(2, 3))
    point = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    points = draw(st.lists(point, min_size=n, max_size=n + 3, unique=True))
    u = draw(unimodular(n))
    order = draw(st.permutations(range(len(points))))
    return n, points, u, order, move(u, [points[k] for k in order])


@given(moved_supports())
@settings(max_examples=250, deadline=None)
def test_answers_do_not_depend_on_coordinates(case):
    n, points, u, order, moved = case
    assert abs(xm.determinant(xm.IntMatrix.from_rows(u))) == 1
    try:
        support = pt.Support(n, tuple(points))
    except NpolyError:
        assume(False)
    # the Hodge table has n*D + 1 rows; a large D only costs time here
    assume(pt.build(support).denominator <= 1000)
    assert answers(n, moved) == answers(n, points)
    # a facet a.x <= b of the support is the facet (a U^-1).x <= b of the
    # moved one, and point k of the moved support is point order[k]
    adj, det = xm.adjugate(u)
    assert facets(n, moved) == {
        (tuple(det * sum(a[i] * adj[i][j] for i in range(n)) for j in range(n)), b):
        tuple(sorted(order.index(i) for i in indices))
        for (a, b), indices in facets(n, points).items()}


FIXED_U = {2: [[2, 1], [1, 1]], 3: [[1, 1, 0], [0, 1, 1], [1, 1, 1]]}


@pytest.mark.parametrize("name,params", [
    ("kloosterman", {"n": 2}),
    ("kloosterman", {"n": 3}),
    ("generalized_kloosterman", {"n": 2, "v": [2, 3]}),
    ("two_sided", {"n": 2, "u": [2, 1], "v": [1, 3]}),
    ("inverted", {"n": 3, "v": [1, 1, 2]}),
    ("bi_kloosterman", {"n": 2, "u": [1, 2], "v": [2, 1]}),
    ("box", {"dims": [2, 1]}),
    ("dilated_simplex", {"n": 2, "d": 2, "D": 2}),
])
def test_catalog_answers_under_a_fixed_change_of_basis(name, params):
    support = catalog.make(name, params).support
    points = list(support.points)
    moved = move(FIXED_U[support.dim], points[::-1])
    assert answers(support.dim, moved) == answers(support.dim, points)
