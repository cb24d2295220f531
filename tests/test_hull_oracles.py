"""The extreme-ray facet sweep against independent hull routes.

`difference_facets` (tests/oracles.py) finds facets from point differences
with its own sign and dimension-1 handling; Qhull, when scipy is installed,
finds them in floating point. Floating point appears only in this file.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npoly import polytope as pt
from oracles import difference_facets


def full_dimensional(points):
    pts = list(dict.fromkeys(points))
    return pts and pt.affine_rank(pts) == len(pts[0])


point_sets = st.integers(1, 4).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(-3, 3)] * d), min_size=d + 1, max_size=d + 5
    )
).filter(full_dimensional)


@given(point_sets)
@settings(max_examples=200, deadline=None)
def test_affine_facets_match_difference_sweep(points):
    facets = pt.affine_facets(points)
    # in dimension 1 the difference route lists the two facets unsorted
    assert [(a, b) for a, b, _ in facets] == sorted(difference_facets(points))
    distinct = list(dict.fromkeys(points))
    for a, b, mask in facets:
        assert mask == sum(1 << i for i, p in enumerate(distinct) if pt._dot(a, p) == b)


def random_full_dimensional(rng, d):
    while True:
        pts = list(dict.fromkeys(
            tuple(rng.randint(-3, 3) for _ in range(d))
            for _ in range(rng.randint(d + 1, d + 5))
        ))
        if full_dimensional(pts):
            return pts


@pytest.mark.parametrize("d", [2, 3, 4])
def test_affine_facets_match_qhull_incidences(d):
    spatial = pytest.importorskip("scipy.spatial")
    np = pytest.importorskip("numpy")
    rng = random.Random(1000 + d)
    for _ in range(40):
        pts = random_full_dimensional(rng, d)
        exact = {
            frozenset(i for i, p in enumerate(pts) if pt._dot(a, p) == b)
            for a, b, _ in pt.affine_facets(pts)
        }
        # Qhull triangulates non-simplicial facets; coplanar simplices share
        # one incidence set, so collecting the sets merges them
        hull = spatial.ConvexHull(np.array(pts, dtype=float))
        distances = np.array(pts, dtype=float) @ hull.equations[:, :-1].T
        distances += hull.equations[:, -1]
        qhull = {
            frozenset(np.flatnonzero(np.abs(column) < 1e-9).tolist())
            for column in distances.T
        }
        assert exact == qhull
