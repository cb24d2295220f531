"""The double-description extreme-ray enumerator against the subset sweep.

`sweep_extreme_rays` (tests/oracles.py) reads every (N-1)-row subset's
kernel; `polytope._extreme_rays` inserts one row at a time. On rows of rank
N, repeated and zero rows included, both must give the same sorted
primitive rays, and each ray's mask must mark exactly the rows tight on
it. Rows of rank below N give None.
"""

from operator import mul

from hypothesis import example, given, settings
from hypothesis import strategies as st

from npoly import exactmath as xm
from npoly import polytope as pt
from oracles import sweep_extreme_rays


# free rows weighted up so that full-rank row sets stay common
KINDS = ["free"] * 4 + ["zero", "copy", "combination"]


@st.composite
def ray_rows(draw):
    """1-9 integer rows in Z^N, N = 2-5, free entries in [-3, 3].

    Rows after the first are drawn free, zero, as a copy of an earlier row
    or as the sum or difference of two earlier rows (entries up to 6 in
    size); in half the draws, a drawn set of up to two columns is zeroed in
    every row. So rank-deficient row sets come up often.
    """
    n = draw(st.integers(2, 5))
    entry = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(KINDS)) if rows else "free"
        if kind == "free":
            row = draw(st.tuples(*[entry] * n))
        elif kind == "zero":
            row = (0,) * n
        elif kind == "copy":
            row = draw(st.sampled_from(rows))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(st.sampled_from([-1, 1]))
            row = tuple(x + c * y for x, y in zip(a, b))
        rows.append(row)
    flat = draw(st.sets(st.integers(0, n - 1), max_size=2)) if draw(st.booleans()) else ()
    return [tuple(0 if j in flat else x for j, x in enumerate(row)) for row in rows]


# the rows (p, 1) of points p, whose rays are the facets of their hull
# (when full-dimensional), so pointed cones with many rays come up too
hull_rows = st.integers(1, 4).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=9)
).map(lambda pts: [p + (1,) for p in pts])


@given(st.one_of(ray_rows(), hull_rows))
@example([(0, 0)])
@example([(1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 1)])
@example([(1, 2, 0), (2, 4, 0), (-1, -2, 0)])
@settings(max_examples=400, deadline=None)
def test_extreme_rays_match_subset_sweep(rows):
    found = pt._extreme_rays(rows)
    if xm.rational_rank(rows) < len(rows[0]):
        assert found is None
        return
    assert [z for z, _ in found] == sweep_extreme_rays(rows)
    for z, mask in found:
        assert mask == sum(1 << i for i, g in enumerate(rows) if sum(map(mul, g, z)) == 0)
