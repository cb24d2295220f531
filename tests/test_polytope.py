"""Unit tests for polyhedron construction, weights, and Hodge data."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npoly import catalog
from npoly import exactmath as xm
from npoly import polytope as pt
from npoly.errors import (
    DegenerateInput,
    IncomparablePolygons,
    NotFullDimensional,
)
from oracles import in_hull, lp_min_sum, normalized_volume

KLOOSTERMAN_2 = pt.Support(2, ((1, 0), (0, 1), (-1, -1)))

# normalized volume 194, but a weight table of 3*D + 1 = 569,423,674 rows
HUGE_TABLE = pt.Support(3, ((-1, -2, 3), (-1, 3, -1), (2, -3, -3), (2, 0, 1), (3, 3, 2)))

FIVE_DIM_COLUMNS = tuple(
    xm.IntMatrix.from_rows(
        [
            [1, 1, 1, 1, 1],
            [0, 0, 1, 1, 1],
            [0, 1, 0, 1, 1],
            [0, 1, 1, 0, 1],
            [0, 1, 1, 1, 0],
        ]
    ).columns()
)


@pytest.fixture(scope="module")
def five_dim_poly():
    return pt.build(pt.Support(5, FIVE_DIM_COLUMNS))


class TestSupport:
    def test_rejects_origin_point(self):
        with pytest.raises(DegenerateInput):
            pt.Support(2, ((0, 0), (1, 0)))

    def test_rejects_duplicates(self):
        with pytest.raises(DegenerateInput):
            pt.Support(2, ((1, 0), (1, 0)))

    def test_rejects_lower_dimensional(self):
        with pytest.raises(NotFullDimensional):
            pt.Support(2, ((1, 0), (2, 0)))


class TestBuild:
    def test_one_dim_monomial(self):
        poly = pt.build(pt.Support(1, ((5,),)))
        assert len(poly.facets_away_from_origin) == 1
        assert poly.facets_away_from_origin[0].normal == (Fraction(1, 5),)
        assert poly.denominator == 5

    def test_kloosterman(self):
        poly = pt.build(KLOOSTERMAN_2)
        assert len(poly.facets_away_from_origin) == 3
        assert poly.denominator == 1
        assert poly.normalized_volume == 3

    def test_bi_kloosterman_unit(self):
        support = pt.Support(
            2, ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1), (1, 1))
        )
        poly = pt.build(support)
        assert len(poly.facets_away_from_origin) == 2**2 + 2 * 2 - 2
        assert poly.denominator == 1

    def test_five_dim(self, five_dim_poly):
        assert len(five_dim_poly.facets_away_from_origin) == 1
        assert five_dim_poly.denominator == 1
        assert five_dim_poly.normalized_volume == 3

    def test_volume_is_computed_on_first_read_only(self, monkeypatch):
        volumes = []
        collapse = pt._greedy_collapse
        monkeypatch.setattr(pt, "_greedy_collapse",
                            lambda p, n: volumes.append(p) or collapse(p, n))
        poly = pt.build(KLOOSTERMAN_2)
        assert volumes == []
        assert poly.normalized_volume == 3
        assert len(volumes) == len(poly.facets_away_from_origin)
        assert poly.normalized_volume == 3
        assert len(volumes) == len(poly.facets_away_from_origin)


@st.composite
def small_supports(draw):
    """Supports of 1 to 4 dimensions; with nonnegative coordinates the
    origin is a vertex of the hull."""
    n = draw(st.integers(1, 4))
    lo = draw(st.sampled_from([-2, 0]))
    coords = st.tuples(*[st.integers(lo, 2)] * n).filter(any)
    pts = draw(st.lists(coords, min_size=n, max_size=n + 4, unique=True))
    assume(xm.rational_rank(pts) == n)
    return pt.Support(n, tuple(pts))


class TestVolumeAgainstPulling:
    """The volume from the collapse of each facet's vertices against the
    pulling triangulation of the whole hull."""

    @given(small_supports())
    @settings(max_examples=150, deadline=None)
    def test_random_supports(self, support):
        hull = list(support.points) + [(0,) * support.dim]
        assert pt.build(support).normalized_volume == normalized_volume(hull)

    @pytest.mark.parametrize("name,params", [
        ("box", {"dims": [2, 1, 2]}),
        ("box", {"dims": [3, 1, 3]}),
        ("box", {"dims": [2, 2, 2]}),
        ("box", {"dims": [4, 4, 4]}),
        ("box", {"dims": [3, 3]}),
        ("dilated_simplex", {"n": 3, "d": 3, "D": 1}),
        ("dilated_simplex", {"n": 2, "d": 4, "D": 3}),
    ], ids=str)
    def test_lattice_rich_families(self, name, params):
        support = catalog.make(name, params).support
        hull = list(support.points) + [(0,) * support.dim]
        assert pt.build(support).normalized_volume == normalized_volume(hull)


class TestWeight:
    def test_origin(self):
        assert pt.build(KLOOSTERMAN_2).weight((0, 0)) == 0

    def test_five_dim_fundamental_points(self, five_dim_poly):
        assert five_dim_poly.weight((2, 1, 1, 1, 1)) == 2
        assert five_dim_poly.weight((3, 2, 2, 2, 2)) == 3

    def test_outside_cone_is_infinite(self):
        poly = pt.build(pt.Support(1, ((4,),)))
        assert poly.weight((-1,)) is None

    def test_facet_formula_matches_lp(self):
        poly = pt.build(KLOOSTERMAN_2)
        for x in range(-4, 5):
            for y in range(-4, 5):
                facet_value = poly.weight((x, y))
                lp_value = lp_min_sum(KLOOSTERMAN_2.points, (x, y))
                assert facet_value == lp_value


class TestHodge:
    def test_unit_simplex(self):
        poly = pt.build(pt.Support(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        data = poly.hodge_data()
        assert {k: v for k, v in data.H.items() if v} == {0: 1}
        assert data.polygon.vertices == ((0, 0), (1, 0))

    def test_five_dim_counts(self, five_dim_poly):
        data = five_dim_poly.hodge_data()
        assert {k: v for k, v in data.H.items() if v} == {0: 1, 2: 1, 3: 1}
        assert data.polygon.vertices == ((0, 0), (1, 0), (2, 2), (3, 5))

    def test_segment(self):
        poly = pt.build(pt.Support(1, ((3,),)))
        data = poly.hodge_data()
        assert {k: v for k, v in data.H.items() if v} == {0: 1, 1: 1, 2: 1}
        assert data.polygon.slopes == (0, Fraction(1, 3), Fraction(2, 3))

    def test_sum_matches_volume(self):
        support = pt.Support(2, ((2, 1), (1, 3)))
        poly = pt.build(support)
        det = abs(xm.determinant(xm.IntMatrix.from_columns(support.points)))
        assert sum(poly.hodge_data().H.values()) == det == poly.normalized_volume

    def test_wrong_volume_is_caught(self):
        poly = pt.build(KLOOSTERMAN_2)
        poly.normalized_volume = 4  # in place of the true volume 3
        with pytest.raises(AssertionError, match="normalized volume"):
            poly.hodge_data()

    def test_oversized_table_refused_before_allocation(self):
        poly = pt.build(HUGE_TABLE)
        assert poly.dim * poly.denominator + 1 == 569_423_674
        assert poly.normalized_volume == 194
        with pytest.raises(DegenerateInput, match="569423674 rows is too large at stage hodge"):
            poly.hodge_data()

    def test_denominator_attained(self):
        # some lattice point has weight with the full denominator
        poly = pt.build(pt.Support(1, ((4,),)))
        weights = [poly.weight((k,)) for k in range(5)]
        assert any(w.denominator == poly.denominator for w in weights if w)


class TestCofacial:
    def test_same_ray(self):
        poly = pt.build(KLOOSTERMAN_2)
        assert poly.cofacial((1, 0), (2, 0)) is True

    def test_shared_facet(self):
        poly = pt.build(KLOOSTERMAN_2)
        assert poly.cofacial((1, 0), (0, 1)) is True

    def test_not_cofacial(self):
        # (1,0) meets facets x+y=1 and x-2y=1; (-2,1) only -2x+y=1
        poly = pt.build(KLOOSTERMAN_2)
        assert poly.cofacial((1, 0), (-2, 1)) is False
        w1 = poly.weight((1, 0))
        w2 = poly.weight((-2, 1))
        assert poly.weight((-1, 1)) < w1 + w2

    def test_rejects_origin(self):
        poly = pt.build(KLOOSTERMAN_2)
        with pytest.raises(DegenerateInput):
            poly.cofacial((0, 0), (1, 0))

    def test_rejects_outside_cone(self):
        poly = pt.build(pt.Support(1, ((2,),)))
        with pytest.raises(DegenerateInput):
            poly.cofacial((-1,), (1,))


class TestLowerPolygon:
    def test_slope_vertex_round_trip(self):
        poly = pt.LowerPolygon.from_slopes([0, Fraction(1, 2), Fraction(1, 2), 2])
        again = pt.LowerPolygon.from_vertices(poly.vertices)
        assert again == poly

    def test_rejects_decreasing(self):
        with pytest.raises(DegenerateInput):
            pt.LowerPolygon((Fraction(1), Fraction(0)))
        with pytest.raises(DegenerateInput, match="non-decreasing"):
            pt.LowerPolygon.from_runs([(Fraction(1, 2), 1), (Fraction(1, 3), 2)])
        with pytest.raises(DegenerateInput, match="non-decreasing"):
            pt.LowerPolygon._from_scaled(6, [(3, 1), (2, 2)])

    def test_rejects_negative_multiplicity_in_order(self):
        with pytest.raises(DegenerateInput, match="non-negative"):
            pt.LowerPolygon.from_runs([(0, 1), (Fraction(1, 2), -1)])
        with pytest.raises(DegenerateInput, match="non-decreasing"):
            pt.LowerPolygon.from_runs([(1, 1), (0, 1), (2, -1)])
        with pytest.raises(DegenerateInput, match="non-negative"):
            pt.LowerPolygon._from_scaled(2, [(1, -1)])

    def test_integer_runs(self):
        poly = pt.LowerPolygon.from_runs(
            [(0, 0), (Fraction(1, 3), 2), (Fraction(2, 3), 0), (Fraction(1, 2), 1)])
        assert (poly.scale, poly.steps) == (6, ((2, 2), (3, 1)))
        assert poly.runs == ((Fraction(1, 3), 2), (Fraction(1, 2), 1))
        assert pt.LowerPolygon._from_scaled(12, [(4, 1), (4, 1), (6, 1)]) == poly
        assert (pt.LowerPolygon().scale, pt.LowerPolygon().steps) == (1, ())
        assert pt.LowerPolygon._from_scaled(5, []) == pt.LowerPolygon()

    def test_vertices_merge_collinear(self):
        poly = pt.LowerPolygon.from_slopes([1, 1, 1])
        assert poly.vertices == ((0, 0), (3, 3))


class TestLiesAbove:
    def test_self_comparison(self):
        poly = pt.LowerPolygon.from_slopes([0, 2, 3])
        cmp = pt.lies_above(poly, poly)
        assert cmp.status is pt.Dominance.ABOVE
        assert cmp.endpoints_coincide

    def test_strictly_above(self):
        upper = pt.LowerPolygon.from_slopes([0, Fraction(5, 2), Fraction(5, 2)])
        lower = pt.LowerPolygon.from_slopes([0, 2, 3])
        cmp = pt.lies_above(upper, lower)
        assert cmp.status is pt.Dominance.ABOVE_STRICT_SOMEWHERE
        assert cmp.endpoints_coincide

    def test_violation_with_witness(self):
        upper = pt.LowerPolygon.from_slopes([0, 1, 1])
        lower = pt.LowerPolygon.from_slopes([0, 2, 3])
        cmp = pt.lies_above(upper, lower)
        assert cmp.status is pt.Dominance.VIOLATION
        assert cmp.witness is not None
        k, a, b = cmp.witness
        assert a < b

    def test_mismatched_lengths(self):
        with pytest.raises(IncomparablePolygons):
            pt.lies_above(
                pt.LowerPolygon.from_slopes([0]), pt.LowerPolygon.from_slopes([0, 1])
            )


class TestGeometryToolkit:
    def test_triangulate_volume_square(self):
        square = [(0, 0), (2, 0), (0, 2), (2, 2)]
        assert normalized_volume(square) == 8

    def test_hull_lattice_points(self):
        triangle = [(0, 0), (2, 0), (0, 2)]
        points = pt.hull_lattice_points(triangle)
        assert len(points) == 6

    def test_interior_lattice_points(self):
        triangle = [(0, 0), (3, 0), (0, 3)]
        assert pt.interior_lattice_points(triangle) == [(1, 1)]

    def test_affine_chart_preserves_volume(self):
        # triangle at height 1 in 3-space has the same normalized area in its chart
        pts = [(0, 0, 1), (2, 0, 1), (0, 2, 1)]
        chart = pt.AffineChart(pts)
        local = [chart.to_local(p) for p in pts]
        assert normalized_volume(local) == 4
        assert [chart.from_local(q) for q in local] == pts

    def test_in_hull(self):
        triangle = [(0, 0), (2, 0), (0, 2)]
        assert in_hull(triangle, (1, 1))
        assert not in_hull(triangle, (2, 1))
