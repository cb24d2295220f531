"""Unit tests for the group construction, orbit slopes, and ordinariness."""

from fractions import Fraction

import pytest

from npoly import diagonal as dg
from npoly import exactmath as xm
from npoly import polytope as pt
from npoly.errors import (
    DegenerateInput,
    NotCoprime,
    NotIndecomposable,
)
from npoly.primes import primes_below
from oracles import coordinates, norm, slope_from_digit_sums, stickelberger_ord

FIVE_DIM = xm.IntMatrix.from_rows(
    [
        [1, 1, 1, 1, 1],
        [0, 0, 1, 1, 1],
        [0, 1, 0, 1, 1],
        [0, 1, 1, 0, 1],
        [0, 1, 1, 1, 0],
    ]
)


def four_dim_matrix(big_d, k):
    return xm.IntMatrix.from_rows(
        [
            [big_d, big_d, big_d, big_d],
            [0, 1, 1, 0],
            [0, 0, 1, -1],
            [0, 0, 0, big_d**k],
        ]
    )


def monomial(d):
    return dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_rows([[d]]))


@pytest.fixture(scope="module")
def five_dim():
    return dg.DiagonalSimplex.from_matrix(FIVE_DIM)


class TestGroupElements:
    def test_unimodular_is_trivial(self):
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.identity(3))
        assert len(ds.group) == 1
        assert norm(ds.group[0]) == 0

    def test_five_dim_elements(self, five_dim):
        rs = [coordinates(e) for e in five_dim.group]
        assert rs == [
            (0, 0, 0, 0, 0),
            (Fraction(2, 3),) + (Fraction(1, 3),) * 4,
            (Fraction(1, 3),) + (Fraction(2, 3),) * 4,
        ]
        assert [norm(e) for e in five_dim.group] == [0, 2, 3]

    @pytest.mark.parametrize("big_d,k", [(2, 2), (3, 2)])
    def test_four_dim_parametrization(self, big_d, k):
        """Group elements must match the independent two-index description."""
        ds = dg.DiagonalSimplex.from_matrix(four_dim_matrix(big_d, k))
        dk = big_d**k
        expected = set()
        for j1 in range(dk):
            for j4 in range(dk):
                if (j1 + j4) % (big_d ** (k - 1)) != 0:
                    continue
                expected.add(
                    (
                        Fraction(j1, dk),
                        Fraction(dk - j4, dk) % 1,
                        Fraction(j4, dk),
                        Fraction(j4, dk),
                    )
                )
        assert {coordinates(e) for e in ds.group} == expected
        assert len(ds.group) == big_d ** (k + 1)

    def test_four_dim_small_weights(self):
        # exactly D elements of norm < 1, and the next norm is 1 + 1/D
        big_d, k = 2, 2
        ds = dg.DiagonalSimplex.from_matrix(four_dim_matrix(big_d, k))
        norms = [norm(e) for e in ds.group]
        small = sorted(x for x in norms if x < 1)
        assert len(small) == big_d
        above = min(x for x in norms if x >= 1)
        assert above == 1 + Fraction(1, big_d)

    def test_norm_equals_weight_of_image(self, five_dim):
        for e in five_dim.group:
            u = five_dim.matrix.mul_vector(coordinates(e))
            assert all(c.denominator == 1 for c in u)
            assert five_dim.polyhedron.weight([int(c) for c in u]) == norm(e)

    def test_closure_check_catches_a_foreign_smith_form(self):
        # diag(2, 3) and diag(6, 1) share |det| = 6 and the invariant
        # factors (1, 6), but not their solutions of M*r = 0 (mod 1)
        matrix = xm.IntMatrix.from_rows([[2, 0], [0, 3]])
        honest = dg.DiagonalSimplex.from_matrix(matrix)
        foreign = dg.DiagonalSimplex(
            matrix=matrix,
            snf=xm.snf(xm.IntMatrix.from_rows([[6, 0], [0, 1]])),
            denominator=honest.denominator,
            det=honest.det,
        )
        assert len(honest.group) == 6
        with pytest.raises(AssertionError):
            foreign.group

    def test_huge_group_refused_before_enumeration(self):
        ds = monomial(10**30)
        with pytest.raises(DegenerateInput, match="too large at stage group"):
            ds.group
        with pytest.raises(DegenerateInput, match="at stage ordinary_residues"):
            dg.ordinary_residues(ds)

    def test_order_divides_largest_factor(self, five_dim):
        for e in five_dim.group:
            assert five_dim.largest_invariant_factor % e.order == 0


class TestActions:
    """The one-element action is the table's index map, m*a_k = a_image(k, m)."""

    def test_zero_fixed(self, five_dim):
        table = five_dim._table
        zero = table.vectors.index((0,) * 5)
        assert table.image(zero, 17) == zero

    def test_five_dim_swap(self, five_dim):
        table = five_dim._table
        a, b = (table.vectors.index(e.a) for e in five_dim.group[1:])
        assert table.image(a, 2) == b
        assert table.image(b, 2) == a

    def test_identity_action(self, five_dim):
        table = five_dim._table
        for k, a in enumerate(table.vectors):
            order = dg.GroupElement(a, table.modulus).order
            assert table.image(k, 1 + order) == k

    def test_rejects_non_coprime(self, five_dim):
        with pytest.raises(NotCoprime):
            dg.m_degree(five_dim.group[1], 3)

    def test_m_degree(self, five_dim):
        zero, a = five_dim.group[0], five_dim.group[1]
        assert dg.m_degree(zero, 5) == 1
        assert dg.m_degree(a, 2) == 2
        assert dg.m_degree(a, 4) == 1


class TestOrbits:
    def test_unimodular_single_orbit(self):
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.identity(2))
        orbs = dg.orbits(ds, 7)
        assert len(orbs) == 1 and orbs[0].degree == 1

    def test_five_dim_residue_two(self, five_dim):
        orbs = dg.orbits(five_dim, 5)
        assert sorted(o.degree for o in orbs) == [1, 2]
        cycle = next(o for o in orbs if o.degree == 2)
        assert cycle.slope == Fraction(5, 2)
        a = cycle.representative.a
        assert Fraction(sum(a) + sum(5 * x % 3 for x in a), 3 * 2) == Fraction(5, 2)

    def test_five_dim_residue_one(self, five_dim):
        orbs = dg.orbits(five_dim, 7)
        assert [o.degree for o in orbs] == [1, 1, 1]

    def test_degrees_sum_to_group_order(self, five_dim):
        for p in (5, 7, 11, 13):
            assert sum(o.degree for o in dg.orbits(five_dim, p)) == 3

    def test_rejects_non_coprime(self, five_dim):
        with pytest.raises(NotCoprime):
            dg.orbits(five_dim, 3)


class TestElementsBuilt:
    """The p-action walks table indices: `orbits` builds one `GroupElement` per
    orbit, its representative, and `is_ordinary` at most one, its witness."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        element = dg.GroupElement

        def counted(*args):
            built.append(args)
            return element(*args)

        monkeypatch.setattr(dg, "GroupElement", counted)
        return built

    def test_one_per_orbit(self, built):
        ds = dg.DiagonalSimplex.from_matrix(four_dim_matrix(3, 2))
        assert ds._table and not built
        orbs = dg.orbits(ds, 5)
        assert (len(orbs), ds.group_order) == (8, 27)
        assert len(built) == len(orbs)

    def test_at_most_one_per_verdict(self, built):
        ds = dg.DiagonalSimplex.from_matrix(four_dim_matrix(3, 2))
        assert not dg.is_ordinary(ds, 5).ordinary
        assert len(built) == 1
        assert dg.is_ordinary(ds, 19).ordinary
        assert len(built) == 1


class TestDigitSums:
    def test_zero(self):
        assert stickelberger_ord(0, 5) == 0

    def test_single_top_digit(self):
        for p in (3, 7, 31):
            assert stickelberger_ord(p - 1, p) == 1

    def test_range_check(self):
        with pytest.raises(DegenerateInput):
            stickelberger_ord(-1, 5)
        with pytest.raises(DegenerateInput):
            stickelberger_ord(24, 5, q=25)

    def test_five_dim_cycle_slope(self, five_dim):
        # the 2-cycle at residue 2 mod 3: both digit-sum and orbit walks give 5/2
        a = five_dim.group[1]
        assert slope_from_digit_sums(a, 5) == Fraction(5, 2)

    def test_monomial_fixed_point_slope(self):
        ds = monomial(4)
        for e in ds.group:
            assert slope_from_digit_sums(e, 5) == norm(e)


class TestNewtonPolygon:
    def test_unimodular(self):
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.identity(2))
        assert dg.newton_polygon_diag(ds, 5).slopes == (0,)

    def test_five_dim_both_residues(self, five_dim):
        assert dg.newton_polygon_diag(five_dim, 5).slopes == (
            0,
            Fraction(5, 2),
            Fraction(5, 2),
        )
        assert dg.newton_polygon_diag(five_dim, 7).slopes == (0, 2, 3)

    def test_five_dim_hodge_comparison(self, five_dim):
        hp = dg.hodge_polygon_diag(five_dim)
        assert hp.slopes == (0, 2, 3)
        cmp5 = pt.lies_above(dg.newton_polygon_diag(five_dim, 5), hp)
        assert cmp5.status is pt.Dominance.ABOVE_STRICT_SOMEWHERE
        assert cmp5.endpoints_coincide
        cmp7 = pt.lies_above(dg.newton_polygon_diag(five_dim, 7), hp)
        assert cmp7.status is pt.Dominance.ABOVE

    def test_hodge_routes_agree(self, five_dim):
        # group-norm route equals the box-enumeration route
        box_poly = five_dim.polyhedron.hodge_polygon()
        assert dg.hodge_polygon_diag(five_dim) == box_poly


class TestOrdinary:
    def test_monomial_criterion(self):
        ds = monomial(5)
        for p in primes_below(60):
            if p == 5:
                continue
            assert dg.is_ordinary(ds, p).ordinary == (p % 5 == 1)

    def test_five_dim_witness(self, five_dim):
        verdict = dg.is_ordinary(five_dim, 5)
        assert not verdict.ordinary
        assert coordinates(verdict.witness) == (Fraction(2, 3),) + (Fraction(1, 3),) * 4

    def test_matches_polygon_comparison(self, five_dim):
        hp = dg.hodge_polygon_diag(five_dim)
        for p in (5, 7, 11, 13, 17, 19):
            np_poly = dg.newton_polygon_diag(five_dim, p)
            cmp = pt.lies_above(np_poly, hp)
            assert dg.is_ordinary(five_dim, p).ordinary == (
                cmp.status is pt.Dominance.ABOVE
            )


class TestOrdinaryResidues:
    def test_unimodular(self):
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.identity(2))
        res = dg.ordinary_residues(ds)
        assert res.classes == (1,) and res.mu == 1

    def test_monomial(self):
        res = dg.ordinary_residues(monomial(6))
        assert res.modulus == 6
        assert res.classes == (1,)

    def test_five_dim(self, five_dim):
        res = dg.ordinary_residues(five_dim)
        assert res.modulus == 3 and res.classes == (1,) and res.mu == 1

    def test_determines_primes(self, five_dim):
        res = dg.ordinary_residues(five_dim)
        for p in primes_below(40):
            if p == 3:
                continue
            assert dg.is_ordinary(five_dim, p).ordinary == (p % 3 in res.classes)


class TestDenominatorRelation:
    def test_unit_simplex(self):
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.identity(2))
        rel = dg.denominator_divides(ds)
        assert rel.denominator == 1 and rel.largest_invariant_factor == 1
        assert rel.divides

    def test_skew_segment(self):
        # columns (d, 1-d) and (0, 1): denominator 1 but largest factor d
        d = 5
        ds = dg.DiagonalSimplex.from_matrix(
            xm.IntMatrix.from_columns([(d, 1 - d), (0, 1)])
        )
        rel = dg.denominator_divides(ds)
        assert rel.denominator == 1
        assert rel.largest_invariant_factor == d
        assert rel.divides

    @pytest.mark.parametrize("big_d,k", [(2, 2), (3, 2), (2, 3)])
    def test_four_dim_family(self, big_d, k):
        ds = dg.DiagonalSimplex.from_matrix(four_dim_matrix(big_d, k))
        rel = dg.denominator_divides(ds)
        assert rel.denominator == big_d
        assert rel.largest_invariant_factor == big_d**k
        assert rel.divides


class TestIndecomposableEquality:
    def test_segment(self):
        assert dg.check_indecomposable_equality(monomial(4)) is True

    def test_two_dim_adjacent_heights(self):
        # vertices (D, v), (D, v+1): determinant has absolute value D
        big_d, v = 4, 3
        m = xm.IntMatrix.from_columns([(big_d, v), (big_d, v + 1)])
        assert abs(xm.determinant(m)) == big_d
        ds = dg.DiagonalSimplex.from_matrix(m)
        assert dg.check_indecomposable_equality(ds) is True

    def test_rejects_high_dimension(self):
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.identity(4))
        with pytest.raises(DegenerateInput):
            dg.check_indecomposable_equality(ds)

    def test_rejects_decomposable(self):
        # segment [0,2] x {1}-style face with a midpoint: columns (2,0),(0,2)
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_columns([(2, 0), (0, 2)]))
        with pytest.raises(NotIndecomposable):
            dg.check_indecomposable_equality(ds)

    def test_small_three_dim_sweep(self):
        import random

        from npoly.errors import NpolyError

        rng = random.Random(23)
        seen = 0
        while seen < 25:
            cols = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(3)]
            m = xm.IntMatrix.from_columns(cols)
            try:
                ds = dg.DiagonalSimplex.from_matrix(m)
                verdict = dg.check_indecomposable_equality(ds)
            except NpolyError:
                continue
            assert verdict is True
            seen += 1
