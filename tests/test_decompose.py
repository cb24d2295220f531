"""Unit tests for facial, collapsing, and hyperplane decompositions."""

from fractions import Fraction
from math import lcm

import pytest

from npoly import catalog
from npoly import decompose as dc
from npoly import diagonal as dg
from npoly import exactmath as xm
from npoly import polytope as pt
from npoly.errors import DegenerateInput, NotCoprime
from npoly.primes import primes_below


def gen_kloosterman_23():
    return pt.Support(2, ((1, 0), (0, 1), (-2, -3)))


def fermat_deformed(n, d):
    """Diagonal leading terms of degree d plus a lower-order deformation."""
    points = [tuple(d * int(j == i) for j in range(n)) for i in range(n)]
    points.append(tuple([1] + [0] * (n - 1)))
    return pt.Support(n, tuple(points))


class TestFacialDecompose:
    def test_fermat_deformation_single_face(self):
        support = fermat_deformed(2, 3)
        pieces = dc.facial_decompose(support)
        assert len(pieces) == 1
        assert set(pieces[0].restricted_support) == {(3, 0), (0, 3)}
        assert pieces[0].is_diagonal

    def test_gen_kloosterman_invariant_factors(self):
        pieces = dc.facial_decompose(gen_kloosterman_23())
        factors = []
        for fp in pieces:
            ds = dg.DiagonalSimplex.from_matrix(
                xm.IntMatrix.from_columns(fp.restricted_support)
            )
            factors.append(ds.invariant_factors)
        assert sorted(factors) == [(1, 1), (1, 2), (1, 3)]

    def test_bi_kloosterman_unit(self):
        support = pt.Support(2, ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1), (1, 1)))
        pieces = dc.facial_decompose(support)
        assert len(pieces) == 6
        for fp in pieces:
            ds = dg.DiagonalSimplex.from_matrix(
                xm.IntMatrix.from_columns(fp.restricted_support)
            )
            assert ds.largest_invariant_factor == 1


class TestOrdinaryViaFaces:
    def test_gen_kloosterman_sufficient_class(self):
        support = gen_kloosterman_23()
        for p in [p for p in primes_below(100) if p % 6 == 1]:
            verdict = dc.ordinary_via_faces(support, p)
            assert verdict.status is dc.FacialStatus.ORDINARY

    def test_matches_per_face_verdicts(self):
        support = gen_kloosterman_23()
        pieces = dc.facial_decompose(support)
        for p in [p for p in primes_below(60) if p not in (2, 3)]:
            expected = all(
                dg.is_ordinary(
                    dg.DiagonalSimplex.from_matrix(
                        xm.IntMatrix.from_columns(fp.restricted_support)
                    ),
                    p,
                ).ordinary
                for fp in pieces
            )
            verdict = dc.ordinary_via_faces(support, p)
            assert (verdict.status is dc.FacialStatus.ORDINARY) == expected

    def test_kloosterman_always_ordinary(self):
        support = pt.Support(2, ((1, 0), (0, 1), (-1, -1)))
        for p in primes_below(60):
            assert dc.ordinary_via_faces(support, p).status is dc.FacialStatus.ORDINARY

    def test_fermat_deformation_criterion(self):
        support = fermat_deformed(2, 3)
        for p in primes_below(60):
            if p == 3:
                continue
            verdict = dc.ordinary_via_faces(support, p)
            if p % 3 == 1:
                assert verdict.status is dc.FacialStatus.ORDINARY
            else:
                assert verdict.status is dc.FacialStatus.NON_ORDINARY
                assert verdict.witness_face is not None

    def test_non_coprime_face(self):
        support = fermat_deformed(2, 3)
        with pytest.raises(NotCoprime):
            dc.ordinary_via_faces(support, 3)

    def test_agrees_with_direct_verdict_on_diagonal_supports(self):
        import random

        rng = random.Random(41)
        done = 0
        while done < 10:
            n = rng.randint(1, 3)
            m = xm.IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            det = xm.determinant(m)
            if det == 0 or abs(det) > 30:
                continue
            ds = dg.DiagonalSimplex.from_matrix(m)
            p = next(q for q in primes_below(50) if ds.group_order % q != 0)
            direct = dg.is_ordinary(ds, p).ordinary
            facial = dc.ordinary_via_faces(
                pt.Support(n, tuple(m.columns())), p
            )
            assert (facial.status is dc.FacialStatus.ORDINARY) == direct
            done += 1

    def test_unknown_for_non_diagonal_faces(self):
        # square face at height one is not diagonal in dimension 3
        support = pt.Support(
            3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))
        )
        verdict = dc.ordinary_via_faces(support, 5)
        assert verdict.status is dc.FacialStatus.UNKNOWN
        assert verdict.non_diagonal_faces == (0,)
        assert verdict.certificate_modulus == 1


class TestCollapseStep:
    def test_indecomposable_unchanged(self):
        vset = [(1, 0), (0, 1)]
        assert dc.collapse_step(vset, (1, 0)) == (((0, 1), (1, 0)),)

    def test_collinear_triple(self):
        pieces = dc.collapse_step([(0, 1), (1, 1), (2, 1)], (0, 1))
        assert {frozenset(p) for p in pieces} == {
            frozenset({(0, 1), (1, 1)}),
            frozenset({(1, 1), (2, 1)}),
        }

    def test_triangle_with_edge_point(self):
        vset = [(0, 0, 1), (2, 0, 1), (1, 0, 1), (0, 1, 1)]
        pieces = dc.collapse_step(vset, (0, 0, 1))
        assert {frozenset(p) for p in pieces} == {
            frozenset({(2, 0, 1), (1, 0, 1), (0, 1, 1)}),
            frozenset({(0, 0, 1), (1, 0, 1), (0, 1, 1)}),
        }

    def test_rejects_non_vertex(self):
        with pytest.raises(DegenerateInput):
            dc.collapse_step([(0, 1), (1, 1), (2, 1)], (1, 1))

    def test_rejects_dimension_drop(self):
        vset = [(0, 0, 1), (2, 0, 1), (1, 0, 1), (0, 1, 1)]
        with pytest.raises(DegenerateInput):
            dc.collapse_step(vset, (0, 1, 1))

    def test_covers_input(self):
        vset = [(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 1), (1, 0, 1)]
        pieces = dc.collapse_step(vset, (0, 0, 1))
        covered = set().union(*map(set, pieces))
        assert covered == set(vset)


class TestCompleteCollapse:
    def test_unit_simplex_face(self):
        vset = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        res = dc.complete_collapse(vset)
        assert res.pieces == (tuple(sorted(vset)),)
        assert res.dstar == 1
        assert res.choice_log == ()

    @pytest.mark.parametrize("strategy", dc.STRATEGIES)
    def test_dilated_triangle_all_unimodular(self, strategy):
        vset = [(x, y, 1) for x in range(3) for y in range(3) if x + y <= 2]
        res = dc.complete_collapse(vset, strategy)
        assert all(f == 1 for f in res.piece_invariant_factors)
        assert res.dstar == 1
        covered = set().union(*map(set, res.pieces))
        assert covered == set(vset)
        assert all(len(p) == 3 for p in res.pieces)

    def test_five_dim_already_indecomposable(self):
        support = catalog.make("five_dim").support
        res = dc.complete_collapse(support.points)
        assert len(res.pieces) == 1
        assert res.dstar == 3

    def test_dstar_multiple_of_denominator(self):
        # facet denominator divides every piece's largest invariant factor lcm
        vset = [(x, y, 2) for x in range(3) for y in range(3) if x + y <= 2]
        for strategy in dc.STRATEGIES:
            res = dc.complete_collapse(vset, strategy)
            assert res.dstar % 2 == 0

    def test_exhaustive_beats_greedy_here(self):
        # a slanted-plane set where the first-removal choice matters a lot
        vset = [(1, 1, 4), (1, 3, 2), (2, 3, 1), (3, 1, 2), (4, 2, 0)]
        lex = dc.complete_collapse(vset, "first-lex")
        best = dc.complete_collapse(vset, "exhaustive-min-dstar")
        assert lex.dstar == 36
        assert best.dstar == 12

    def test_exhaustive_never_worse(self):
        import itertools
        import random

        rng = random.Random(17)
        done = 0
        while done < 15:
            a = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            c = rng.randint(2, 5)
            plane = [
                p
                for p in itertools.product(range(6), repeat=3)
                if sum(x * y for x, y in zip(a, p)) == c and any(p)
            ]
            if len(plane) < 4:
                continue
            vset = tuple(sorted(rng.sample(plane, min(5, len(plane)))))
            try:
                best = dc.complete_collapse(vset, "exhaustive-min-dstar").dstar
            except DegenerateInput:
                continue
            for strategy in ("first-lex", "max-invariant-factor"):
                assert best <= dc.complete_collapse(vset, strategy).dstar
            done += 1

    def test_unknown_strategy(self):
        with pytest.raises(DegenerateInput):
            dc.complete_collapse([(1, 0), (0, 1)], "fancy")


class TestCertificate:
    def test_five_dim(self):
        support = catalog.make("five_dim").support
        cert = dc.generic_ordinary_certificate(support, 7)
        assert cert.certified and cert.dstar == 3
        cert5 = dc.generic_ordinary_certificate(support, 5)
        assert not cert5.certified
        assert cert5.reason is not None

    def test_residue_one_of_dstar_always_certifies(self):
        support = gen_kloosterman_23()
        probe = dc.generic_ordinary_certificate(support, 7)
        for p in [p for p in primes_below(120) if p % probe.dstar == 1]:
            assert dc.generic_ordinary_certificate(support, p).certified

    def test_dilated_simplex_unit_height(self):
        # 2-dilated triangle at height 1: certified at every prime
        vset = tuple(
            (x, y, 1) for x in range(3) for y in range(3) if x + y <= 2
        )
        support = pt.Support(3, vset)
        for p in primes_below(30):
            assert dc.generic_ordinary_certificate(support, p).certified

    def test_dstar_multiple_of_facet_denominator(self):
        import random

        rng = random.Random(61)
        done = 0
        while done < 10:
            n = rng.randint(2, 3)
            pts = {
                tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(n + rng.randint(0, 3))
            }
            pts.discard((0,) * n)
            if len(pts) < n or xm.rational_rank(tuple(pts)) != n:
                continue
            support = pt.Support(n, tuple(sorted(pts)))
            poly = pt.build(support)
            p = next(q for q in primes_below(100) if q % 60 == 1)
            cert = dc.generic_ordinary_certificate(support, p)
            assert cert.dstar % poly.denominator == 0
            done += 1


class TestAdmissibleCheck:
    def test_single_piece(self):
        res = dc.admissible_check([(0, 0), (1, 0), (0, 1)], ((1, 0), ()))
        assert res.admissible
        assert len(res.pieces) == 1

    def test_segment_unit_cuts(self):
        d = 4
        pts = [(k,) for k in range(d + 1)]
        res = dc.admissible_check(pts, ((1,), tuple(range(d))))
        assert res.admissible
        assert len(res.pieces) == d
        assert res.pieces[0] == ((0,), (1,))

    def test_two_dim_strips(self):
        # 2-dilated triangle cut into a quad strip and a corner triangle
        pts = [(x, y) for x in range(3) for y in range(3) if x + y <= 2]
        res = dc.admissible_check(pts, ((1, 0), (0, 1)))
        assert res.admissible
        assert len(res.pieces) == 2
        assert set(res.pieces[0]) == {(0, 0), (0, 2), (1, 0), (1, 1)}
        assert set(res.pieces[1]) == {(1, 0), (1, 1), (2, 0)}

    def test_non_integral_cut(self):
        res = dc.admissible_check([(0, 0), (2, 0), (0, 1)], ((1, 0), (0, 1)))
        assert not res.admissible
        assert "non-integral" in res.reason

    def test_interior_point_failure(self):
        # whole triangle with an interior lattice point is not admissible
        res = dc.admissible_check([(0, 0), (3, 0), (0, 3)], ((1, 0), ()))
        assert not res.admissible
        assert "interior" in res.reason

    def test_initial_plane_must_avoid_interior(self):
        pts = [(k,) for k in range(5)]
        res = dc.admissible_check(pts, ((1,), (2, 3)))
        assert not res.admissible

    def test_rejects_unordered_offsets(self):
        with pytest.raises(DegenerateInput):
            dc.admissible_check([(0,), (1,)], ((1,), (1, 0)))


class TestRegularSubdivision:
    def test_trivial(self):
        cells = dc.regular_subdivision(2, 1)
        assert len(cells) == 1

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_counts_and_determinants(self, n, d):
        cells = dc.regular_subdivision(n, d)
        assert len(cells) == d**n
        total = 0
        for cell in cells:
            m = xm.IntMatrix.from_columns(
                [tuple(a - b for a, b in zip(v, cell[0])) for v in cell[1:]]
            )
            det = xm.determinant(m)
            assert abs(det) == 1
            total += abs(det)
        assert total == d**n

    def test_cells_inside_dilation(self):
        d = 3
        for cell in dc.regular_subdivision(2, d):
            for v in cell:
                assert all(c >= 0 for c in v) and sum(v) <= d

    def test_interiors_disjoint_on_samples(self):
        import random

        rng = random.Random(13)
        cells = dc.regular_subdivision(2, 2)
        facets = {cell: pt.affine_facets(cell) for cell in cells}
        hits = 0
        while hits < 20:
            x = Fraction(rng.randint(1, 199), 101)
            y = Fraction(rng.randint(1, 199), 103)
            if x + y >= 2:
                continue
            strictly_inside = [
                cell
                for cell, ineqs in facets.items()
                if all(sum(a * c for a, c in zip(av, (x, y))) < b for av, b, _ in ineqs)
            ]
            on_boundary = any(
                any(sum(a * c for a, c in zip(av, (x, y))) == b for av, b, _ in ineqs)
                for ineqs in facets.values()
            )
            if on_boundary:
                continue
            assert len(strictly_inside) == 1
            hits += 1


class TestBuildCounterexample:
    def test_five_dim(self):
        support = catalog.make("five_dim").support
        ds = dg.DiagonalSimplex.from_support(support)
        assert abs(ds.det) == 3
        assert ds.polyhedron.denominator == 1

    def test_four_dim(self):
        support = catalog.make("four_dim", {"D": 2, "k": 2}).support
        ds = dg.DiagonalSimplex.from_support(support)
        assert ds.polyhedron.denominator == 2
        assert ds.largest_invariant_factor == 4
        assert ds.polyhedron.weight((3, 1, 0, 1)) == Fraction(3, 2)

    def test_four_dim_instability_bound(self):
        # witness norm jumps past its value at primes 1 + D**(k-1) mod D**k
        big_d, k = 2, 2
        support = catalog.make("four_dim", {"D": big_d, "k": k}).support
        ds = dg.DiagonalSimplex.from_support(support)
        u = (big_d + 1, 1, 0, 1)
        r = xm.solve_unique(ds.matrix, u)
        element = next(e for e in ds.group if e.r == r)
        assert element.norm == 1 + Fraction(1, big_d)
        for p in [p for p in primes_below(200) if p % big_d**k == 1 + big_d ** (k - 1)]:
            moved = dg.m_action(element, p)
            assert moved.norm >= 1 + Fraction(p % big_d**k, big_d**k)
            assert moved.norm > element.norm

    def test_extend_dim(self):
        support = catalog.make("extend_dim", {"n": 6}).support
        ds = dg.DiagonalSimplex.from_support(support)
        assert abs(ds.det) == 3
        assert ds.polyhedron.denominator == 1
        assert not dg.is_ordinary(ds, 5).ordinary
        assert dg.is_ordinary(ds, 7).ordinary

    def test_parameter_validation(self):
        with pytest.raises(DegenerateInput):
            catalog.make("four_dim", {"D": 1, "k": 2}).support
        with pytest.raises(DegenerateInput):
            catalog.make("four_dim", {"D": 2, "k": 1}).support
        with pytest.raises(DegenerateInput):
            catalog.make("extend_dim", {"n": 5}).support
        with pytest.raises(DegenerateInput):
            catalog.make("seven_dim").support
