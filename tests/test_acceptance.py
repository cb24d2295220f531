"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is exact: all quantities are integers or rationals.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from npoly import catalog
from npoly import decompose as dc
from npoly import diagonal as dg
from npoly import exactmath as xm
from npoly import polytope as pt
from npoly.primes import primes_below
from oracles import orbit_members, slope_by_member, slope_from_digit_sums


def _report(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS - {text}")


def random_nonsingular(rng, n, lo=-3, hi=3, max_det=60):
    while True:
        m = xm.IntMatrix.from_rows(
            [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        )
        det = xm.determinant(m)
        if det != 0 and abs(det) <= max_det:
            return m


def test_criterion_01_monomial_law():
    for d in (3, 4, 5, 7, 12):
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_rows([[d]]))
        assert ds.polyhedron.denominator == d
        for p in primes_below(200):
            if d % p == 0:
                continue
            assert dg.is_ordinary(ds, p).ordinary == (p % d == 1)
        res = dg.ordinary_residues(ds)
        assert res.classes == (1,) and res.mu == 1
    _report(1, "one-variable power law: ordinary exactly at p = 1 mod d, classes {1}")


def test_criterion_02_kloosterman():
    for n in (2, 3, 4):
        family = catalog.make("kloosterman", {"n": n})
        poly = pt.build(family.support)
        data = poly.hodge_data()
        assert sum(data.H.values()) == n + 1 == poly.normalized_volume
        faces = dc.facial_decompose(family.support)
        face_simplices = [
            dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_columns(fp.restricted_support))
            for fp in faces
        ]
        assert all(ds.group_order == 1 for ds in face_simplices)
        for p in primes_below(100):
            verdict = dc.ordinary_via_faces(family.support, p)
            assert verdict.status is dc.FacialStatus.ORDINARY
            for ds in face_simplices:
                np_face = dg.newton_polygon_diag(ds, p)
                assert np_face == dg.hodge_polygon_diag(ds)
    _report(2, "inverted-simplex sums: polygons coincide at every prime, n+1 slopes")


def test_criterion_03_generalized_kloosterman_23():
    support = pt.Support(2, ((1, 0), (0, 1), (-2, -3)))
    faces = dc.facial_decompose(support)
    face_simplices = [
        dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_columns(fp.restricted_support))
        for fp in faces
    ]
    factors = sorted(ds.invariant_factors for ds in face_simplices)
    assert factors == [(1, 1), (1, 2), (1, 3)]
    for p in primes_below(100):
        if p in (2, 3):
            continue
        verdict = dc.ordinary_via_faces(support, p)
        per_face = all(dg.is_ordinary(ds, p).ordinary for ds in face_simplices)
        assert (verdict.status is dc.FacialStatus.ORDINARY) == per_face
        if p % 6 == 1:
            assert verdict.status is dc.FacialStatus.ORDINARY
    _report(3, "exponents (2,3): face factors {1,2},{1,3},{1,1}; verdicts match faces")


def test_criterion_04_five_dim():
    support = catalog.make("five_dim").support
    ds = dg.DiagonalSimplex.from_support(support)
    assert ds.group_order == 3
    box_data = ds.polyhedron.hodge_data()
    assert {k: v for k, v in box_data.H.items() if v} == {0: 1, 2: 1, 3: 1}
    hp = box_data.polygon
    ordinary_primes = [p for p in primes_below(200) if p % 3 == 1][:5]
    swap_primes = [p for p in primes_below(200) if p % 3 == 2][:5]
    assert len(ordinary_primes) == 5 and len(swap_primes) == 5
    for p in ordinary_primes:
        assert dg.newton_polygon_diag(ds, p) == hp
        assert dg.is_ordinary(ds, p).ordinary
    nonzero = [e for e in ds.group if any(e.a)]
    for p in swap_primes:
        # digit-sum oracle first, then the orbit average
        for e in nonzero:
            assert slope_from_digit_sums(e, p) == Fraction(5, 2)
        np_poly = dg.newton_polygon_diag(ds, p)
        assert np_poly.slopes == (0, Fraction(5, 2), Fraction(5, 2))
        cmp = pt.lies_above(np_poly, hp)
        assert cmp.status is pt.Dominance.ABOVE_STRICT_SOMEWHERE
        assert cmp.endpoints_coincide
        assert not dg.is_ordinary(ds, p).ordinary
    _report(4, "five-dim example: det 3, H={0,2,3}, slopes split by residue mod 3")


def test_criterion_05_four_dim_family():
    for big_d, k in ((2, 2), (3, 2)):
        support = catalog.make("four_dim", {"D": big_d, "k": k}).support
        ds = dg.DiagonalSimplex.from_support(support)
        assert ds.polyhedron.denominator == big_d
        assert ds.largest_invariant_factor == big_d**k
        assert abs(ds.det) == big_d ** (k + 1)
        modulus = big_d**k
        bad_residue = 1 + big_d ** (k - 1)
        for p in primes_below(500):
            if gcd(p, ds.group_order) != 1:
                continue
            if p % modulus == bad_residue:
                assert not dg.is_ordinary(ds, p).ordinary
            if p % modulus == 1:
                assert dg.is_ordinary(ds, p).ordinary
    _report(5, "four-dim family: non-ordinary at 1+D^(k-1) mod D^k, ordinary at 1")


def test_criterion_06_digit_sum_cross_check():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = random_nonsingular(rng, n)
        ds = dg.DiagonalSimplex.from_matrix(m)
        valid = [p for p in primes_below(50) if gcd(p, ds.group_order) == 1]
        p = rng.choice(valid)
        np_poly = dg.newton_polygon_diag(ds, p)
        # every member of an orbit lies in one reference orbit, of the same slope
        reference = slope_by_member(ds, p)
        for orbit in dg.orbits(ds, p):
            members = orbit_members(orbit.representative, p)
            assert len(members) == orbit.degree
            assert {reference[a] for a in members} == {reference[members[0]]}
            assert reference[members[0]][1] == orbit.slope
            assert orbit.slope == slope_from_digit_sums(orbit.representative, p)
        hp = dg.hodge_polygon_diag(ds)
        cmp = pt.lies_above(np_poly, hp)
        assert cmp.status is not pt.Dominance.VIOLATION
        assert cmp.endpoints_coincide
        assert sum(1 for s in np_poly.slopes if s == 0) == 1
    _report(6, "200 random simplices: digit sums match, lower bound holds, one unit root")


def test_criterion_07_residue_determinism():
    rng = random.Random(555)
    pool = primes_below(400)
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        m = random_nonsingular(rng, n, max_det=40)
        ds = dg.DiagonalSimplex.from_matrix(m)
        dn = ds.largest_invariant_factor
        by_residue = {}
        pair = None
        for p in pool:
            if gcd(p, ds.group_order) != 1:
                continue
            r = p % dn
            if r in by_residue:
                pair = (by_residue[r], p)
                break
            by_residue[r] = p
        if pair is None:
            continue
        p1, p2 = pair
        assert dg.newton_polygon_diag(ds, p1) == dg.newton_polygon_diag(ds, p2)
        done += 1
    _report(7, "50 random simplices: equal residues mod d_n give identical polygons")


def test_criterion_08_regular_subdivision():
    for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
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
        assert total == d**n  # pieces tile the dilation: volumes add up exactly
    _report(8, "dilated-simplex subdivisions: d^n unimodular pieces, volumes add up")


def test_criterion_09_low_dim_equality_sweep():
    # ambient dimension 1
    for d in range(1, 5):
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_rows([[d]]))
        assert ds.polyhedron.denominator == ds.largest_invariant_factor == d

    # ambient dimension 2: segments with primitive direction
    cols2 = [c for c in itertools.product(range(5), repeat=2) if any(c)]
    checked2 = 0
    sample2 = []
    for a, b in itertools.combinations(cols2, 2):
        det = a[0] * b[1] - a[1] * b[0]
        if det == 0:
            continue
        if gcd(b[0] - a[0], b[1] - a[1]) != 1:
            continue
        # facet normal is the rotated edge over the determinant
        cx, cy = b[1] - a[1], a[0] - b[0]
        denom = abs(det) // gcd(abs(det), gcd(abs(cx), abs(cy)))
        d1 = gcd(gcd(a[0], a[1]), gcd(b[0], b[1]))
        dn = abs(det) // d1
        assert denom == dn
        checked2 += 1
        sample2.append((a, b))
    assert checked2 > 100

    # ambient dimension 3: triangles with no extra lattice points
    cols3 = [c for c in itertools.product(range(5), repeat=3) if any(c)]
    checked3 = 0
    survivors = []
    for a, b, c in itertools.combinations(cols3, 3):
        d1 = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        d2 = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
        cx = d1[1] * d2[2] - d1[2] * d2[1]
        cy = d1[2] * d2[0] - d1[0] * d2[2]
        cz = d1[0] * d2[1] - d1[1] * d2[0]
        g = gcd(gcd(abs(cx), abs(cy)), abs(cz))
        if g != 1:
            continue  # degenerate or facet with non-vertex lattice points
        det = a[0] * cx + a[1] * cy + a[2] * cz
        if det == 0:
            continue
        # denominator: normal is (cx,cy,cz)/det; largest factor: det over minor gcd
        denom = abs(det) // gcd(abs(det), g)
        minors = [
            a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0], a[1] * b[2] - a[2] * b[1],
            a[0] * c[1] - a[1] * c[0], a[0] * c[2] - a[2] * c[0], a[1] * c[2] - a[2] * c[1],
            b[0] * c[1] - b[1] * c[0], b[0] * c[2] - b[2] * c[0], b[1] * c[2] - b[2] * c[1],
        ]
        gm = 0
        for v in minors:
            gm = gcd(gm, abs(v))
        dn = abs(det) // gm
        assert denom == dn
        checked3 += 1
        survivors.append((a, b, c))
    assert checked3 > 10_000

    # spot-validate the closed-form sweep against the full machinery
    rng = random.Random(99)
    for a, b in rng.sample(sample2, 40):
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_columns([a, b]))
        assert dg.check_indecomposable_equality(ds) is True
    for cols in rng.sample(survivors, 60):
        ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_columns(cols))
        assert dg.check_indecomposable_equality(ds) is True
    _report(9, f"exhaustive low-dim sweep ({checked2 + checked3} simplices): D equals d_n")


def test_criterion_10_certificates():
    rng = random.Random(31337)
    built = 0
    nonvacuous = 0
    while built < 20:
        n = rng.randint(2, 3)
        count = rng.randint(n, n + 3)
        pts = {tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(count)}
        pts.discard((0,) * n)
        if len(pts) < n or xm.rational_rank(tuple(pts)) != n:
            continue
        support = pt.Support(n, tuple(sorted(pts)))
        faces = dc.facial_decompose(support)
        dstar = lcm(
            *(dc.complete_collapse(fp.restricted_support).dstar for fp in faces)
        )
        qualifying = [p for p in primes_below(200) if p % dstar == 1]
        for p in qualifying:
            cert = dc.generic_ordinary_certificate(support, p)
            assert cert.certified
            assert cert.dstar == dstar
        built += 1
        if qualifying:
            nonvacuous += 1
    assert nonvacuous >= 15
    _report(10, "20 random supports: certificate holds at every p = 1 mod D* below 200")
