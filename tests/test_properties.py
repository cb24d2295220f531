"""Property-based and randomized invariant tests."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from npoly import diagonal as dg
from npoly import exactmath as xm
from npoly import polytope as pt
from npoly.primes import primes_below
from oracles import hull_lattice_points, in_hull, lp_min_sum


def square_matrices(max_n=4, lo=-6, hi=6, min_n=1):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


nonsingular = square_matrices().map(xm.IntMatrix.from_rows).filter(
    lambda m: xm.determinant(m) != 0
)


@given(nonsingular)
@settings(max_examples=80, deadline=None)
def test_snf_invariants(m):
    res = xm.snf(m)
    n = m.rows
    assert all(d > 0 for d in res.diag)
    assert all(res.diag[i + 1] % res.diag[i] == 0 for i in range(n - 1))
    product = res.P.mul(m).mul(res.Q)
    assert product.entries == tuple(
        tuple(res.diag[i] * int(i == j) for j in range(n)) for i in range(n)
    )
    total = 1
    for d in res.diag:
        total *= d
    assert total == abs(xm.determinant(m))
    assert abs(xm.determinant(res.P)) == 1
    assert abs(xm.determinant(res.Q)) == 1


@given(
    nonsingular,
    st.lists(st.fractions(min_value=-5, max_value=5), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_solve_round_trip(m, coords):
    r = tuple(coords[: m.rows])
    u = m.mul_vector(r)
    assert xm.solve_unique(m, u) == r


@given(st.integers(0, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_lp_homogeneity(c, x, y):
    gens = [(1, 0), (0, 1), (-1, -1), (2, -1)]
    base = lp_min_sum(gens, (x, y))
    scaled = lp_min_sum(gens, (c * x, c * y))
    if base is None:
        assert scaled is None or c == 0
    else:
        assert scaled == c * base


@given(st.lists(st.fractions(min_value=0, max_value=6), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_polygon_round_trip(slopes):
    poly = pt.LowerPolygon.from_slopes(slopes)
    again = pt.LowerPolygon.from_vertices(poly.vertices)
    assert again == poly
    cmp = pt.lies_above(poly, poly)
    assert cmp.status is pt.Dominance.ABOVE and cmp.endpoints_coincide


class FractionPolygon:
    """Reference lower polygon kept as a sorted tuple of Fraction slopes, with
    Fraction cumulative sums and vertices grouped by equal slopes."""

    def __init__(self, slopes):
        self.slopes = tuple(sorted(Fraction(s) for s in slopes))
        cumulative = [Fraction(0)]
        for s in self.slopes:
            cumulative.append(cumulative[-1] + s)
        self.cumulative = tuple(cumulative)
        vertices = [(Fraction(0), Fraction(0))]
        x = y = Fraction(0)
        for s, group in itertools.groupby(self.slopes):
            count = len(list(group))
            x += count
            y += count * s
            vertices.append((x, y))
        self.vertices = tuple(vertices)
        self.runs = tuple((s, len(list(group)))
                          for s, group in itertools.groupby(self.slopes))

    def lies_above(self, lower):
        cu, cl = self.cumulative, lower.cumulative
        strict = False
        for k, (a, b) in enumerate(zip(cu, cl)):
            if a < b:
                return pt.Dominance.VIOLATION, cu[-1] == cl[-1], (k, a, b)
            strict = strict or a > b
        status = pt.Dominance.ABOVE_STRICT_SOMEWHERE if strict else pt.Dominance.ABOVE
        return status, cu[-1] == cl[-1], None


def assert_matches_reference(poly, ref):
    assert poly.slopes == ref.slopes
    assert poly.length == len(ref.slopes)
    assert poly.cumulative() == ref.cumulative
    assert poly.vertices == ref.vertices
    assert poly.endpoint == ref.vertices[-1]
    assert poly.runs == ref.runs
    assert all(m > 0 for _, m in poly.runs)
    assert all(a[0] < b[0] for a, b in zip(poly.runs, poly.runs[1:]))
    # canonical integer form: scale is the lcm of the reduced denominators,
    # so no prime divides both the scale and every step numerator
    assert poly.scale == lcm(*(s.denominator for s in ref.slopes))
    assert gcd(poly.scale, *(s for s, _ in poly.steps)) == 1
    assert poly.steps == tuple((s * poly.scale, m) for s, m in ref.runs)


def assert_comparison_matches(upper, lower, ref_upper, ref_lower):
    cmp = pt.lies_above(upper, lower)
    assert (cmp.status, cmp.endpoints_coincide, cmp.witness) == ref_upper.lies_above(
        ref_lower
    )


slope_values = st.fractions(min_value=0, max_value=3, max_denominator=4)


@given(
    st.integers(0, 12).flatmap(
        lambda n: st.tuples(
            st.lists(slope_values, min_size=n, max_size=n),
            st.lists(slope_values, min_size=n, max_size=n),
        )
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_run_length_polygon_against_fraction_reference(pair, rnd):
    first, second = pair
    polys = [pt.LowerPolygon.from_slopes(s) for s in pair]
    refs = [FractionPolygon(s) for s in pair]
    for poly, ref, slopes in zip(polys, refs, pair):
        assert_matches_reference(poly, ref)
        shuffled = list(slopes)
        rnd.shuffle(shuffled)
        assert pt.LowerPolygon.from_slopes(shuffled) == poly
        assert pt.LowerPolygon.from_vertices(ref.vertices) == poly
        assert pt.LowerPolygon.from_runs((s, 1) for s in ref.slopes) == poly
        # any common multiple of the denominators reduces to the same polygon
        k = rnd.randint(1, 12)
        scaled = pt.LowerPolygon._from_scaled(
            k * poly.scale, [(k * s, m) for s, m in poly.steps])
        assert scaled == poly and hash(scaled) == hash(poly)
        assert scaled == pt.LowerPolygon.from_runs(ref.runs)
    assert (polys[0] == polys[1]) == (refs[0].slopes == refs[1].slopes)
    for i, j in ((0, 1), (1, 0), (0, 0)):
        assert_comparison_matches(polys[i], polys[j], refs[i], refs[j])
    # slopes over fifths give a scale no polygon over quarters has
    fifths = [s + Fraction(1, 5) for s in second]
    shifted = pt.LowerPolygon.from_slopes(fifths)
    if first:
        assert shifted.scale % 5 == 0 and polys[0].scale % 5 != 0
    assert_comparison_matches(polys[0], shifted, refs[0], FractionPolygon(fifths))
    assert_comparison_matches(shifted, polys[0], FractionPolygon(fifths), refs[0])
    # an upper polygon sharing the endpoint: move one unit of slope rightwards
    if len(first) >= 2 and refs[0].slopes[0] != refs[0].slopes[-1]:
        moved = list(refs[0].slopes)
        moved[0] += Fraction(1, 4)
        moved[-1] -= Fraction(1, 4)
        upper = pt.LowerPolygon.from_slopes(moved)
        assert_comparison_matches(upper, polys[0], FractionPolygon(moved), refs[0])
        assert_comparison_matches(polys[0], upper, refs[0], FractionPolygon(moved))


small_det_matrices = (
    square_matrices(max_n=4, lo=-3, hi=3, min_n=2)
    .map(xm.IntMatrix.from_rows)
    .filter(lambda m: 0 < abs(xm.determinant(m)) <= 60)
)


@given(
    small_det_matrices,
    st.lists(st.sampled_from(primes_below(400)), min_size=3, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_diagonal_polygons_against_expanded_fractions(m, primes):
    ds = dg.DiagonalSimplex.from_matrix(m)
    norms = [e.norm for e in ds.group]
    hodge = dg.hodge_polygon_diag(ds)
    ref_hodge = FractionPolygon(norms)
    assert hodge == pt.LowerPolygon.from_slopes(norms)
    assert_matches_reference(hodge, ref_hodge)
    for p in primes:
        if ds.det % p == 0:
            continue
        expanded = [o.slope for o in dg.orbits(ds, p) for _ in range(o.degree)]
        newton = dg.newton_polygon_diag(ds, p)
        ref_newton = FractionPolygon(expanded)
        assert newton == pt.LowerPolygon.from_slopes(expanded)
        assert_matches_reference(newton, ref_newton)
        assert_comparison_matches(newton, hodge, ref_newton, ref_hodge)
        assert_comparison_matches(hodge, newton, ref_hodge, ref_newton)


@given(
    square_matrices(max_n=3, lo=-4, hi=4)
    .map(xm.IntMatrix.from_rows)
    .filter(lambda m: 0 < abs(xm.determinant(m)) <= 200)
)
@settings(max_examples=80, deadline=None)
def test_ordinary_classes_form_a_subgroup(m):
    # if m1 and m2 each keep every norm fixed, so does m1*m2; residues are
    # taken in 1..d_n, as `np scan` does
    res = dg.ordinary_residues(dg.DiagonalSimplex.from_matrix(m))
    dn = res.modulus
    classes = set(res.classes)
    assert (1 % dn or dn) in classes
    for a in classes:
        for b in classes:
            assert (a * b % dn or dn) in classes
    phi = sum(1 for u in range(1, dn + 1) if gcd(u, dn) == 1)
    assert phi % len(classes) == 0


def random_support(rng, n, extra):
    while True:
        count = n + extra
        pts = {
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(count)
        }
        pts.discard((0,) * n)
        if len(pts) < n:
            continue
        try:
            return pt.Support(n, tuple(sorted(pts)))
        except Exception:
            continue


class TestWeightFunction:
    def setup_method(self):
        self.rng = random.Random(99)

    def polyhedra(self, count=6):
        for _ in range(count):
            n = self.rng.randint(2, 3)
            yield pt.build(random_support(self.rng, n, self.rng.randint(0, 2)))

    def test_homogeneity_at_integral_points(self):
        for poly in self.polyhedra():
            n = poly.dim
            for _ in range(10):
                u = tuple(self.rng.randint(-3, 3) for _ in range(n))
                w = poly.weight(u)
                for c in range(6):
                    cu = tuple(c * x for x in u)
                    if w is None:
                        if c > 0:
                            assert poly.weight(cu) is None
                    else:
                        assert poly.weight(cu) == c * w

    def test_subadditivity_and_cofaciality(self):
        for poly in self.polyhedra():
            n = poly.dim
            checked = 0
            while checked < 8:
                u = tuple(self.rng.randint(-2, 2) for _ in range(n))
                v = tuple(self.rng.randint(-2, 2) for _ in range(n))
                wu, wv = poly.weight(u), poly.weight(v)
                if not wu or not wv:
                    continue
                total = poly.weight(tuple(a + b for a, b in zip(u, v)))
                assert total <= wu + wv
                assert (total == wu + wv) == poly.cofacial(u, v)
                checked += 1

    def test_facet_formula_equals_lp(self):
        for poly in self.polyhedra(4):
            n = poly.dim
            for _ in range(20):
                u = tuple(self.rng.randint(-4, 4) for _ in range(n))
                lp = lp_min_sum(poly.support.points, u)
                assert poly.weight(u) == lp
                # the integer facet route: D*w(u) is exactly an integer
                assert poly._scaled_weight(u) == (
                    None if lp is None else lp * poly.denominator
                )


class TestRandomDiagonal:
    def setup_method(self):
        self.rng = random.Random(7)

    def simplices(self, count, max_n=3, max_det=30):
        made = 0
        while made < count:
            n = self.rng.randint(1, max_n)
            m = xm.IntMatrix.from_rows(
                [[self.rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            det = xm.determinant(m)
            if det == 0 or abs(det) > max_det:
                continue
            yield dg.DiagonalSimplex.from_matrix(m)
            made += 1

    def test_group_size_and_hodge_routes(self):
        for ds in self.simplices(12):
            assert len(ds.group) == ds.group_order
            assert dg.hodge_polygon_diag(ds) == ds.polyhedron.hodge_polygon()
            assert sum(1 for e in ds.group if e.norm == 0) == 1

    def test_orbit_slopes_match_digit_sums(self):
        for ds in self.simplices(10):
            primes = [p for p in primes_below(30) if gcd(p, ds.group_order) == 1]
            p = self.rng.choice(primes)
            for orbit in dg.orbits(ds, p):
                walk = dg.orbit_slope(orbit, p)
                digits = dg.slope_from_digit_sums(orbit.representative, p)
                assert walk == digits == orbit.slope

    def test_residue_one_is_ordinary(self):
        for ds in self.simplices(10):
            dn = ds.largest_invariant_factor
            for p in primes_below(80):
                if p % dn == 1 and gcd(p, ds.group_order) == 1:
                    assert dg.is_ordinary(ds, p).ordinary
                    break

    def test_slope_bounds(self):
        for ds in self.simplices(10):
            primes = [p for p in primes_below(30) if gcd(p, ds.group_order) == 1]
            p = self.rng.choice(primes)
            poly = dg.newton_polygon_diag(ds, p)
            assert len(poly.slopes) == ds.group_order
            assert all(0 <= s <= ds.dim for s in poly.slopes)
            assert sum(1 for s in poly.slopes if s == 0) == 1


class TestIndependentOracles:
    """Cross-checks against routes that share no code with the primary path."""

    def setup_method(self):
        self.rng = random.Random(4242)

    def test_membership_consistency(self):
        # facet data + cone membership must reproduce LP hull membership:
        # u is in the hull iff (u, 1) is a nonnegative combination of the
        # lifted generators (p, 1)
        for _ in range(5):
            n = self.rng.randint(2, 3)
            support = random_support(self.rng, n, self.rng.randint(0, 2))
            poly = pt.build(support)
            lifted = [tuple(p) + (1,) for p in support.points] + [(0,) * n + (1,)]
            for _ in range(25):
                u = tuple(self.rng.randint(-3, 3) for _ in range(n))
                w = poly.weight(u)
                in_polytope = w is not None and w <= 1
                assert in_polytope == (lp_min_sum(lifted, u + (1,)) is not None)
                assert in_polytope == in_hull(list(support.points) + [(0,) * n], u)

    def test_two_dim_volume_against_picks_theorem(self):
        # normalized volume = 2*interior + boundary - 2 for lattice polygons
        for _ in range(8):
            support = random_support(self.rng, 2, self.rng.randint(0, 3))
            points = list(support.points) + [(0, 0)]
            poly = pt.build(support)
            inside = hull_lattice_points(points)
            interior = pt.interior_lattice_points(points)
            boundary = len(inside) - len(interior)
            assert poly.normalized_volume == 2 * len(interior) + boundary - 2

    def test_group_against_brute_force(self):
        # solutions of M r = 0 (mod 1) found by scanning all candidates with
        # denominator dividing the largest invariant factor
        checked = 0
        while checked < 8:
            n = self.rng.randint(1, 3)
            m = xm.IntMatrix.from_rows(
                [[self.rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            det = xm.determinant(m)
            if det == 0 or abs(det) > 8:
                continue
            ds = dg.DiagonalSimplex.from_matrix(m)
            dn = ds.largest_invariant_factor
            brute = set()
            for combo in itertools.product(range(dn), repeat=n):
                r = tuple(Fraction(a, dn) for a in combo)
                if all(x.denominator == 1 for x in m.mul_vector(r)):
                    brute.add(r)
            assert {e.r for e in ds.group} == brute
            checked += 1

    def test_integer_group_against_fraction_group(self):
        # the group, the p-action and the norm rebuilt with Fractions:
        # r = Q s mod 1 over the Smith factors, and m*r mod 1
        def act(r, m):
            return tuple(m * x % 1 for x in r)

        primes = primes_below(3000)
        checked = 0
        while checked < 24:
            n = self.rng.randint(2, 4)
            m = xm.IntMatrix.from_rows(
                [[self.rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            det = xm.determinant(m)
            if det == 0 or abs(det) > 60:
                continue
            ds = dg.DiagonalSimplex.from_matrix(m)
            diag = ds.snf.diag
            group = sorted(
                {
                    tuple(x % 1 for x in ds.snf.Q.mul_vector(
                        [Fraction(c, d) for c, d in zip(combo, diag)]))
                    for combo in itertools.product(*(range(d) for d in diag))
                },
                key=lambda r: (sum(r), r),
            )
            assert [e.r for e in ds.group] == group

            for p in self.rng.sample([p for p in primes[:30] if det % p], 2):
                expected = []
                remaining = set(group)
                for r in group:
                    members = []
                    while r in remaining:
                        remaining.discard(r)
                        members.append(r)
                        r = act(r, p)
                    if members:
                        slope = sum(map(sum, members)) / len(members)
                        expected.append((slope, members[0], len(members)))
                assert [
                    (o.slope, o.representative.r, o.degree) for o in dg.orbits(ds, p)
                ] == sorted(expected)
                witness = next((r for r in group if sum(act(r, p)) != sum(r)), None)
                verdict = dg.is_ordinary(ds, p)
                assert verdict.ordinary == (witness is None)
                assert (None if verdict.witness is None else verdict.witness.r) == witness

            dn = ds.largest_invariant_factor
            units = [u for u in range(1, dn + 1) if gcd(u, dn) == 1]
            stable = tuple(
                u for u in units if all(sum(act(r, u)) == sum(r) for r in group)
            )
            classes = dg.ordinary_residues(ds).classes
            assert classes == stable
            for u in units:
                for p in [p for p in primes if p % dn == u % dn][:3]:
                    assert dg.is_ordinary(ds, p).ordinary == (u in classes)
            checked += 1

    def test_orbit_slope_representative_independent(self):
        ds = dg.DiagonalSimplex.from_matrix(
            xm.IntMatrix.from_columns([(5, 1), (1, 3)])
        )
        for p in (3, 11, 13):
            for orbit in dg.orbits(ds, p):
                member = orbit.representative
                for _ in range(orbit.degree):
                    shifted = dg.Orbit(
                        representative=member, degree=orbit.degree, slope=orbit.slope
                    )
                    assert dg.orbit_slope(shifted, p) == orbit.slope
                    member = dg.m_action(member, p)
                assert member == orbit.representative


def test_denominator_attained_on_named_cases():
    # the weight denominators actually reach the facet denominator
    for support in [
        pt.Support(1, ((4,),)),
        pt.Support(2, ((2, 1), (1, 3))),
        pt.Support(2, ((1, 0), (0, 1), (-2, -3))),
    ]:
        poly = pt.build(support)
        data = poly.hodge_data()
        denominators = set()
        for k, count in data.W.items():
            if count and k:
                denominators.add(Fraction(k, poly.denominator).denominator)
        assert poly.denominator in denominators
