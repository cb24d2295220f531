"""Slow brute-force routes kept as independent oracles for the library.

The library reads facets and vertices off one double-description
extreme-ray enumerator (`polytope._extreme_rays`). The routes here get the
same data another way and are used only by the tests:

- `kernel_vector`: the primitive integer kernel vector of a matrix with a
  one-dimensional kernel, by back-substitution on `exactmath`'s echelon
  form; the sweeps below take one per subset;
- `sweep_extreme_rays`: the same extreme rays from the kernels of all
  (N-1)-row subsets;
- `sweep_cone`: those rays in the enumerator's form, with their tight rows
  found by dot products;
- `difference_facets`: facets from the kernels of point differences;
- `in_hull`: hull membership from those facets;
- `lp_min_sum`: the exact linear program over basic solutions;
- `triangulate` and `normalized_volume`: the pulling triangulation and the
  volume it gives, against the library's volume from the collapse;
- `group`, `orbits`, `is_ordinary`, `ordinary_residues` and
  `hodge_counts_diag`: the diagonal group as sorted `GroupElement`s and the
  p-action as one tuple per element per step, against the library's integer
  table indexed by Smith coordinates, whose one index map
  (`_GroupTable.image`) serves `is_ordinary` and `ordinary_residues` alike;
- `check_table`: the per-element distinctness and closure walks over that
  table, which the library replaces by checks on the Smith form and its
  generators;
- `hull_lattice_points` and `check_indecomposable_equality`: the lattice
  points of a hull by bounding-box scan, and the away-facet test read off
  them, against the library's test on the group table's norms;
- `coordinates` and `norm`: a group element's r = a/d_n and its sum as
  Fractions, which the library never builds;
- `digit_sum`, `stickelberger_ord` and `slope_from_digit_sums`:
  Stickelberger's route to an orbit slope through base-p digit sums of
  Gauss-sum indices, against the library's orbit walk;
- `solve_unique`: the rational solve adj(M)*u / det M off `adjugate`;
- `orbit_members` and `slope_by_member`: one orbit walked an element at a
  time, and the orbit and slope of every element under `orbits`;
- `cofacial`, `from_vertices` and `cumulative`: facet sharing against
  weight additivity, and a polygon rebuilt from its vertices or read as
  running slope sums, against the library's integer slope runs.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from npoly import diagonal as dg
from npoly import exactmath as xm
from npoly import polytope as pt
from npoly.errors import BrokenInvariant, DegenerateInput, NotCoprime, NotIndecomposable


def kernel_vector(rows) -> tuple[int, ...] | None:
    """Primitive integer vector spanning the kernel of an integer or rational
    matrix, by integer back-substitution on its echelon form.

    None unless the kernel is one-dimensional. The last nonzero entry is
    positive, so a solution x/t read off (x, t) has t > 0.
    """
    ncols = len(rows[0])
    echelon, pivots, _ = xm._echelon([xm._integer_row(r) for r in rows])
    if len(pivots) != ncols - 1:
        return None
    x = [0] * ncols
    x[sum(range(ncols)) - sum(pivots)] = 1  # the one column without a pivot
    for row, c in zip(reversed(echelon), reversed(pivots)):
        s = sum(map(mul, row, x))  # x[c] is still 0
        g = gcd(s, row[c])
        scale = row[c] // g
        if scale != 1:
            x = [v * scale for v in x]
        x[c] = -s // g
    g = gcd(*x)
    if next(v for v in reversed(x) if v) < 0:
        g = -g
    return tuple(v // g for v in x)


def sweep_extreme_rays(rows):
    """Extreme rays of the cone {z : G.z <= 0} for integer rows G in Z^N.

    Brute force over the (N-1)-subsets of rows: each subset with a
    one-dimensional kernel gives a primitive kernel vector z, kept with the
    sign, if any, that satisfies every row. Returned sorted.
    """
    found = set()
    for subset in itertools.combinations(rows, len(rows[0]) - 1):
        z = kernel_vector(subset)
        if z is None:
            continue
        sides = [sum(map(mul, row, z)) for row in rows]
        if max(sides) <= 0:
            found.add(z)
        elif min(sides) >= 0:
            found.add(tuple(-c for c in z))
    return sorted(found)


def sweep_cone(rows):
    """`polytope._extreme_rays` by the sweep: sorted (ray, mask) pairs, bit i
    of the mask set when row i is tight on the ray, or None when the rows
    have rank < N."""
    if xm.rational_rank(rows) < len(rows[0]):
        return None
    return [
        (z, sum(1 << i for i, row in enumerate(rows) if sum(map(mul, row, z)) == 0))
        for z in sweep_extreme_rays(rows)
    ]


def difference_facets(points):
    """Facets (a, b) of the hull of full-dimensional lattice points in Z^d.

    Each d-subset of points whose differences from its first point have a
    one-dimensional kernel gives a primitive normal a with b = a.base; the
    pair is kept, with the sign that makes a.x <= b valid, when every point
    lies on one side. In dimension 1 the facets are read off the extremes.
    """
    pts = [tuple(int(c) for c in p) for p in dict.fromkeys(map(tuple, points))]
    d = len(pts[0])
    if pt.affine_rank(pts) != d:
        raise DegenerateInput("facet enumeration needs a full-dimensional hull")
    if d == 1:
        vals = [p[0] for p in pts]
        return [((1,), max(vals)), ((-1,), -min(vals))]
    found = {}
    for subset in itertools.combinations(pts, d):
        base = subset[0]
        a = kernel_vector([[x - y for x, y in zip(p, base)] for p in subset[1:]])
        if a is None:
            continue
        b = pt._dot(a, base)
        side = [pt._dot(a, p) - b for p in pts]
        if all(s <= 0 for s in side):
            pass
        elif all(s >= 0 for s in side):
            a = tuple(-c for c in a)
            b = -b
        else:
            continue
        found[(a, b)] = True
    return sorted(found)


def in_hull(points, x) -> bool:
    """Exact membership of x in the hull of full-dimensional lattice points."""
    return all(pt._dot(a, x) <= b for a, b in difference_facets(points))


def lp_min_sum(generators, u) -> Fraction | None:
    """Exact minimum of sum(t_j) over t >= 0 with sum(t_j * V_j) = u.

    Solved by enumerating basic solutions of the echelon system, each the
    kernel of a square block of it next to -u. Returns None when u is not a
    nonnegative combination of the generators.
    """
    gens = [tuple(int(c) for c in g) for g in generators]
    if not gens:
        raise DegenerateInput("empty generator set")
    n = len(gens[0])
    if any(len(g) != n for g in gens) or len(u) != n:
        raise DegenerateInput("generator/target dimension mismatch")
    u = tuple(int(c) for c in u)
    if all(c == 0 for c in u):
        return Fraction(0)
    count = len(gens)
    rows, pivots, _ = xm._echelon([[g[i] for g in gens] + [-u[i]] for i in range(n)])
    if pivots[-1] == count:
        return None  # u outside the linear span of the generators
    best = None  # (sum of numerators, positive denominator)
    for subset in itertools.combinations(range(count), len(pivots)):
        k = kernel_vector([[row[j] for j in subset] + [row[count]] for row in rows])
        if k is None or k[-1] == 0 or min(k) < 0:
            continue
        total = (sum(k) - k[-1], k[-1])
        if best is None or total[0] * best[1] < best[0] * total[1]:
            best = total
    return None if best is None else Fraction(*best)


def triangulate(points):
    """Pulling triangulation of a full-dimensional lattice polytope in Z^d.

    Recursively cones the lexicographically least vertex over the facets
    that do not contain it; interior points are simply not used, which is
    fine for the volume computations this feeds.
    """
    pts = sorted(dict.fromkeys(map(tuple, points)))
    d = len(pts[0])
    if pt.affine_rank(pts) != d:
        raise DegenerateInput("triangulation needs a full-dimensional hull")
    if len(pts) == d + 1:
        return [tuple(pts)]
    if d == 1:
        return [(pts[0], pts[-1])]
    simplices = []
    for _, _, mask in pt.affine_facets(pts):
        if mask & 1:
            continue  # the facet holds the cone point pts[0]
        face_pts = [p for i, p in enumerate(pts) if mask >> i & 1]
        chart = pt.AffineChart(face_pts)
        local = {chart.to_local(p): p for p in face_pts}
        for sub in triangulate(list(local)):
            simplices.append((pts[0],) + tuple(local[q] for q in sub))
    return simplices


def normalized_volume(points) -> int:
    """n! times the Euclidean volume of the hull, an exact integer (1 for a point)."""
    simplices = triangulate(points)
    if len(simplices[0]) == 1:
        return 1
    total = 0
    for simplex in simplices:
        m = xm.IntMatrix.from_columns([pt._sub(p, simplex[0]) for p in simplex[1:]])
        total += abs(xm.determinant(m))
    return total


def group(ds):
    """All solutions r = a/d_n of M*r = 0 (mod 1) in [0,1)^n, sorted.

    Enumerated through the Smith decomposition: with P*M*Q diagonal, the
    solutions are exactly the fractional parts of Q*s for s ranging over
    products of the cyclic factors, so a = sum_j c_j*(d_n/d_j)*Q[:, j]
    mod d_n with 0 <= c_j < d_j. Refused before allocating when the
    order exceeds the enumeration budget.
    """
    dg._check_order(ds, "group")
    dn = ds.largest_invariant_factor
    vectors = [(0,) * ds.dim]
    for d, column in zip(ds.snf.diag, ds.snf.Q.columns()):
        if d == 1:
            continue
        step = [c * (dn // d) % dn for c in column]
        grown = []
        for a in vectors:
            for _ in range(d):
                grown.append(a)
                a = tuple([(x + y) % dn for x, y in zip(a, step)])
        vectors = grown
    _check_solutions(ds, vectors)
    vectors.sort(key=lambda a: (sum(a), a))
    return tuple(dg.GroupElement(a, dn) for a in vectors)


def _check_solutions(ds, vectors):
    """That vectors are |det M| distinct solutions a of M*a = 0 (mod d_n)."""
    dn = ds.largest_invariant_factor
    if len(set(vectors)) != ds.group_order:
        raise BrokenInvariant("group elements are not distinct")
    for row in ds.matrix.entries:
        if any(sum(map(mul, row, a)) % dn for a in vectors):
            raise BrokenInvariant("a group element does not solve M*r = 0 (mod 1)")


def check_table(ds):
    """Walk every element of the library's table: distinct, and closed under M.

    The library checks only that the Smith diagonal multiplies to |det M| and
    that each generator solves M*r = 0 (mod 1); this catches what those miss,
    such as a Smith form whose Q is not unimodular."""
    _check_solutions(ds, ds._table.vectors)


def orbits(ds, p):
    """Partition of the group under a -> p*a mod d_n, sorted by (slope, representative)."""
    if gcd(p, ds.group_order) != 1:
        raise NotCoprime(f"{p} divides the group order {pt._count_text(ds.group_order)}")
    dn = ds.largest_invariant_factor
    elements = group(ds)
    remaining = {e.a: e for e in elements}
    found = []
    for e in elements:
        if e.a not in remaining:
            continue
        members = []
        cur = e.a
        while cur in remaining:
            members.append(remaining.pop(cur))
            cur = tuple([p * x % dn for x in cur])
        if len(members) != dg.m_degree(e, p):
            raise BrokenInvariant("orbit size differs from the order of p")
        found.append((sum(sum(m.a) for m in members), len(members), e))
    # slope = total/(d_n*degree); scaling by d_n*lcm(degrees) sorts in integers
    scale = lcm(*(degree for _, degree, _ in found))
    found.sort(key=lambda tde: (tde[0] * (scale // tde[1]), tde[2].a))
    return tuple(
        dg.Orbit(representative=e, degree=degree, slope=Fraction(total, dn * degree))
        for total, degree, e in found
    )


def hodge_counts_diag(ds):
    """H(k) from the group directly: elements of norm k/D, no box scan."""
    d = ds.denominator
    counts = {}
    for e in group(ds):
        k, rest = divmod(sum(e.a) * d, e.modulus)
        if rest:
            raise BrokenInvariant("element norm is not a multiple of 1/D")
        counts[k] = counts.get(k, 0) + 1
    return counts


def _norm_stable(element, m):
    d = element.modulus
    return sum(m * x % d for x in element.a) == sum(element.a)


def is_ordinary(ds, p):
    """Norm stability under the p-action, with the first violator as witness."""
    if gcd(p, ds.group_order) != 1:
        raise NotCoprime(f"{p} divides the group order {pt._count_text(ds.group_order)}")
    for e in group(ds):
        if not _norm_stable(e, p):
            return dg.OrdinaryVerdict(False, e)
    return dg.OrdinaryVerdict(True, None)


def ordinary_residues(ds):
    """Residues mod d_n whose action is norm-stable.

    Stability under one application suffices: the action is a bijection, so a
    single stable step propagates along the whole orbit. Any prime p coprime
    to det M acts exactly as p mod d_n does.
    """
    dg._check_order(ds, "ordinary_residues")
    dn = ds.largest_invariant_factor
    elements = group(ds)
    units = [m for m in range(1, dn + 1) if gcd(m, dn) == 1]
    stable = tuple(m for m in units if all(_norm_stable(e, m) for e in elements))
    return dg.ResidueClassification(dn, stable, len(stable), Fraction(len(stable), len(units)))


def hull_lattice_points(points):
    """All lattice points of a full-dimensional hull, by bounding-box scan."""
    box = pt._bounding_box(points, "hull_lattice_points")
    facets = pt.affine_facets(points)
    return sorted(u for u in itertools.product(*box) if pt._satisfies(facets, u))


def check_indecomposable_equality(ds):
    """For n <= 3 and a vertex-only away-facet, the denominator equals d_n;
    the facet's lattice points are found by scanning the hull's box."""
    if ds.dim > 3:
        raise DegenerateInput("equality is only guaranteed in ambient dimension <= 3")
    vertices = set(ds.matrix.columns())
    every = hull_lattice_points(list(vertices) + [(0,) * ds.dim])
    on_face = {u for u in every if ds.polyhedron.weight(u) == 1}
    if on_face != vertices:
        raise NotIndecomposable(
            "away-facet carries lattice points other than the vertices"
        )
    return ds.denominator == ds.largest_invariant_factor


def coordinates(element):
    """The rational coordinates r = a/d_n of a group element."""
    return tuple(Fraction(x, element.modulus) for x in element.a)


def norm(element):
    """The coordinate sum of r = a/d_n."""
    return Fraction(sum(element.a), element.modulus)


def digit_sum(k, p):
    total = 0
    while k:
        total += k % p
        k //= p
    return total


def stickelberger_ord(k, p, q=None):
    """Valuation of the k-th Gauss sum: base-p digit sum of k over p - 1."""
    if k < 0 or (q is not None and k > q - 2):
        raise DegenerateInput(f"index {k} outside the valid range")
    return Fraction(digit_sum(k, p), p - 1)


def slope_from_digit_sums(element, p):
    """Orbit slope of an element computed purely from base-p digit sums.

    Stickelberger's theorem: with d the orbit degree and q = p**d, each
    coordinate r_i contributes the valuation of the Gauss sum indexed by
    r_i*(q-1), and the slope is the average over the orbit.
    """
    d = dg.m_degree(element, p)
    q = p**d
    total = Fraction(0)
    for x in element.a:
        k, rest = divmod(x * (q - 1), element.modulus)
        if rest:
            raise BrokenInvariant("(p**d - 1)*r is not integral")
        total += stickelberger_ord(k, p, q)
    return total / d


def solve_unique(m, u):
    """Unique rational solution adj(M)*u / det M of M*r = u; `adjugate` raises
    DegenerateMatrix for a singular or non-square M."""
    adj, det = xm.adjugate(m.entries)
    return tuple(Fraction(sum(map(mul, row, u)), det) for row in adj)


def cofacial(poly, u, u2):
    """Whether the rays of u and u2 meet a common closed away-facet of a
    Newton polyhedron; the tests compare it with additivity of the weight."""
    k1 = poly._scaled_weight(u)
    k2 = poly._scaled_weight(u2)
    if k1 is None or k2 is None:
        raise DegenerateInput("cofaciality needs both points inside the cone")
    if k1 == 0 or k2 == 0:
        raise DegenerateInput("cofaciality is not defined at the origin")
    d = poly.denominator
    return any(
        pt._dot(f.a, u) * (d // f.b) == k1 and pt._dot(f.a, u2) * (d // f.b) == k2
        for f in poly.facets_away_from_origin
    )


def from_vertices(vertices):
    """The `LowerPolygon` through the vertices (0, 0), (x_1, y_1), ... with
    increasing integer abscissae."""
    runs = [(Fraction(y1 - y0) / (x1 - x0), int(x1 - x0))
            for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])]
    return pt.LowerPolygon.from_runs(sorted(runs))


def cumulative(poly):
    """The running sums of a polygon's slopes, from 0."""
    return tuple(itertools.accumulate(poly.slopes, initial=Fraction(0)))


def orbit_members(element, p):
    """The orbit of a group element under a -> p*a mod d_n: its vectors a,
    from the element on."""
    dn = element.modulus
    members = [element.a]
    while (image := tuple([p * x % dn for x in members[-1]])) != element.a:
        members.append(image)
    return members


def slope_by_member(ds, p):
    """{a: (i, slope)} over the members of the i-th orbit of `orbits`."""
    return {
        a: (i, orbit.slope)
        for i, orbit in enumerate(orbits(ds, p))
        for a in orbit_members(orbit.representative, p)
    }
