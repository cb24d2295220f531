"""Slow brute-force routes kept as independent oracles for the library.

The library reads facets and vertices off one double-description
extreme-ray enumerator (`polytope._extreme_rays`). The routes here get the
same data another way and are used only by the tests:

- `sweep_extreme_rays`: the same extreme rays from the kernels of all
  (N-1)-row subsets;
- `sweep_cone`: those rays in the enumerator's form, with their tight rows
  found by dot products;
- `difference_facets`: facets from the kernels of point differences;
- `in_hull`: hull membership from those facets;
- `lp_min_sum`: the exact linear program over basic solutions;
- `triangulate` and `normalized_volume`: the pulling triangulation and the
  volume it gives, against the library's volume from the collapse.
"""

import itertools
from fractions import Fraction
from operator import mul

from npoly import exactmath as xm
from npoly import polytope as pt
from npoly.errors import DegenerateInput


def sweep_extreme_rays(rows):
    """Extreme rays of the cone {z : G.z <= 0} for integer rows G in Z^N.

    Brute force over the (N-1)-subsets of rows: each subset with a
    one-dimensional kernel gives a primitive kernel vector z, kept with the
    sign, if any, that satisfies every row. Returned sorted.
    """
    found = set()
    for subset in itertools.combinations(rows, len(rows[0]) - 1):
        z = xm.kernel_vector(subset)
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
        a = xm.kernel_vector([[x - y for x, y in zip(p, base)] for p in subset[1:]])
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
        k = xm.kernel_vector([[row[j] for j in subset] + [row[count]] for row in rows])
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
