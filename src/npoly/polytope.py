"""Newton polyhedra of lattice supports: facets, weights, Hodge data.

Also houses the exact-geometry toolkit: affine lattice charts, one
double-description extreme-ray enumerator for vertices and for facets with
their point incidences, and one triangulation, the complete collapse, for
the volume and `np decompose`. Coordinates are integers or Fractions.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, gcd, lcm
from operator import and_, mul

from . import exactmath as xm
from .errors import (BrokenInvariant, DegenerateInput, DegenerateMatrix,
                     IncomparablePolygons, NotFullDimensional)

LatticePoint = xm.LatticePoint

# Bounding-box scans, Hodge tables, groups and prime scans refuse to
# enumerate more elements than this.
ENUMERATION_LIMIT = 5_000_000

# CPython's limit on the decimal digits of str(int), read once (0: none);
# below 2**(3 * limit) < 10**limit no power of ten is needed
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_SHORT_BITS = 3 * _DIGIT_LIMIT or sys.maxsize


def _prints(x: int) -> bool:
    """Whether str(x) is within CPython's limit on decimal digits."""
    return x.bit_length() <= _SHORT_BITS or abs(x) < 10**_DIGIT_LIMIT


def _count_text(x: int) -> str:
    """A count for a budget message, or its bit length when it cannot print."""
    return str(x) if _prints(x) else f"<{x.bit_length()}-bit number>"


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set."""
    pts = list(points)
    if len(pts) <= 1:
        return 0
    base = pts[0]
    return xm.rational_rank([_sub(p, base) for p in pts[1:]])


class AffineChart:
    """Unimodular affine coordinates on the lattice of an affine subspace.

    Maps the affine sublattice through the given points isomorphically onto
    Z^dim, preserving normalized volumes; used to do exact geometry inside
    a facet at its intrinsic dimension.
    """

    def __init__(self, points):
        pts = [tuple(int(c) for c in p) for p in points]
        if not pts:
            raise DegenerateInput("chart needs at least one point")
        self.base = pts[0]
        ambient = len(self.base)
        diffs = [_sub(p, self.base) for p in pts[1:]]
        if diffs:
            rows = [[d[i] for d in diffs] for i in range(ambient)]
            p_rows, _, _, rank = xm.smith_engine(rows)
            self._fwd = xm.IntMatrix.from_rows(p_rows)
            self.dim = rank
        else:
            self._fwd = xm.IntMatrix.identity(ambient)
            self.dim = 0

    @cached_property
    def _bwd(self) -> xm.IntMatrix:
        return xm.unimodular_inverse(self._fwd)

    def to_local(self, point) -> LatticePoint:
        v = self._fwd.mul_vector(_sub(point, self.base))
        if any(c != 0 for c in v[self.dim:]):
            raise DegenerateInput("point is off the chart's subspace")
        return tuple(v[: self.dim])

    def from_local(self, local) -> LatticePoint:
        full = tuple(local) + (0,) * (len(self.base) - self.dim)
        return tuple(b + c for b, c in zip(self.base, self._bwd.mul_vector(full)))


def _primitive(z) -> LatticePoint:
    g = gcd(*z)
    return tuple(c // g for c in z)


def _extreme_rays(rows) -> list[tuple[LatticePoint, int]] | None:
    """Extreme rays of the cone {z : G.z <= 0} for integer rows G in Z^N.

    Double description (Motzkin et al. 1953; Fukuda and Prodon 1996), in
    integers. The first N independent rows cut out a simplicial cone whose
    rays are the columns of -sign(det B) adj B. Each remaining row g keeps
    the rays with g.z <= 0 and adds the combination |g.q| p + (g.p) q of
    every adjacent pair with g.p > 0 > g.q; p and q are adjacent when no
    third ray is tight on every row where both are (tight sets are int
    bitmasks). Returns sorted (ray, mask) pairs, bit i of the primitive
    ray's mask set when row i is tight on it; None for rows of rank < N.
    Facets of a hull with their point incidences, and vertices of an
    inequality system, are both read off this cone.
    """
    n = len(rows[0])
    basis = range(n) if len(rows) == n else xm._echelon(list(zip(*rows)))[1]
    if len(basis) < n:  # all-zero rows give an empty basis
        return None
    try:
        adj, det = xm.adjugate([rows[i] for i in basis])
    except DegenerateMatrix:  # a singular square
        return None
    sign = -1 if det > 0 else 1
    rays = [_primitive([sign * c for c in col]) for col in zip(*adj)]
    start = sum(1 << i for i in basis)
    tight = [start & ~(1 << i) for i in basis]  # ray j: every basis row but the j-th
    for i, g in enumerate(rows):
        bit = 1 << i
        if start & bit:
            continue
        sides = [sum(map(mul, g, z)) for z in rays]
        plus = [k for k, s in enumerate(sides) if s > 0]
        minus = [k for k, s in enumerate(sides) if s < 0]
        if len(plus) * len(minus) > ENUMERATION_LIMIT:
            raise DegenerateInput(
                f"{len(plus) * len(minus)} ray pairs are too many at stage facets"
            )
        new_rays = []
        new_tight = []
        for z, t, s in zip(rays, tight, sides):
            if s <= 0:
                new_rays.append(z)
                new_tight.append(t | bit if s == 0 else t)
        for p in plus:
            for q in minus:
                common = tight[p] & tight[q]
                # adjacent rays share N - 2 independent tight rows, so at least N - 2 rows
                if common.bit_count() < n - 2 or any(
                    t & common == common
                    for k, t in enumerate(tight)
                    if k != p and k != q
                ):
                    continue
                sp, sq = sides[p], -sides[q]
                new_rays.append(_primitive([sq * x + sp * y for x, y in zip(rays[p], rays[q])]))
                new_tight.append(common | bit)
        rays, tight = new_rays, new_tight
    return sorted(zip(rays, tight))


def affine_facets(points) -> list[tuple[LatticePoint, int, int]]:
    """Facets of the hull of full-dimensional lattice points in Z^d.

    Returns sorted triples (a, b, mask): a primitive, a.x <= b valid on the
    hull with equality exactly on the facet, and bit i of mask set when the
    i-th distinct point lies on it. They are the extreme rays (a, -b) of the
    cone of pairs with a.p - b <= 0 at every point p, with their tight rows.
    """
    pts = [tuple(int(c) for c in p) for p in dict.fromkeys(map(tuple, points))]
    rays = _extreme_rays([p + (1,) for p in pts])
    if rays is None:
        raise DegenerateInput("facet enumeration needs a full-dimensional hull")
    return sorted((z[:-1], -z[-1], mask) for z, mask in rays)


def _satisfies(facets, x) -> bool:
    return all(_dot(a, x) <= b for a, b, _ in facets)


def _bounding_box(points, stage):
    los = [min(p[i] for p in points) for i in range(len(points[0]))]
    his = [max(p[i] for p in points) for i in range(len(points[0]))]
    size = 1
    for lo, hi in zip(los, his):
        size *= hi - lo + 1
    if size > ENUMERATION_LIMIT:
        raise DegenerateInput(
            f"enumeration box of {_count_text(size)} points is too large at stage {stage}"
        )
    return [range(lo, hi + 1) for lo, hi in zip(los, his)]


def hull_lattice_points(points) -> list[LatticePoint]:
    """All lattice points of a full-dimensional hull, by bounding-box scan."""
    box = _bounding_box(points, "hull_lattice_points")
    facets = affine_facets(points)
    return sorted(u for u in itertools.product(*box) if _satisfies(facets, u))


def interior_lattice_points(points) -> list[LatticePoint]:
    """Lattice points strictly inside a full-dimensional hull in Z^d."""
    facets = affine_facets(points)
    out = []
    for u in itertools.product(*_bounding_box(points, "interior_lattice_points")):
        if all(_dot(a, u) < b for a, b, _ in facets):
            out.append(u)
    return sorted(out)


def _local_coordinates(pts) -> dict:
    """Each point of a codimension-1 set in the set's own affine chart."""
    chart = AffineChart(pts)
    return {p: chart.to_local(p) for p in pts}


def _hull_vertices(masks, count) -> list[int]:
    """Indices i < count at which the facets through point i meet in it
    alone, given each facet's incidence mask: the hull's vertices."""
    full = (1 << count) - 1
    return [i for i in range(count)
            if reduce(and_, (m for m in masks if m >> i & 1), full) == 1 << i]


def _valid_choices(pts, local):
    """Hull vertices whose removal keeps the set full-dimensional (no facet
    holds every other point)."""
    masks = [mask for _, _, mask in affine_facets([local[p] for p in pts])]
    full = (1 << len(pts)) - 1
    return [pts[i] for i in _hull_vertices(masks, len(pts))
            if full ^ (1 << i) not in masks]


def _step(pts, local, chosen):
    """One collapse step on a sorted codimension-1 set of more than n points,
    in its chart, for a chosen point whose removal keeps it full-dimensional.

    Returns the remainder set followed by one piece per facet F of the
    remainder's hull visible from the chosen vertex v: conv(F + v), which
    meets the set in exactly F's points and v, read off F's incidence mask.
    """
    rest = tuple(p for p in pts if p != chosen)
    rest_facets = affine_facets([local[p] for p in rest])
    if _satisfies(rest_facets, local[chosen]):
        raise DegenerateInput("chosen point is not a vertex of the hull")
    pieces = [rest]
    for a, b, mask in rest_facets:
        if _dot(a, local[chosen]) <= b:
            continue  # facet not visible from the removed vertex
        face = [p for i, p in enumerate(rest) if mask >> i & 1]
        pieces.append(tuple(sorted(face + [chosen])))
    return tuple(pieces)


def _pick_first_lex(cur, local, choices):
    chosen = min(choices)
    return chosen, _step(cur, local, chosen)


def _greedy_collapse(pts, n, pick=_pick_first_lex):
    """Complete collapse of a sorted codimension-1 set: (n-point pieces,
    chosen vertices). A step is a placing step run backwards, so the pieces
    triangulate the hull. pick(set, chart, choices) returns (vertex, step)."""
    stack = [pts]
    final = []
    log = []
    while stack:
        cur = stack.pop(0)
        if len(cur) == n:
            final.append(cur)
            continue
        local = _local_coordinates(cur)
        choices = _valid_choices(cur, local)
        if not choices:
            raise DegenerateInput("no vertex can be removed without degenerating")
        chosen, pieces = pick(cur, local, choices)
        log.append(chosen)
        stack.extend(pieces)
    return final, log


# ---------------------------------------------------------------------------
# Newton polyhedron of a support set


@dataclass(frozen=True)
class Support:
    """Nonzero lattice exponent vectors spanning the ambient space."""

    dim: int
    points: tuple[LatticePoint, ...]

    def __post_init__(self):
        pts = tuple(tuple(int(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise DegenerateInput("support is empty")
        if any(len(p) != self.dim for p in pts):
            raise DegenerateInput("support points have inconsistent dimension")
        if any(all(c == 0 for c in p) for p in pts):
            raise DegenerateInput("origin is not allowed as a support point")
        if len(set(pts)) != len(pts):
            raise DegenerateInput("support points must be distinct")
        if xm.rational_rank(pts) != self.dim:
            raise NotFullDimensional(
                "support together with the origin does not span the ambient space"
            )


@dataclass(frozen=True)
class Facet:
    """Codimension-1 face away from the origin, on the hyperplane a.x = b.

    a is primitive and b > 0, so b is the facet's denominator and the
    lattice distance of the hyperplane from the origin. vertex_indices
    lists every support point on the facet, not only its vertices.
    """

    a: LatticePoint
    b: int
    vertex_indices: tuple[int, ...]

    @property
    def normal(self) -> tuple[Fraction, ...]:
        """The facet equation in the form e.x = 1."""
        return tuple(Fraction(c, self.b) for c in self.a)


def _scaled_runs(pairs) -> tuple[int, list[tuple[int, int]]]:
    """(scale, [(scale*slope, multiplicity), ...]) for rational slopes, scale the
    lcm of their denominators. Pairs of multiplicity zero drop out; a negative
    one keeps its place, with slope 0, so that _merge_runs refuses the first
    fault in order."""
    runs = [(s if isinstance(s, Fraction) else Fraction(s), m) if m > 0 else (0, m)
            for s, m in pairs if m]
    scale = lcm(*(s.denominator for s, _ in runs))
    return scale, [(s.numerator * (scale // s.denominator), m) for s, m in runs]


def _merge_runs(pairs) -> tuple[tuple[int, int], ...]:
    """Canonical runs of (step, multiplicity) pairs with non-decreasing integer steps."""
    runs: list[tuple[int, int]] = []
    last = None
    for s, m in pairs:
        if m < 0:
            raise DegenerateInput("multiplicities must be non-negative")
        if not m:
            continue
        if runs and s <= last:
            if s != last:
                raise DegenerateInput("slopes must be non-decreasing")
            runs[-1] = (s, runs[-1][1] + m)
        else:
            runs.append((s, m))
            last = s
    return tuple(runs)


@dataclass(frozen=True, init=False)
class LowerPolygon:
    """Lower-convex polygon through (0,0), stored as integer slope runs.

    steps = ((scale*slope, multiplicity), ...) with strictly increasing slopes
    and positive multiplicities, scale the lcm of the reduced slope
    denominators; so scale and the step numerators share no factor, and
    equality and hashing compare the polygon exactly. The (slope,
    multiplicity) runs, the slope multiset, the vertex list and the
    cumulative sums are derived views.
    """

    scale: int
    steps: tuple[tuple[int, int], ...]

    def __init__(self, slopes=()):
        self._assign(*_scaled_runs((s, 1) for s in slopes))

    def _assign(self, scale: int, pairs) -> None:
        steps = _merge_runs(pairs)
        g = gcd(scale, *(s for s, _ in steps))
        if g > 1:
            scale, steps = scale // g, tuple((s // g, m) for s, m in steps)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def _from_scaled(cls, scale: int, pairs) -> "LowerPolygon":
        """Polygon from (scale*slope, multiplicity) pairs with non-decreasing
        integer steps over a positive scale, without building a Fraction."""
        poly = cls.__new__(cls)
        poly._assign(scale, pairs)
        return poly

    @classmethod
    def from_runs(cls, runs) -> "LowerPolygon":
        """Polygon from (slope, multiplicity) pairs with non-decreasing slopes;
        equal slopes merge and zero multiplicities drop out."""
        return cls._from_scaled(*_scaled_runs(runs))

    @classmethod
    def from_slopes(cls, slopes) -> "LowerPolygon":
        return cls(sorted(Fraction(s) for s in slopes))

    @classmethod
    def from_vertices(cls, vertices) -> "LowerPolygon":
        verts = [(Fraction(x), Fraction(y)) for x, y in vertices]
        if not verts or verts[0] != (0, 0):
            raise DegenerateInput("polygon must start at the origin")
        runs = []
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            run = x1 - x0
            if run == 0 and y1 == y0:
                continue
            if run <= 0 or run.denominator != 1:
                raise DegenerateInput("abscissae must increase by positive integers")
            runs.append(((y1 - y0) / run, int(run)))
        return cls.from_runs(sorted(runs))

    @property
    def runs(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple((Fraction(s, self.scale), m) for s, m in self.steps)

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(s for s, m in self.runs for _ in range(m))

    @property
    def length(self) -> int:
        return sum(m for _, m in self.steps)

    def cumulative(self) -> tuple[Fraction, ...]:
        return tuple(itertools.accumulate(self.slopes, initial=Fraction(0)))

    def _abscissae(self) -> list[int]:
        """Abscissae of the vertices: 0 and the running sums of the multiplicities."""
        return list(itertools.accumulate((m for _, m in self.steps), initial=0))

    def _scaled_vertices(self) -> tuple[int, list[tuple[int, int]]]:
        """(scale, [(x, scale*y), ...]): the vertices in integers, the heights
        the running sums of the steps times their multiplicities."""
        heights = itertools.accumulate((s * m for s, m in self.steps), initial=0)
        return self.scale, list(zip(self._abscissae(), heights))

    @property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        scale, points = self._scaled_vertices()
        return tuple((Fraction(x), Fraction(y, scale)) for x, y in points)

    @property
    def endpoint(self) -> tuple[Fraction, Fraction]:
        return self.vertices[-1]


class Dominance(Enum):
    ABOVE = "above"
    ABOVE_STRICT_SOMEWHERE = "above_strict_somewhere"
    VIOLATION = "violation"


@dataclass(frozen=True)
class PolygonComparison:
    status: Dominance
    endpoints_coincide: bool
    witness: tuple[int, Fraction, Fraction] | None = None


def _scaled_heights(poly: LowerPolygon, scale: int, xs) -> list[int]:
    """scale times the cumulative slope sum of poly at each sorted integer in xs."""
    out = []
    factor = scale // poly.scale
    steps = iter(poly.steps)
    x = y = step = m = 0
    for t in xs:
        while x + m < t:
            x, y = x + m, y + step * m
            s, m = next(steps)
            step = s * factor
        out.append(y + step * (t - x))
    return out


def lies_above(upper: LowerPolygon, lower: LowerPolygon) -> PolygonComparison:
    """Pointwise comparison of two lower polygons sharing an endpoint abscissa.

    Both polygons have breakpoints only at integer abscissae, so comparing
    the cumulative slope sums at every integer decides the order everywhere.
    The sums are integers scaled by the lcm of the two polygons' scales, and
    between consecutive breakpoints of either polygon their difference is
    linear, so the breakpoints decide the status and the first violating
    integer inside a segment comes from one division.
    """
    if upper.length != lower.length:
        raise IncomparablePolygons(
            f"polygon lengths differ: {upper.length} vs {lower.length}"
        )
    scale = lcm(upper.scale, lower.scale)
    xs = sorted(set(upper._abscissae()) | set(lower._abscissae()))
    hu = _scaled_heights(upper, scale, xs)
    hl = _scaled_heights(lower, scale, xs)
    coincide = hu[-1] == hl[-1]
    strict = False
    for i, (a, b) in enumerate(zip(hu, hl)):
        if a < b:
            # both start at 0, so i > 0 and the previous breakpoint is not below
            x0, a0, b0 = xs[i - 1], hu[i - 1], hl[i - 1]
            width = xs[i] - x0
            k = x0 + (a0 - b0) * width // ((a0 - b0) - (a - b)) + 1
            ak = a0 + (a - a0) // width * (k - x0)
            bk = b0 + (b - b0) // width * (k - x0)
            witness = (k, Fraction(ak, scale), Fraction(bk, scale))
            return PolygonComparison(Dominance.VIOLATION, coincide, witness)
        if a > b:
            strict = True
    status = Dominance.ABOVE_STRICT_SOMEWHERE if strict else Dominance.ABOVE
    return PolygonComparison(status, coincide)


@dataclass(frozen=True)
class HodgeData:
    """Weight counts W(k), their alternating corrections H(k), and the polygon."""

    W: dict[int, int]
    H: dict[int, int]
    polygon: LowerPolygon


@dataclass
class NewtonPolyhedron:
    """Hull of a support set with the origin, with its away-facet data."""

    support: Support
    facets_away_from_origin: tuple[Facet, ...]
    denominator: int
    cone_normals: tuple[LatticePoint, ...]
    _hodge: HodgeData | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.support.dim

    @cached_property
    def normalized_volume(self) -> int:
        """Sum of |det σ| over the pieces σ of each away-facet's first-lex
        complete collapse, computed on first read.

        The collapse runs on the facet's vertices: the support points at
        which the facets through them (the away-facets' incidences and the
        cone facets g.x = 0) meet alone. Its pieces triangulate the facet;
        coned from the origin, they tile the polyhedron with simplices of
        normalized volume |det σ|.
        """
        pts = self.support.points
        away = self.facets_away_from_origin
        masks = [sum(1 << i for i in f.vertex_indices) for f in away]
        masks += [sum(1 << i for i, p in enumerate(pts) if _dot(g, p) == 0)
                  for g in self.cone_normals]
        vertices = set(_hull_vertices(masks, len(pts)))
        faces = (tuple(sorted(pts[i] for i in f.vertex_indices if i in vertices))
                 for f in away)
        return sum(abs(xm.determinant(xm.IntMatrix.from_columns(piece)))
                   for face in faces for piece in _greedy_collapse(face, self.dim)[0])

    def in_cone(self, u) -> bool:
        return all(_dot(g, u) >= 0 for g in self.cone_normals)

    def _scaled_weight(self, u) -> int | None:
        """D*w(u), an integer; None when u is outside the cone."""
        if not self.in_cone(u):
            return None
        d = self.denominator
        return max(_dot(f.a, u) * (d // f.b) for f in self.facets_away_from_origin)

    def weight(self, u) -> Fraction | None:
        """Smallest c >= 0 with u in c*hull; None when u is outside the cone.

        Computed from the integer facet equations; the property tests check
        it against the independent linear program over the support.
        """
        k = self._scaled_weight(tuple(int(c) for c in u))
        return None if k is None else Fraction(k, self.denominator)

    def hodge_data(self) -> HodgeData:
        """Counts of lattice points by weight and the resulting lower polygon.

        W(k) counts lattice points of weight k/D by scanning the bounding box
        of the n-fold dilation; H(k) applies the alternating binomial
        correction and must sum to the normalized volume. A table of more
        than ENUMERATION_LIMIT rows (k = 0..n*D) is refused before allocation.
        """
        if self._hodge is not None:
            return self._hodge
        n = self.dim
        d = self.denominator
        kmax = n * d
        dilated = [tuple(n * c for c in p) for p in self.support.points] + [(0,) * n]
        # refuse an oversized box or table before allocating
        box = _bounding_box(dilated, "hodge")
        if kmax + 1 > ENUMERATION_LIMIT:
            raise DegenerateInput(
                f"table of {_count_text(kmax + 1)} rows is too large at stage hodge"
            )
        w_counts = {k: 0 for k in range(kmax + 1)}
        for u in itertools.product(*box):
            k = self._scaled_weight(u)
            if k is not None and k <= kmax:
                w_counts[k] += 1
        h_counts = {}
        for k in range(kmax + 1):
            h = sum(
                (-1) ** i * comb(n, i) * w_counts.get(k - i * d, 0)
                for i in range(n + 1)
            )
            if h < 0:
                raise BrokenInvariant(f"negative Hodge number H({k}) = {h}")
            h_counts[k] = h
        if sum(h_counts.values()) != self.normalized_volume:
            raise BrokenInvariant("Hodge numbers do not sum to the normalized volume")
        polygon = LowerPolygon._from_scaled(d, h_counts.items())
        self._hodge = HodgeData(w_counts, h_counts, polygon)
        return self._hodge

    def hodge_polygon(self) -> LowerPolygon:
        return self.hodge_data().polygon

    def cofacial(self, u, u2) -> bool:
        """Whether the rays of u and u2 meet a common closed away-facet.

        Equivalent to additivity of the weight at u + u2, which is verified
        on every call.
        """
        u = tuple(int(c) for c in u)
        u2 = tuple(int(c) for c in u2)
        k1 = self._scaled_weight(u)
        k2 = self._scaled_weight(u2)
        if k1 is None or k2 is None:
            raise DegenerateInput("cofaciality needs both points inside the cone")
        if k1 == 0 or k2 == 0:
            raise DegenerateInput("cofaciality is not defined at the origin")
        d = self.denominator
        shared = any(
            _dot(f.a, u) * (d // f.b) == k1 and _dot(f.a, u2) * (d // f.b) == k2
            for f in self.facets_away_from_origin
        )
        if shared != (self._scaled_weight(_add(u, u2)) == k1 + k2):
            raise BrokenInvariant("cofaciality disagrees with weight additivity")
        return shared


def build(support: Support) -> NewtonPolyhedron:
    """Newton polyhedron of a support: away-facets, denominator and cone.

    Everything comes from one facet enumeration of the hull of the support
    and the origin. Facets a.x <= b with b > 0 avoid the origin; those with
    b = 0 bound the cone. The normalized volume is derived from the
    away-facets when first read.
    """
    n = support.dim
    pts = support.points
    away = []
    cone = []
    for a, b, mask in affine_facets(list(pts) + [(0,) * n]):
        if b == 0:
            cone.append(tuple(-c for c in a))
            continue
        incident = tuple(i for i in range(len(pts)) if mask >> i & 1)
        away.append(Facet(a, b, incident))
    away.sort(key=lambda f: f.normal)
    return NewtonPolyhedron(
        support=support,
        facets_away_from_origin=tuple(away),
        denominator=lcm(*(f.b for f in away)),
        cone_normals=tuple(sorted(cone)),
    )
