"""Exact slope data for supports with exactly n points and a nonsingular
vertex matrix.

The rational solutions of M*r = 0 (mod 1) in [0,1)^n form a finite abelian
group of order |det M|. Multiplication by an integer m coprime to that order
permutes the group; the orbit structure under the prime p determines the
exact p-adic valuations of the reciprocal zeros of the associated
L-function, with each orbit of size d contributing its mean coordinate-sum
as a slope of multiplicity d. Norm stability under the p-action is
equivalent to the valuations meeting their combinatorial lower bound.

The group is read off one Smith form P*M*Q = D, and its checks cost O(n^2)
per invariant factor rather than a walk over every element. `exactmath.snf`
checks P*M*Q = D, and `from_matrix` checks that the d_i multiply to |det M|;
so det P * det Q = +-1, both are unimodular, and the mixed-radix table holds
|det M| distinct elements (Newman, Integral Matrices, 1972). The table
checks that each generator Q[:, j]/d_j solves M*r = 0 (mod 1), which catches
a Smith form taken of another matrix; a hand-built one whose Q is not
unimodular is caught only by the per-element checks in the test oracles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from . import exactmath as xm
from . import polytope as pt
from .errors import (BrokenInvariant, DegenerateInput, DegenerateMatrix, NotCoprime,
                     NotIndecomposable)


@dataclass(frozen=True, order=True)
class GroupElement:
    """One solution r = a/d_n of M*r = 0 (mod 1), with 0 <= a_i < d_n = modulus;
    the coordinates r, their sum and the order are derived views."""

    a: tuple[int, ...]
    modulus: int

    @property
    def r(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.modulus) for x in self.a)

    @property
    def norm(self) -> Fraction:
        return Fraction(sum(self.a), self.modulus)

    @property
    def order(self) -> int:
        return self.modulus // gcd(self.modulus, *self.a)


@dataclass(frozen=True)
class Orbit:
    representative: GroupElement
    degree: int
    slope: Fraction


@dataclass(frozen=True)
class OrdinaryVerdict:
    ordinary: bool
    witness: GroupElement | None


@dataclass(frozen=True)
class ResidueClassification:
    """Residues m mod d_n whose action preserves the norm, their count mu,
    and their density mu/phi(d_n) among the units mod d_n."""

    modulus: int
    classes: tuple[int, ...]
    mu: int
    density: Fraction


@dataclass(frozen=True)
class DenominatorRelation:
    denominator: int
    largest_invariant_factor: int
    divides: bool


@dataclass(eq=False)
class DiagonalSimplex:
    """Support of exactly n points whose vertex matrix is nonsingular."""

    matrix: xm.IntMatrix
    snf: xm.SnfResult
    det: int
    denominator: int

    @classmethod
    def from_matrix(cls, matrix: xm.IntMatrix) -> "DiagonalSimplex":
        """One adjugate, one SNF: the away-facet e.x = 1 has e_j = c_j/det M, c_j the
        j-th column sum of adj M, so its denominator is D = |det M| / gcd(det M, c)."""
        if not matrix.is_square:
            raise DegenerateMatrix("vertex matrix must be square")
        try:
            adj, det = xm.adjugate(matrix.entries)
        except DegenerateMatrix as exc:
            raise DegenerateMatrix("vertex matrix is singular") from exc
        ds = cls(
            matrix=matrix,
            snf=xm.snf(matrix),
            det=det,
            denominator=abs(det) // gcd(det, *map(sum, zip(*adj))),
        )
        if prod(ds.snf.diag) != abs(det):
            raise BrokenInvariant("the Smith diagonal does not multiply to |det M|")
        if ds.snf.diag[-1] % ds.denominator:
            raise BrokenInvariant("facet denominator does not divide d_n")
        return ds

    @classmethod
    def from_support(cls, support: pt.Support) -> "DiagonalSimplex":
        if len(support.points) != support.dim:
            raise DegenerateInput(
                "need exactly n support points for the n-dimensional group construction"
            )
        return cls.from_matrix(xm.IntMatrix.from_columns(support.points))

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @cached_property
    def polyhedron(self) -> pt.NewtonPolyhedron:
        """The Newton polyhedron, built on first read for its weights."""
        return pt.build(pt.Support(self.dim, tuple(self.matrix.columns())))

    @property
    def group_order(self) -> int:
        return abs(self.det)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.snf.diag

    @property
    def largest_invariant_factor(self) -> int:
        return self.snf.diag[-1]

    @cached_property
    def group(self) -> tuple[GroupElement, ...]:
        """All solutions r = a/d_n of M*r = 0 (mod 1) in [0,1)^n, sorted by (norm, a)."""
        table = self._table
        dn = table.modulus
        return tuple(GroupElement(table.vectors[k], dn) for k in table.order)

    @cached_property
    def _table(self) -> _GroupTable:
        """The group as integers, indexed by Smith coordinates.

        With P*M*Q diagonal, the solutions are exactly the fractional parts of
        Q*s for s ranging over products of the cyclic factors, so element k,
        whose Smith coordinates c_j (0 <= c_j < d_j, d_j > 1) are the digits of
        k in mixed radix with the last factor d_n least significant, is
        a = sum_j c_j*(d_n/d_j)*Q[:, j] mod d_n. Refused before allocating when
        the order exceeds the enumeration budget.

        Closure is checked on the generators: M*Q[:, j] = 0 (mod d_j) for each
        d_j > 1, so every sum of them solves M*r = 0 (mod 1). Distinctness
        needs no walk, since `from_matrix` has shown that Q is unimodular.
        """
        _check_order(self, "group")
        dn = self.largest_invariant_factor
        radices = []
        columns = [[0] for _ in range(self.dim)]
        for d, q in zip(self.snf.diag, self.snf.Q.columns()):
            if d == 1:
                continue
            if any(sum(map(mul, row, q)) % d for row in self.matrix.entries):
                raise BrokenInvariant("a Smith generator does not solve M*r = 0 (mod 1)")
            radices.append(d)
            for i, c in enumerate(q):
                offsets = [c * (dn // d) * j % dn for j in range(d)]
                columns[i] = [(x + y) % dn for x in columns[i] for y in offsets]
        vectors = list(zip(*columns))
        norms = list(map(sum, vectors))
        order = [k for _, _, k in sorted(zip(norms, vectors, range(len(vectors))))]
        return _GroupTable(dn, tuple(radices), vectors, norms, order)


class _GroupTable(NamedTuple):
    """Element k of the group is vectors[k], of norm norms[k]/modulus; order
    lists the indices sorted by (norm, a).

    Multiplication by m acts on the Smith coordinates as c_j -> m*c_j mod d_j,
    so it is a map on indices, k -> m*k mod d_n when the group is cyclic.
    """

    modulus: int
    radices: tuple[int, ...]
    vectors: list[tuple[int, ...]]
    norms: list[int]
    order: list[int]

    def image(self, k: int, m: int) -> int:
        """Index of m*a_k mod d_n."""
        out, place = 0, 1
        for d in reversed(self.radices):
            k, c = divmod(k, d)
            out += m * c % d * place
            place *= d
        return out

    def permutation(self, m: int) -> list[int]:
        """image(k, m) for every index k, built a Smith coordinate at a time."""
        perm = [0]
        for d in self.radices:
            digits = [m * c % d for c in range(d)]
            perm = [x * d + y for x in perm for y in digits]
        return perm

    def unstable(self, m: int) -> int | None:
        """The first index, in (norm, a) order, whose image under m has another
        norm, or None when m keeps every norm; an unstable m usually stops
        after a few elements."""
        norms = self.norms
        return next((k for k in self.order if norms[self.image(k, m)] != norms[k]), None)


def _check_order(ds: DiagonalSimplex, stage: str) -> None:
    """Refuse a group too large to enumerate, before anything is allocated."""
    if ds.group_order > pt.ENUMERATION_LIMIT:
        raise DegenerateInput(
            f"group of order {pt._count_text(ds.group_order)} is too large at stage {stage}"
        )


def m_action(element: GroupElement, m: int) -> GroupElement:
    """Componentwise m*a mod d_n; needs m coprime to the order."""
    if gcd(m, element.order) != 1:
        raise NotCoprime(f"{m} shares a factor with the element order {element.order}")
    d = element.modulus
    return GroupElement(tuple(m * x % d for x in element.a), d)


def m_degree(element: GroupElement, m: int) -> int:
    """Smallest d >= 1 with (m**d - 1)*r integral: the order of m mod order(r)."""
    order = element.order
    if gcd(m, order) != 1:
        raise NotCoprime(f"{m} shares a factor with the element order {order}")
    d = 1
    power = m % order
    while order > 1 and power != 1:
        power = power * m % order
        d += 1
    return d


def orbits(ds: DiagonalSimplex, p: int) -> tuple[Orbit, ...]:
    """Partition of the group under a -> p*a mod d_n, sorted by (slope, representative)."""
    if gcd(p, ds.group_order) != 1:
        raise NotCoprime(f"{p} divides the group order {pt._count_text(ds.group_order)}")
    table = ds._table
    dn, vectors, norms = table.modulus, table.vectors, table.norms
    image = table.permutation(p)
    seen = bytearray(len(image))
    found = []
    for k in table.order:
        if seen[k]:
            continue
        representative = GroupElement(vectors[k], dn)
        total = degree = 0
        while not seen[k]:
            seen[k] = 1
            total += norms[k]
            degree += 1
            k = image[k]
        if degree != m_degree(representative, p):
            raise BrokenInvariant("orbit size differs from the order of p")
        found.append((total, degree, representative))
    # slope = total/(d_n*degree); scaling by d_n*lcm(degrees) sorts in integers
    scale = lcm(*(degree for _, degree, _ in found))
    found.sort(key=lambda tdr: (tdr[0] * (scale // tdr[1]), tdr[2].a))
    return tuple(
        Orbit(representative, degree, Fraction(total, dn * degree))
        for total, degree, representative in found
    )


def orbit_slope(orbit: Orbit, p: int) -> Fraction:
    """Mean coordinate-sum along the orbit, recomputed by walking the action."""
    total = 0
    cur = orbit.representative
    for _ in range(orbit.degree):
        total += sum(cur.a)
        cur = m_action(cur, p)
    if cur != orbit.representative:
        raise DegenerateInput("orbit is not closed under the given prime")
    return Fraction(total, cur.modulus * orbit.degree)


def digit_sum(k: int, p: int) -> int:
    total = 0
    while k:
        total += k % p
        k //= p
    return total


def stickelberger_ord(k: int, p: int, q: int | None = None) -> Fraction:
    """Valuation of the k-th Gauss sum: base-p digit sum of k over p - 1."""
    if k < 0 or (q is not None and k > q - 2):
        raise DegenerateInput(f"index {k} outside the valid range")
    return Fraction(digit_sum(k, p), p - 1)


def slope_from_digit_sums(element: GroupElement, p: int) -> Fraction:
    """Orbit slope of an element computed purely from base-p digit sums.

    Independent oracle for the fractional-part walk: with d the orbit degree
    and q = p**d, each coordinate r_i contributes the valuation of the Gauss
    sum indexed by r_i*(q-1), and the slope is the average over the orbit.
    """
    d = m_degree(element, p)
    q = p**d
    total = Fraction(0)
    for x in element.a:
        k, rest = divmod(x * (q - 1), element.modulus)
        if rest:
            raise BrokenInvariant("(p**d - 1)*r is not integral")
        total += stickelberger_ord(k, p, q)
    return total / d


def newton_polygon_diag(ds: DiagonalSimplex, p: int) -> pt.LowerPolygon:
    """Exact slope multiset: each orbit contributes its slope with its degree."""
    return pt.LowerPolygon.from_runs((o.slope, o.degree) for o in orbits(ds, p))


def hodge_counts_diag(ds: DiagonalSimplex) -> dict[int, int]:
    """H(k) from the group directly: elements of norm k/D, no box scan."""
    table = ds._table
    d = ds.denominator
    counts: dict[int, int] = {}
    # every element's norm is one of the keys, so each element is checked
    for norm, count in sorted(Counter(table.norms).items()):
        k, rest = divmod(norm * d, table.modulus)
        if rest:
            raise BrokenInvariant("element norm is not a multiple of 1/D")
        counts[k] = count
    return counts


def hodge_polygon_diag(ds: DiagonalSimplex) -> pt.LowerPolygon:
    """Slope multiset of the norms: one run per distinct norm k/D."""
    d = ds.denominator
    counts = hodge_counts_diag(ds)
    return pt.LowerPolygon._from_scaled(d, [(k, counts[k]) for k in sorted(counts)])


def is_ordinary(ds: DiagonalSimplex, p: int) -> OrdinaryVerdict:
    """Norm stability under the p-action, with the first violator as witness."""
    if gcd(p, ds.group_order) != 1:
        raise NotCoprime(f"{p} divides the group order {pt._count_text(ds.group_order)}")
    table = ds._table
    k = table.unstable(p)
    if k is None:
        return OrdinaryVerdict(True, None)
    return OrdinaryVerdict(False, GroupElement(table.vectors[k], table.modulus))


def ordinary_residues(ds: DiagonalSimplex) -> ResidueClassification:
    """Residues mod d_n whose action is norm-stable.

    Stability under one application suffices: the action is a bijection, so a
    single stable step propagates along the whole orbit. Any prime p coprime
    to det M acts exactly as p mod d_n does.
    """
    _check_order(ds, "ordinary_residues")
    table = ds._table
    dn = table.modulus
    units = [m for m in range(1, dn + 1) if gcd(m, dn) == 1]
    stable = tuple(m for m in units if table.unstable(m) is None)
    return ResidueClassification(dn, stable, len(stable), Fraction(len(stable), len(units)))


def denominator_divides(ds: DiagonalSimplex) -> DenominatorRelation:
    """The facet-equation denominator divides the largest invariant factor.

    The away-facet normal is the unique solution e of e*M = (1,...,1); its
    entries land in (1/d_n)*Z, so the denominator divides d_n.
    """
    dn = ds.largest_invariant_factor
    return DenominatorRelation(ds.denominator, dn, dn % ds.denominator == 0)


def check_indecomposable_equality(ds: DiagonalSimplex) -> bool:
    """For n <= 3 and a vertex-only away-facet, the denominator equals d_n.

    A non-vertex lattice point M*r of that facet has r >= 0, sum r = 1 and
    each r_i < 1: it is a group element r = a/d_n with sum(a) = d_n."""
    if ds.dim > 3:
        raise DegenerateInput("equality is only guaranteed in ambient dimension <= 3")
    table = ds._table
    if table.modulus in table.norms:
        raise NotIndecomposable(
            "away-facet carries lattice points other than the vertices"
        )
    return ds.denominator == ds.largest_invariant_factor
