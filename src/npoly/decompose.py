"""Facial, collapsing, and hyperplane decompositions of a support.

These reduce questions about a general support to the n-point case: a
support is norm-stable at p exactly when each of its away-facet
restrictions is, and a facet's point set can be recursively collapsed into
n-point pieces whose largest invariant factors bound the primes at which
the generic family attains its lower polygon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import factorial, gcd, lcm

from . import diagonal as dg
from . import exactmath as xm
from . import polytope as pt
from .errors import BrokenInvariant, DegenerateInput, NotCoprime

LatticePoint = xm.LatticePoint

STRATEGIES = ("first-lex", "max-invariant-factor", "exhaustive-min-dstar")


@dataclass(frozen=True)
class FacePiece:
    """Restriction of a support to one away-facet, coned over the origin."""

    facet: pt.Facet
    restricted_support: tuple[LatticePoint, ...]
    is_diagonal: bool


class FacialStatus(Enum):
    ORDINARY = "ordinary"
    NON_ORDINARY = "non_ordinary"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FacialVerdict:
    """A NON_ORDINARY `witness` indexes its face's points sorted."""

    status: FacialStatus
    witness_face: int | None = None
    witness: dg.GroupElement | None = None
    non_diagonal_faces: tuple[int, ...] = ()
    certificate_modulus: int | None = None


@dataclass(frozen=True)
class CollapseResult:
    """Indecomposable n-point pieces of a complete collapse, one record each."""

    pieces: tuple[tuple[LatticePoint, ...], ...]
    piece_invariant_factors: tuple[int, ...]
    dstar: int
    choice_log: tuple[LatticePoint, ...]
    simplices: tuple[dg.DiagonalSimplex, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class FaceCertificate:
    face_index: int
    face: FacePiece
    collapse: CollapseResult
    pieces_ordinary: tuple[bool, ...]
    failing_piece: int | None


@dataclass(frozen=True)
class Certificate:
    certified: bool
    reason: str | None
    dstar: int
    faces: tuple[FaceCertificate, ...]


@dataclass(frozen=True)
class HyperplaneDecomp:
    pieces: tuple[tuple[LatticePoint, ...], ...]
    hyperplanes: tuple[LatticePoint, tuple[int, ...]]
    admissible: bool
    reason: str | None = None


def facial_decompose(support: pt.Support) -> tuple[FacePiece, ...]:
    """One piece per away-facet; points on several facets appear in each."""
    pieces = []
    for facet in pt.build(support).facets_away_from_origin:
        pts = tuple(support.points[i] for i in facet.vertex_indices)
        pieces.append(FacePiece(facet, pts, is_diagonal=len(pts) == support.dim))
    return tuple(pieces)


def facial_collapse(support: pt.Support, strategy: str = "first-lex") -> tuple:
    """Each away-face with its complete collapse, as (FacePiece, CollapseResult)
    pairs. A diagonal face collapses to itself: one piece, its points sorted."""
    return tuple((fp, complete_collapse(fp.restricted_support, strategy))
                 for fp in facial_decompose(support))


def ordinary_via_faces(support: pt.Support, p: int) -> FacialVerdict:
    """Facial reduction of the norm-stability question.

    When every face piece has exactly n points the verdict is the
    conjunction of the per-face verdicts; a witness indexes the columns of
    its face's one collapse piece, the face's points sorted. Otherwise the
    verdict is left open and carries the modulus whose residue-1 primes are
    certified for the generic family, the lcm of the faces' first-lex dstar.
    """
    return _facial_verdict(facial_collapse(support), p)


def _facial_verdict(faces, p: int) -> FacialVerdict:
    """`ordinary_via_faces` at p over `facial_collapse`'s first-lex pairs."""
    for i, (fp, collapse) in enumerate(faces):
        if fp.is_diagonal and gcd(p, collapse.simplices[0].group_order) != 1:
            raise NotCoprime(f"{p} divides the determinant of face {i}")
    non_diagonal = tuple(i for i, (fp, _) in enumerate(faces) if not fp.is_diagonal)
    if non_diagonal:
        return FacialVerdict(FacialStatus.UNKNOWN, non_diagonal_faces=non_diagonal,
                             certificate_modulus=lcm(*(c.dstar for _, c in faces)))
    for i, (_, collapse) in enumerate(faces):
        verdict = dg.is_ordinary(collapse.simplices[0], p)
        if not verdict.ordinary:
            return FacialVerdict(FacialStatus.NON_ORDINARY, i, verdict.witness)
    return FacialVerdict(FacialStatus.ORDINARY)


def _validate_collapse_input(vset) -> tuple[tuple[LatticePoint, ...], int]:
    pts = tuple(sorted(dict.fromkeys(tuple(int(c) for c in p) for p in vset)))
    if not pts:
        raise DegenerateInput("empty point set")
    n = len(pts[0])
    if len(pts) < n:
        raise DegenerateInput("fewer points than the ambient dimension")
    if pt.affine_rank(pts) != n - 1:
        raise DegenerateInput("point set must span a codimension-1 affine subspace")
    if xm.rational_rank(pts) != n:
        raise DegenerateInput("affine hull of the point set passes through the origin")
    return pts, n


def collapse_step(vset, chosen) -> tuple[tuple[LatticePoint, ...], ...]:
    """One collapsing step: remove a vertex and cone it over the exposed faces.

    Returns the remainder set followed by, for each facet of the remainder
    hull visible from the removed vertex, the points lying in the cone of
    that facet over the vertex. Together these cover the input set.
    """
    pts, n = _validate_collapse_input(vset)
    chosen = tuple(int(c) for c in chosen)
    if chosen not in pts:
        raise DegenerateInput("chosen point is not in the set")
    if len(pts) == n:
        return (pts,)
    if pt.affine_rank([p for p in pts if p != chosen]) != n - 1:
        raise DegenerateInput("removing the chosen vertex drops the dimension")
    return pt._step(pts, pt._local_coordinates(pts), chosen)


def _simplex(piece, simplices: dict) -> dg.DiagonalSimplex:
    """The record of an n-point piece, built once per distinct piece in `simplices`."""
    if piece not in simplices:
        simplices[piece] = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_columns(piece))
    return simplices[piece]


def complete_collapse(vset, strategy: str = "first-lex") -> CollapseResult:
    """Collapse recursively until every piece has exactly n points.

    The vertex picked at each step is strategy-dependent; no choice rule is
    known to be optimal, so the strategy is an explicit parameter. Pieces
    are reported once each, although they may share points. The search runs
    in `polytope`, scoring a piece by its d_n; each distinct piece gets one
    `DiagonalSimplex` record, built once and shared by the scores,
    `simplices` and the certificate.
    """
    pts, n = _validate_collapse_input(vset)
    if strategy not in STRATEGIES:
        raise DegenerateInput(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    simplices: dict = {}

    def score(piece):
        return _simplex(piece, simplices).largest_invariant_factor

    if strategy == "exhaustive-min-dstar":
        achievable = pt._achievable_collapses(pts, n, score)
        final, choice_log = achievable[min(achievable)]
    else:
        final, choice_log = pt._greedy_collapse(
            pts, n, score if strategy == "max-invariant-factor" else None)
    unique = tuple(dict.fromkeys(final))
    records = tuple(_simplex(piece, simplices) for piece in unique)
    piece_factors = tuple(ds.largest_invariant_factor for ds in records)
    return CollapseResult(
        pieces=unique,
        piece_invariant_factors=piece_factors,
        dstar=lcm(*piece_factors) if piece_factors else 1,
        choice_log=tuple(choice_log),
        simplices=records,
    )


def generic_ordinary_certificate(
    support: pt.Support, p: int, strategy: str = "first-lex"
) -> Certificate:
    """Sufficient certificate that the generic family attains its lower bound.

    Facially decomposes, collapses each face completely, and checks every
    n-point piece for norm stability at p. A full pass certifies the generic
    family; a failure yields no conclusion in either direction.
    """
    face_certs = []
    certified = True
    reason = None
    dstar = 1
    for i, (fp, collapse) in enumerate(facial_collapse(support, strategy)):
        dstar = lcm(dstar, collapse.dstar)
        verdicts = []
        failing = None
        for j, ds in enumerate(collapse.simplices):
            if gcd(p, ds.group_order) != 1:
                raise NotCoprime(f"{p} divides the determinant of piece {j} of face {i}")
            ok = dg.is_ordinary(ds, p).ordinary
            verdicts.append(ok)
            if not ok and failing is None:
                failing = j
        face_certs.append(
            FaceCertificate(i, fp, collapse, tuple(verdicts), failing)
        )
        if failing is not None and certified:
            certified = False
            reason = f"piece {failing} of face {i} is not norm-stable at {p}"
    return Certificate(certified, reason, dstar, tuple(face_certs))


def admissible_check(delta_support, hyperplane_family) -> HyperplaneDecomp:
    """Cut a facet polytope by parallel hyperplanes and check admissibility.

    The family is a pair (normal, offsets): the cutting planes are
    normal.x = c for each offset c, all parallel by construction. Pieces are
    the closed slabs between consecutive offsets plus the final piece beyond
    the last one. Admissible means every piece is an integral polytope of
    the facet's dimension without interior lattice points, and is generated
    by the support points it contains.
    """
    normal, offsets = hyperplane_family
    normal = tuple(int(c) for c in normal)
    offsets = [int(c) for c in offsets]
    if any(offsets[i] >= offsets[i + 1] for i in range(len(offsets) - 1)):
        raise DegenerateInput("offsets must be strictly increasing")
    pts = tuple(sorted(dict.fromkeys(tuple(int(c) for c in p) for p in delta_support)))
    if not pts:
        raise DegenerateInput("empty support")
    chart = pt.AffineChart(pts)
    d = chart.dim
    if d < 1:
        raise DegenerateInput("support must span at least one dimension")
    local = {p: chart.to_local(p) for p in pts}
    # restrict the functional to chart coordinates: normal.x = coeff.y + c0
    c0 = pt._dot(normal, chart.from_local((0,) * d))
    coeff = tuple(
        pt._dot(normal, chart.from_local(tuple(int(i == j) for i in range(d)))) - c0
        for j in range(d)
    )
    values = [pt._dot(coeff, local[p]) + c0 for p in pts]
    lo, hi = min(values), max(values)
    family = (normal, tuple(offsets))
    if offsets:
        if all(c == 0 for c in coeff):
            raise DegenerateInput("hyperplanes are parallel to the whole facet")
        if offsets[0] >= hi:  # mirrored orientation: flip the functional
            coeff = tuple(-c for c in coeff)
            c0 = -c0
            offsets = sorted(-c for c in offsets)
            lo, hi = -hi, -lo
        if offsets[0] > lo:
            return HyperplaneDecomp(
                (), family, False, "initial hyperplane cuts the interior"
            )
        bounds = [(offsets[i], offsets[i + 1]) for i in range(len(offsets) - 1)]
        bounds.append((offsets[-1], hi))
    else:
        bounds = [(lo, hi)]
    base_ineqs = [(a, b) for a, b, _ in pt.affine_facets(list(local.values()))]
    pieces = []
    support_local = set(local.values())
    for low, high in bounds:
        ineqs = base_ineqs + [
            (tuple(-c for c in coeff), c0 - low),
            (coeff, high - c0),
        ]
        vertices = _vertices_from_inequalities(ineqs, d)
        if not vertices or pt.affine_rank(vertices) != d:
            return HyperplaneDecomp(
                tuple(pieces), family, False, f"piece [{low},{high}] is not {d}-dimensional"
            )
        if any(any(c.denominator != 1 for c in v) for v in vertices):
            return HyperplaneDecomp(
                tuple(pieces), family, False, f"piece [{low},{high}] has a non-integral vertex"
            )
        int_vertices = [tuple(int(c) for c in v) for v in vertices]
        if pt.interior_lattice_points(int_vertices):
            return HyperplaneDecomp(
                tuple(pieces), family, False, f"piece [{low},{high}] has interior lattice points"
            )
        covered = set(int_vertices) <= support_local
        if not covered:
            return HyperplaneDecomp(
                tuple(pieces), family, False,
                f"support points do not generate piece [{low},{high}]",
            )
        pieces.append(tuple(sorted(chart.from_local(v) for v in int_vertices)))
    return HyperplaneDecomp(tuple(pieces), family, True)


def _vertices_from_inequalities(ineqs, d):
    """Vertices of {y : a.y <= b for all (a, b)}, sorted.

    A vertex y = x/t is an extreme ray (x, t) with t > 0 of the cone cut out
    by the homogenized rows (a, -b) and t >= 0; rays with t = 0 are
    recession directions; rows of rank < d + 1 leave no vertex.
    """
    rows = [tuple(a) + (-b,) for a, b in ineqs] + [(0,) * d + (-1,)]
    return sorted(
        tuple(Fraction(c, z[-1]) for c in z[:-1])
        for z, _ in pt._extreme_rays(rows) or ()
        if z[-1] > 0
    )


def regular_subdivision(n: int, d: int) -> tuple[tuple[LatticePoint, ...], ...]:
    """Unimodular simplices tiling the d-fold dilated standard n-simplex.

    In cumulative coordinates the dilation is cut by all integer-offset
    difference hyperplanes; the closed cells are indexed by an integer
    translation plus an ordering of the fractional parts, and each is an
    integral simplex of determinant one. Exactly d**n cells survive of the
    d**n * n! candidates, which are refused past the enumeration budget.
    """
    if n < 1 or d < 1:
        raise DegenerateInput("need n >= 1 and d >= 1")
    # n! >= 2**(n - 1) passes the budget past its bit length: no huge power
    if n > pt.ENUMERATION_LIMIT.bit_length() or d**n * factorial(n) > pt.ENUMERATION_LIMIT:
        n_text = pt._count_text(n)
        raise DegenerateInput(f"{pt._count_text(d)}**{n_text} * {n_text}! candidate cells "
                              "are too many at stage subdivision")
    cells = []
    for m in itertools.product(range(d), repeat=n):
        for perm in itertools.permutations(range(n)):
            verts = [tuple(m)]
            bump = list(m)
            for idx in reversed(perm):
                bump[idx] += 1
                verts.append(tuple(bump))
            if all(_inside_cumulative(v, n, d) for v in verts):
                cells.append(tuple(verts))
    if len(cells) != d**n:
        raise BrokenInvariant(f"{len(cells)} cells survive, expected {d**n}")
    out = []
    for cell in cells:
        out.append(tuple(sorted(_from_cumulative(v) for v in cell)))
    if len(set(out)) != len(out):
        raise BrokenInvariant("two cells of the subdivision coincide")
    return tuple(sorted(out))


def _inside_cumulative(y, n, d) -> bool:
    return 0 <= y[0] and y[-1] <= d and all(y[i] <= y[i + 1] for i in range(n - 1))


def _from_cumulative(y) -> LatticePoint:
    prev = 0
    out = []
    for c in y:
        out.append(c - prev)
        prev = c
    return tuple(out)
