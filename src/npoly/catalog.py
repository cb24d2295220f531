"""Constructors for the named support families, with checkable facts attached.

Each family records a handful of exact expected values (facet denominator,
L-function degree, invariant factors, ...) that the test suite recomputes
through the geometry and group machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, lcm, prod

from . import decompose as dc
from . import diagonal as dg
from . import exactmath as xm
from . import polytope as pt
from .errors import DegenerateInput

Fact = tuple[str, object]


@dataclass(frozen=True)
class NamedFamily:
    name: str
    parameters: tuple[tuple[str, object], ...]
    support: pt.Support
    expected_facts: tuple[Fact, ...]


def _unit(i: int, n: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def _int(value, name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise DegenerateInput(f"{name} must be an integer") from exc


def _intlist(value, name: str) -> tuple[int, ...]:
    try:
        out = tuple(int(v) for v in value)
    except TypeError as exc:
        raise DegenerateInput(f"{name} must be a list of integers") from exc
    if not out or any(v < 1 for v in out):
        raise DegenerateInput(f"{name} must be positive integers")
    return out


def _monomial(params):
    d = _int(params["d"], "d")
    if d < 1:
        raise DegenerateInput("degree must be positive")
    support = pt.Support(1, ((d,),))
    return support, (
        ("denominator", d),
        ("lfunction_degree", d),
        ("away_facet_count", 1),
        ("ordinary_classes", (1,)),
    )


def _kloosterman(params):
    n = _int(params["n"], "n")
    if n < 1:
        raise DegenerateInput("dimension must be positive")
    points = tuple(_unit(i, n) for i in range(n)) + ((-1,) * n,)
    support = pt.Support(n, points)
    return support, (
        ("denominator", 1),
        ("lfunction_degree", n + 1),
        ("away_facet_count", n + 1),
        ("ordinary_for_primes_below_50", True),
    )


def _generalized_kloosterman(params):
    n = _int(params["n"], "n")
    v = _intlist(params["v"], "v")
    if len(v) != n:
        raise DegenerateInput("v must have length n")
    points = tuple(_unit(i, n) for i in range(n)) + (tuple(-c for c in v),)
    support = pt.Support(n, points)
    return support, (
        ("denominator", 1),
        ("lfunction_degree", 1 + sum(v)),
        ("away_facet_count", n + 1),
        ("dstar", lcm(*v)),
    )


def _two_sided(params):
    n = _int(params["n"], "n")
    u = _intlist(params["u"], "u")
    v = _intlist(params["v"], "v")
    if len(u) != n or len(v) != n:
        raise DegenerateInput("u and v must have length n")
    points = tuple(tuple(u[i] * c for c in _unit(i, n)) for i in range(n))
    points += (tuple(-c for c in v),)
    support = pt.Support(n, points)
    return support, (("away_facet_count", n + 1),)


def _inverted(params):
    n = _int(params["n"], "n")
    v = _intlist(params["v"], "v")
    if len(v) != n:
        raise DegenerateInput("v must have length n")
    points = tuple(_unit(i, n) for i in range(n)) + (tuple(v),)
    if points[-1] in points[:-1]:
        raise DegenerateInput("v coincides with a unit vector")
    support = pt.Support(n, points)
    return support, (("lfunction_degree", sum(v)),)


def _bi_kloosterman(params):
    n = _int(params["n"], "n")
    if n < 2:
        raise DegenerateInput("two-sided family needs n >= 2")
    u = _intlist(params["u"], "u")
    v = _intlist(params["v"], "v")
    if len(u) != n or len(v) != n:
        raise DegenerateInput("u and v must have length n")
    points = tuple(_unit(i, n) for i in range(n))
    points += tuple(tuple(-c for c in _unit(i, n)) for i in range(n))
    points += (tuple(-c for c in u), tuple(v))
    support = pt.Support(n, tuple(dict.fromkeys(points)))
    facts = []
    degree = _bi_kloosterman_degree(n, u, v)
    if degree is not None:
        facts.append(("lfunction_degree", degree))
    if all(c == 1 for c in u) and all(c == 1 for c in v):
        facts.append(("denominator", 1))
        if n == 2:
            # in higher dimensions adjacent triangular faces merge into
            # quadrilaterals, so the naive face count only holds here
            facts.append(("away_facet_count", 2**n + 2 * n - 2))
            facts.append(("ordinary_for_primes_below_50", True))
        if n <= 3:
            facts.append(("dstar", 1))
    return support, tuple(facts)


def _bi_kloosterman_degree(n, u, v):
    """Normalized volume of conv(+-e_i, -u, v), or None outside the proven case.

    The cross-polytope conv(+-e_i) has volume 2^n, and a point x beyond its
    unimodular facet s.x = 1 (s in {1,-1}^n) adds a pyramid of volume s.x - 1.
    The caps of v and -u add up when no facet seen from -u is seen from v or
    shares a ridge (differs in one sign) with one: -u then sees no new face.
    """
    signs = list(itertools.product((1, -1), repeat=n))
    seen_v = [s for s in signs if pt._dot(s, v) > 1]
    seen_u = [s for s in signs if -pt._dot(s, u) > 1]
    for s in seen_u:
        if any(sum(a != b for a, b in zip(s, t)) <= 1 for t in seen_v):
            return None
    return (2**n + sum(pt._dot(s, v) - 1 for s in seen_v)
            + sum(-pt._dot(s, u) - 1 for s in seen_u))


def _box(params):
    dims = _intlist(params["dims"], "dims")
    n = len(dims)
    points = tuple(
        tuple(c) + (1,)
        for c in itertools.product(*(range(d + 1) for d in dims))
    )
    support = pt.Support(n + 1, points)
    facts = [
        ("denominator", 1),
        ("away_facet_count", 1),
        ("lfunction_degree", factorial(n) * prod(dims)),
    ]
    if all(d == 1 for d in dims):
        facts.append(("dstar", 1))
    return support, tuple(facts)


def _dilated_simplex(params):
    n = _int(params["n"], "n")
    d = _int(params["d"], "d")
    height = _int(params.get("D", 1), "D")
    if n < 1 or d < 1 or height < 1:
        raise DegenerateInput("need n, d, D >= 1")
    points = []
    for c in itertools.product(range(d + 1), repeat=n):
        if sum(c) <= d:
            points.append(tuple(c) + (height,))
    support = pt.Support(n + 1, tuple(points))
    facts = [
        ("denominator", height),
        ("away_facet_count", 1),
        ("lfunction_degree", height * d**n),
    ]
    if n == 2:
        facts.append(("dstar", height))
    return support, tuple(facts)


# columns of the 5-dimensional simplex with determinant 3 whose two nonzero
# group elements swap under primes in the residue class 2 mod 3
_FIVE_DIM = (
    (1, 0, 0, 0, 0),
    (1, 0, 1, 1, 1),
    (1, 1, 0, 1, 1),
    (1, 1, 1, 0, 1),
    (1, 1, 1, 1, 0),
)


def _five_dim(params):
    support = pt.Support(5, _FIVE_DIM)
    return support, (
        ("denominator", 1),
        ("det_abs", 3),
        ("hodge_counts", ((0, 1), (2, 1), (3, 1))),
        ("ordinary_classes", (1,)),
    )


def _extend_dim(params):
    """The five-dimensional simplex padded into dimension n >= 6."""
    n = _int(params["n"], "n")
    if n < 6:
        raise DegenerateInput("extension only makes sense for n >= 6")
    cols = [c + (0,) * (n - 5) for c in _FIVE_DIM]
    cols += [(1, 0, 0, 0, 0) + _unit(j, n - 5) for j in range(n - 5)]
    support = pt.Support(n, tuple(cols))
    return support, (("denominator", 1), ("det_abs", 3), ("ordinary_classes", (1,)))


def _four_dim(params):
    """Facet denominator D but largest invariant factor D**k (D, k >= 2)."""
    big_d = _int(params["D"], "D")
    k = _int(params["k"], "k")
    if big_d < 2 or k < 2:
        raise DegenerateInput("need D >= 2 and k >= 2")
    cols = ((big_d, 0, 0, 0), (big_d, 1, 0, 0), (big_d, 1, 1, 0),
            (big_d, 0, -1, big_d**k))
    support = pt.Support(4, cols)
    return support, (
        ("denominator", big_d),
        ("largest_invariant_factor", big_d**k),
        ("det_abs", big_d ** (k + 1)),
    )


_BUILDERS = {
    "monomial": _monomial,
    "kloosterman": _kloosterman,
    "generalized_kloosterman": _generalized_kloosterman,
    "two_sided": _two_sided,
    "inverted": _inverted,
    "bi_kloosterman": _bi_kloosterman,
    "box": _box,
    "dilated_simplex": _dilated_simplex,
    "five_dim": _five_dim,
    "extend_dim": _extend_dim,
    "four_dim": _four_dim,
}

FAMILY_NAMES = tuple(sorted(_BUILDERS))


def make(name: str, parameters=None) -> NamedFamily:
    params = dict(parameters or {})
    if not isinstance(name, str) or name not in _BUILDERS:
        raise DegenerateInput(f"unknown family {name!r}; known: {FAMILY_NAMES}")
    try:
        support, facts = _BUILDERS[name](params)
    except KeyError as exc:
        raise DegenerateInput(f"family {name!r} is missing parameter {exc}") from exc
    return NamedFamily(
        name=name,
        parameters=tuple(sorted(params.items())),
        support=support,
        expected_facts=facts,
    )


def evaluate_fact(family: NamedFamily, kind: str):
    """Recompute one expected fact through the main machinery."""
    support = family.support
    if kind == "denominator":
        return pt.build(support).denominator
    if kind == "lfunction_degree":
        return pt.build(support).normalized_volume
    if kind == "away_facet_count":
        return len(pt.build(support).facets_away_from_origin)
    if kind == "det_abs":
        return abs(xm.determinant(xm.IntMatrix.from_columns(support.points)))
    if kind == "largest_invariant_factor":
        return dg.DiagonalSimplex.from_support(support).largest_invariant_factor
    if kind == "hodge_counts":
        data = pt.build(support).hodge_data()
        return tuple(sorted((k, h) for k, h in data.H.items() if h))
    if kind == "ordinary_classes":
        return dg.ordinary_residues(dg.DiagonalSimplex.from_support(support)).classes
    if kind == "dstar":
        pieces = dc.facial_decompose(support)
        return lcm(
            *(dc.complete_collapse(fp.restricted_support).dstar for fp in pieces)
        )
    if kind == "ordinary_for_primes_below_50":
        from . import errors
        from .primes import primes_below

        verdicts = []
        for p in primes_below(50):
            try:
                verdict = dc.ordinary_via_faces(support, p)
            except errors.NotCoprime:
                continue
            verdicts.append(verdict.status is dc.FacialStatus.ORDINARY)
        return all(verdicts) and bool(verdicts)
    raise DegenerateInput(f"unknown fact kind {kind!r}")


def check_family(family: NamedFamily) -> list[tuple[str, object, object, bool]]:
    """Recompute every fact; returns (kind, expected, actual, ok) rows."""
    rows = []
    for kind, expected in family.expected_facts:
        actual = evaluate_fact(family, kind)
        rows.append((kind, expected, actual, actual == expected))
    return rows
