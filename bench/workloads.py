"""Seeded document streams for the three benchmark workloads.

Every stream is infinite and deterministic in its seed, and no two documents
of one stream share a support, so a cache kept across calls only wins on
work the documents really share. Supports are valid by construction: the
generator never asks npoly whether an input is acceptable. Each document
carries the support the benchmark built itself and the exact facts its
checker needs (normalized volume, determinant), derived from the
construction rather than from npoly.

Categories rotate by document index, so any prefix of a stream has nearly
the same mix of cheap and expensive documents; that keeps the medians and
percentiles of a time-bounded run steady from seed to seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, isqrt, prod

import arith

WORKLOADS = ("hodge-general", "diagonal-groups", "decompose-faces")
DEFAULT_SEED = 0

Point = tuple[int, ...]

_FORMATS = ("json", "text", "csv")


@dataclass(frozen=True)
class Document:
    """One `np` invocation: command, options, input document and its facts."""

    index: int
    command: str
    options: tuple[str, ...]
    doc: dict
    support: tuple[Point, ...]
    facts: dict = field(default_factory=dict)

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.options]

    def text(self) -> str:
        return json.dumps(self.doc, sort_keys=True)

    def key(self) -> str:
        """Content key: the same invocation gets the same key in any stream."""
        blob = json.dumps([self.command, list(self.options), self.doc], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def documents(workload: str, seed: int):
    """Infinite stream of distinct-support documents for a workload and seed."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"npoly-bench/{workload}/{seed}")
    return _STREAMS[workload](_Drawer(rng))


class _Drawer:
    """Seeded draws plus the set of supports already used in the stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[tuple[Point, ...]] = set()

    def fresh(self, *draws):
        """First draw, trying each drawer in turn, whose support is new."""
        for draw in draws:
            for _ in range(40):
                item = draw()
                key = tuple(sorted(item[0]))
                if key not in self.seen:
                    self.seen.add(key)
                    return item
        raise RuntimeError("generator ran out of fresh supports")

    def prime(self, lo: int, hi: int, avoid: int = 1) -> int:
        while True:
            p = self.rng.randrange(lo, hi)
            if arith.is_prime(p) and avoid % p != 0:
                return p


def _explicit(support) -> dict:
    return {"n": len(support[0]), "support": [list(p) for p in support]}


def _family(name: str, **params) -> dict:
    return {"family": {"name": name, "parameters": params}}


def _unit(i: int, n: int, scale: int = 1) -> Point:
    return tuple(scale * int(j == i) for j in range(n))


# ---------------------------------------------------------------------------
# catalog families, rebuilt from their definitions


def kloosterman(n):
    return tuple(_unit(i, n) for i in range(n)) + ((-1,) * n,), n + 1


def generalized_kloosterman(n, v):
    return tuple(_unit(i, n) for i in range(n)) + (tuple(-c for c in v),), 1 + sum(v)


def two_sided(n, u, v):
    pts = tuple(_unit(i, n, u[i]) for i in range(n)) + (tuple(-c for c in v),)
    vol = prod(u) + sum(v[i] * prod(u[:i] + u[i + 1:]) for i in range(n))
    return pts, vol


def bi_kloosterman(n, u, v):
    pts = [_unit(i, n) for i in range(n)] + [_unit(i, n, -1) for i in range(n)]
    pts += [tuple(-c for c in u), tuple(v)]
    return tuple(dict.fromkeys(pts)), sum(u) + sum(v) + 2**n - 2


def box(dims):
    pts = tuple(c + (1,) for c in itertools.product(*(range(d + 1) for d in dims)))
    return pts, factorial(len(dims)) * prod(dims)


def dilated_simplex(n, d, height):
    pts = tuple(c + (height,) for c in itertools.product(range(d + 1), repeat=n)
                if sum(c) <= d)
    return pts, height * d**n


def four_dim(big_d, k):
    rows = [[big_d] * 4, [0, 1, 1, 0], [0, 0, 1, -1], [0, 0, 0, big_d**k]]
    return tuple(zip(*rows))


_FIVE_DIM_ROWS = [[1, 1, 1, 1, 1], [0, 0, 1, 1, 1], [0, 1, 0, 1, 1],
                  [0, 1, 1, 0, 1], [0, 1, 1, 1, 0]]


def five_dim():
    return tuple(zip(*_FIVE_DIM_ROWS))


def extend_dim(n):
    cols = [tuple(c) + (0,) * (n - 5) for c in zip(*_FIVE_DIM_ROWS)]
    cols += [(1, 0, 0, 0, 0) + _unit(j, n - 5) for j in range(n - 5)]
    return tuple(cols)


# ---------------------------------------------------------------------------
# hodge-general: general supports with more than n points


def _cross_frame(rng, n, a_max):
    """Cross-polytope conv(a_i e_i, -b_i e_i): volume prod(a_i + b_i)."""
    a = [rng.randint(1, a_max) for _ in range(n)]
    b = [rng.randint(1, a_max) for _ in range(n)]
    verts = [_unit(i, n, a[i]) for i in range(n)] + [_unit(i, n, -b[i]) for i in range(n)]

    def inside(x):
        total = sum(Fraction(c, a[i]) if c >= 0 else Fraction(-c, b[i])
                    for i, c in enumerate(x))
        return total <= 1

    return verts, prod(x + y for x, y in zip(a, b)), inside


def _simplex_frame(rng, n, coord, weight):
    """Simplex around the origin: sum_i w_i v_i = 0 with w_n = 1."""
    while True:
        verts = [tuple(rng.randint(-coord, coord) for _ in range(n)) for _ in range(n)]
        w = [rng.randint(1, weight) for _ in range(n)]
        last = tuple(-sum(w[i] * verts[i][j] for i in range(n)) for j in range(n))
        verts.append(last)
        if arith.det(arith.columns_matrix(verts[:n])) != 0 and len(set(verts)) == n + 1:
            break
    vol = sum(abs(arith.det(arith.columns_matrix(verts[:i] + verts[i + 1:])))
              for i in range(n + 1))

    def inside(x):
        lam = arith.barycentric(verts, x)
        return lam is not None and min(lam) >= 0

    return verts, vol, inside


def _with_extra_points(rng, verts, inside, extra):
    """Add lattice points of the frame's hull: the hull, and its volume, stay."""
    n = len(verts[0])
    lo = [min(v[j] for v in verts) for j in range(n)]
    hi = [max(v[j] for v in verts) for j in range(n)]
    pts = list(verts)
    for _ in range(60 * extra):
        if len(pts) == len(verts) + extra:
            break
        x = tuple(rng.randint(lo[j], hi[j]) for j in range(n))
        if any(x) and x not in pts and inside(x):
            pts.append(x)
    rng.shuffle(pts)
    return tuple(pts)


def _random_general(rng, kind, n, extra):
    """A cross or simplex frame around the origin plus `extra` lattice points."""
    if kind == "cross":
        verts, vol, inside = _cross_frame(rng, n, 3 if n == 2 else 2)
    elif n == 4:
        # coordinates in [-1, 1] keep the n = 4 box scan near a second
        while True:
            verts, vol, inside = _simplex_frame(rng, n, 1, 1)
            if max(max(abs(c) for c in v) for v in verts) <= 1:
                break
    else:
        verts, vol, inside = _simplex_frame(rng, n, 2 if n == 2 else 1, 2 if n == 2 else 1)
    pts = _with_extra_points(rng, verts, inside, extra)
    return pts, _explicit(pts), vol


def _hodge_catalog(rng, kind):
    r = rng.randint
    if kind == 0:
        n = rng.choice((2, 3, 3, 4))
        pts, vol = kloosterman(n)
        return pts, _family("kloosterman", n=n), vol
    if kind == 1:
        n = rng.choice((2, 3))
        v = [r(1, 3) for _ in range(n)]
        pts, vol = generalized_kloosterman(n, v)
        return pts, _family("generalized_kloosterman", n=n, v=v), vol
    if kind == 2:
        n = rng.choice((2, 3))
        u, v = [r(1, 3) for _ in range(n)], [r(1, 3) for _ in range(n)]
        pts, vol = two_sided(n, u, v)
        return pts, _family("two_sided", n=n, u=u, v=v), vol
    if kind == 3:
        # sum(u) + sum(v) + 2**n - 2 is the volume for n = 2, but for n = 3
        # only at u = v = (1, 1, 1)
        n = rng.choice((2, 2, 3))
        u, v = [r(1, 2) for _ in range(n)], [r(1, 2) for _ in range(n)]
        if n == 3:
            u = v = [1, 1, 1]
        pts, vol = bi_kloosterman(n, u, v)
        return pts, _family("bi_kloosterman", n=n, u=u, v=v), vol
    if kind == 4:
        dims = rng.choice(([r(1, 3)], [r(1, 3), r(1, 3)], [1, 1, 1]))
        pts, vol = box(dims)
        return pts, _family("box", dims=dims), vol
    n, d, height = rng.choice((1, 2, 2)), r(1, 3), r(1, 3)
    pts, vol = dilated_simplex(n, d, height)
    return pts, _family("dilated_simplex", n=n, d=d, D=height), vol


# Random frames (kind, n, extra points) and catalog slots. Half the slots are
# n = 3 frames, so the median report lies inside one dense cost range rather
# than in the gap between the cheap n = 2 and the dearer n = 3 documents.
_HODGE_SLOTS = (
    ("cross", 3, 1), ("simplex", 3, 2), ("catalog", 3, 0), ("cross", 2, 2),
    ("simplex", 3, 1), ("catalog", 3, 1), ("cross", 3, 2), ("simplex", 3, 3),
    ("catalog", 3, 2), ("simplex", 2, 2), ("cross", 3, 3), ("catalog", 3, 3),
    ("simplex", 3, 2), ("cross", 3, 1), ("catalog", 3, 4), ("cross", 2, 1),
    ("simplex", 3, 1), ("catalog", 3, 5), ("cross", 3, 2), ("simplex", 4, 1),
)


def _hodge_stream(dr: _Drawer):
    rng = dr.rng
    for i in itertools.count():
        kind, n, extra = _HODGE_SLOTS[i % len(_HODGE_SLOTS)]
        fallback = lambda: _random_general(rng, "cross", 3, 2)  # noqa: E731
        if kind == "catalog":
            pts, doc, vol = dr.fresh(lambda: _hodge_catalog(rng, extra), fallback)
        else:
            pts, doc, vol = dr.fresh(lambda: _random_general(rng, kind, n, extra))
        yield Document(i, "hodge", ("--format", _FORMATS[i % 3]), doc, pts,
                       {"volume": vol, "dim": len(pts[0])})


# ---------------------------------------------------------------------------
# diagonal-groups: n-point supports with nonsingular vertex matrices


def _random_matrix_support(rng, n, lo, hi):
    """Columns of a random integer matrix with lo <= |det| < hi.

    Entries lie in [-r, r], with r chosen so that the median |det| of such
    matrices (about 0.35 r**n) sits near the band.
    """
    r = 2
    while 35 * r**n < 100 * (lo + hi) // 2:
        r += 1
    for attempt in itertools.count():
        if attempt and attempt % 3000 == 0:
            r += 1
        cols = tuple(tuple(rng.randint(-r, r) for _ in range(n)) for _ in range(n))
        if lo <= abs(arith.det(arith.columns_matrix(cols))) < hi:
            return cols, _explicit(cols)


def _four_dim_params(rng):
    while True:
        big_d, k = rng.randint(2, 10), rng.randint(2, 8)
        if 200 <= big_d ** (k + 1) <= 1100:
            return big_d, k


def _diagonal_catalog(rng, kind, i):
    if kind == "four_dim":
        big_d, k = _four_dim_params(rng)
        return four_dim(big_d, k), _family("four_dim", D=big_d, k=k)
    if i % 3 == 0:
        return five_dim(), _family("five_dim")
    if i % 3 == 1:
        n = rng.randint(6, 10)
        return extend_dim(n), _family("extend_dim", n=n)
    d = rng.randint(900, 1100)
    return ((d,),), _family("monomial", d=d)


# (command, n, least |det|): random matrices take |det| within 10% above the
# least value, so each slot costs about the same in every stream while the
# slots together span |det| from 200 to 3000. Catalog slots fall back to the
# slot's random matrices once their families run out of fresh supports.
_DIAGONAL_SLOTS = (
    ("diagonal", 3, 1500), ("ordinary-classes", 4, 600), ("scan", 3, 200),
    ("diagonal", 5, 300), ("four_dim", 4, 500), ("diagonal", 4, 700),
    ("ordinary-classes", 5, 250), ("scan", 4, 400), ("catalog", 5, 500),
    ("diagonal", 3, 450), ("diagonal", 4, 2700), ("ordinary-classes", 3, 900),
    ("scan", 5, 300), ("diagonal", 5, 800), ("four_dim", 3, 700),
    ("diagonal", 3, 220), ("ordinary-classes", 4, 1200), ("scan", 3, 700),
    ("catalog", 4, 300), ("diagonal", 4, 380),
)
_COMMANDS = ("diagonal", "ordinary-classes", "scan")


def _diagonal_stream(dr: _Drawer):
    rng = dr.rng
    catalog = 0
    for i in itertools.count():
        command, n, lo = _DIAGONAL_SLOTS[i % len(_DIAGONAL_SLOTS)]
        random_draw = lambda: _random_matrix_support(rng, n, lo, lo * 11 // 10)  # noqa: E731
        if command in ("four_dim", "catalog"):
            catalog += 1
            kind, command = command, _COMMANDS[catalog % 3]
            pts, doc = dr.fresh(lambda c=catalog: _diagonal_catalog(rng, kind, c),
                                random_draw)
        else:
            pts, doc = dr.fresh(random_draw)
        det = arith.det(arith.columns_matrix(pts))
        if command == "diagonal":
            options = ("-p", str(dr.prime(3, 30000, det)))
        elif command == "scan":
            options = ("--bound", str(rng.randint(1500, 1700)))
        else:
            options = ()
        yield Document(i, command, options + ("--format", "json"), doc, pts,
                       {"det": det})


# ---------------------------------------------------------------------------
# decompose-faces: supports whose away-faces carry many lattice points


def _lifted_polygon(rng, m, width, depth):
    """m non-collinear lattice points of a width x depth box, lifted to height h."""
    while True:
        x0, y0 = rng.randint(-2, 2), rng.randint(-2, 2)
        cells = [(x0 + x, y0 + y) for x in range(width + 1) for y in range(depth + 1)]
        chosen = rng.sample(cells, m)
        (ax, ay), (bx, by) = chosen[0], chosen[1]
        if any((bx - ax) * (cy - ay) - (by - ay) * (cx - ax) for cx, cy in chosen[2:]):
            break
    height = rng.randint(1, 3)
    pts = tuple((x, y, height) for x, y in chosen)
    return pts, _explicit(pts), True


def _decompose_catalog(rng, kind):
    r = rng.randint
    if kind == 0:
        d, height = rng.choice((1, 2, 2)), r(1, 4)
        pts = dilated_simplex(2, d, height)[0]
        return pts, _family("dilated_simplex", n=2, d=d, D=height), True
    if kind == 1:
        dims = [r(1, 2), r(1, 2)]
        return box(dims)[0], _family("box", dims=dims), True
    if kind == 2:
        u, v = [r(1, 2) for _ in range(3)], [r(1, 2) for _ in range(3)]
        return bi_kloosterman(3, u, v)[0], _family("bi_kloosterman", n=3, u=u, v=v), False
    n = rng.choice((2, 3))
    v = [r(1, 3) for _ in range(n)]
    pts = generalized_kloosterman(n, v)[0]
    return pts, _family("generalized_kloosterman", n=n, v=v), False


def _coprime_prime(dr: _Drawer, pts) -> int:
    """A prime above the Hadamard bound of every n-subset's determinant."""
    n = len(pts[0])
    norm_sq = max(sum(c * c for c in p) for p in pts)
    bound = isqrt(norm_sq**n) + 2
    return dr.prime(bound, 3 * bound)


# (strategy, with -p, polygon (m points, width, depth) or catalog kind). The
# polygon sizes are fixed per slot so every stream has the same mix of face
# sizes; catalog slots fall back to a 5-point polygon once their families
# run out of fresh supports.
_DECOMPOSE_SLOTS = (
    ("first-lex", False, (5, 2, 2)), ("first-lex", False, 0),
    ("first-lex", True, (6, 3, 2)), ("max-invariant-factor", False, 2),
    ("first-lex", False, (4, 2, 1)), ("first-lex", True, 3),
    ("max-invariant-factor", True, (5, 2, 2)), ("first-lex", False, 1),
    ("first-lex", True, (7, 3, 3)), ("exhaustive-min-dstar", False, (4, 2, 2)),
    ("first-lex", False, (6, 2, 2)), ("first-lex", False, 2),
    ("first-lex", True, (5, 3, 1)), ("max-invariant-factor", False, 0),
    ("first-lex", False, (7, 3, 2)), ("first-lex", True, 3),
    ("max-invariant-factor", False, (6, 3, 2)), ("first-lex", False, 1),
    ("first-lex", True, (4, 3, 3)), ("exhaustive-min-dstar", False, (5, 2, 2)),
)


def _decompose_stream(dr: _Drawer):
    rng = dr.rng
    for i in itertools.count():
        strategy, with_p, shape = _DECOMPOSE_SLOTS[i % len(_DECOMPOSE_SLOTS)]
        if isinstance(shape, int):
            pts, doc, single = dr.fresh(lambda: _decompose_catalog(rng, shape),
                                        lambda: _lifted_polygon(rng, 5, 2, 2))
        else:
            pts, doc, single = dr.fresh(lambda: _lifted_polygon(rng, *shape))
        options = ("--strategy", strategy)
        if with_p:
            options += ("-p", str(_coprime_prime(dr, pts)))
        yield Document(i, "decompose", options + ("--format", "json"), doc, pts,
                       {"dim": len(pts[0]), "single_face": single})


_STREAMS = {
    "hodge-general": _hodge_stream,
    "diagonal-groups": _diagonal_stream,
    "decompose-faces": _decompose_stream,
}
