"""The complete collapse against a step-by-step reference.

The reference below is the collapse as first written: every step charts
and validates its input from scratch, and the max-invariant-factor rule
steps the winning vertex a second time. The library shares one chart per
split point set and one `DiagonalSimplex` record, with its one Smith normal
form, per piece; the pieces, their invariant factors, D* and the choice log
must not change.
"""

from collections import Counter
from functools import cache
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npoly import catalog
from npoly import decompose as dc
from npoly import diagonal as dg
from npoly import exactmath as xm
from npoly import polytope as pt
from npoly.errors import DegenerateInput

# ---------------------------------------------------------------------------
# reference collapse


def _ref_validate(vset):
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


def ref_collapse_step(vset, chosen):
    pts, n = _ref_validate(vset)
    chosen = tuple(int(c) for c in chosen)
    if chosen not in pts:
        raise DegenerateInput("chosen point is not in the set")
    if len(pts) == n:
        return (pts,)
    rest = tuple(p for p in pts if p != chosen)
    chart = pt.AffineChart(pts)
    local = {p: chart.to_local(p) for p in pts}
    rest_local = [local[p] for p in rest]
    if pt.affine_rank(rest_local) != n - 1:
        raise DegenerateInput("removing the chosen vertex drops the dimension")
    rest_facets = pt.affine_facets(rest_local)
    if pt._satisfies(rest_facets, local[chosen]):
        raise DegenerateInput("chosen point is not a vertex of the hull")
    pieces = [rest]
    for a, b, _ in rest_facets:
        if pt._dot(a, local[chosen]) <= b:
            continue
        cone_facets = pt.affine_facets(
            [q for q in rest_local if pt._dot(a, q) == b] + [local[chosen]]
        )
        pieces.append(tuple(p for p in pts if pt._satisfies(cone_facets, local[p])))
    return tuple(pieces)


def _ref_valid_choices(pts, n):
    chart = pt.AffineChart(pts)
    local = {p: chart.to_local(p) for p in pts}
    facets = pt.affine_facets(list(local.values()))
    out = []
    for p in pts:
        others = [local[q] for q in pts if q != p]
        active = [a for a, b, _ in facets if pt._dot(a, local[p]) == b]
        if xm.rational_rank(active) == n - 1 and pt.affine_rank(others) == n - 1:
            out.append(p)
    return out


def _ref_piece_factor(piece):
    return xm.snf(xm.IntMatrix.from_columns(piece)).diag[-1]


def _ref_greedy(pts, n, pick):
    stack = [pts]
    final = []
    log = []
    while stack:
        cur = stack.pop(0)
        if len(cur) == n:
            final.append(cur)
            continue
        choices = _ref_valid_choices(cur, n)
        if not choices:
            raise DegenerateInput("no vertex can be removed without degenerating")
        chosen = pick(cur, choices)
        log.append(chosen)
        stack.extend(ref_collapse_step(cur, chosen))
    return final, log


def _ref_pick_first_lex(cur, choices):
    return min(choices)


def _ref_pick_max_invariant_factor(cur, choices):
    best = None
    for cand in sorted(choices):
        score = 0
        for piece in ref_collapse_step(cur, cand):
            if len(piece) == len(cur[0]):
                score = max(score, _ref_piece_factor(piece))
        if best is None or score > best[0]:
            best = (score, cand)
    return best[1]


def _ref_achievable(pts, n, memo):
    key = frozenset(pts)
    if key in memo:
        return memo[key]
    if len(pts) == n:
        memo[key] = {_ref_piece_factor(pts): ((pts,), ())}
        return memo[key]
    out = {}
    candidates = sorted(_ref_valid_choices(pts, n))
    if not candidates:
        raise DegenerateInput("no vertex can be removed without degenerating")
    for cand in candidates:
        combos = {1: ((), ())}
        for piece in ref_collapse_step(pts, cand):
            child = _ref_achievable(piece, n, memo)
            merged = {}
            for v0 in sorted(combos):
                ps0, log0 = combos[v0]
                for v1 in sorted(child):
                    ps1, log1 = child[v1]
                    v = lcm(v0, v1)
                    if v not in merged:
                        merged[v] = (ps0 + ps1, log0 + log1)
            combos = merged
        for v in sorted(combos):
            if v not in out:
                ps, log = combos[v]
                out[v] = (ps, (cand,) + log)
    memo[key] = out
    return out


def ref_complete_collapse(vset, strategy):
    pts, n = _ref_validate(vset)
    if strategy == "exhaustive-min-dstar":
        achievable = _ref_achievable(pts, n, {})
        pieces, log = achievable[min(achievable)]
        final, choice_log = list(pieces), list(log)
    else:
        pick = (_ref_pick_first_lex if strategy == "first-lex"
                else _ref_pick_max_invariant_factor)
        final, choice_log = _ref_greedy(pts, n, pick)
    unique = list(dict.fromkeys(tuple(sorted(piece)) for piece in final))
    factors = tuple(_ref_piece_factor(piece) for piece in unique)
    return dc.CollapseResult(
        pieces=tuple(unique),
        piece_invariant_factors=factors,
        dstar=lcm(*factors) if factors else 1,
        choice_log=tuple(choice_log),
    )


def _outcome(fn, *args):
    """A result, or the type and message of the error raised instead."""
    try:
        return fn(*args)
    except DegenerateInput as exc:
        return ("raised", str(exc))


def assert_matches_reference(vset):
    for strategy in dc.STRATEGIES:
        assert _outcome(dc.complete_collapse, vset, strategy) == _outcome(
            ref_complete_collapse, vset, strategy
        ), strategy
    for chosen in vset:
        assert _outcome(dc.collapse_step, vset, chosen) == _outcome(
            ref_collapse_step, vset, chosen
        ), chosen


# ---------------------------------------------------------------------------
# inputs


@st.composite
def lifted_polygons(draw):
    """3 to 7 lattice points of the plane z = c + a*x + b*y, c > 0."""
    xy = draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                      min_size=3, max_size=7))
    a, b = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
    c = draw(st.integers(1, 3))
    pts = sorted((x, y, c + a * x + b * y) for x, y in xy)
    assume(pt.affine_rank(pts) == 2)
    return pts


@st.composite
def lifted_polytopes(draw):
    """4 to 6 lattice points of the hyperplane w = c in dimension 4."""
    xyz = draw(st.sets(st.tuples(*[st.integers(0, 2)] * 3), min_size=4, max_size=6))
    c = draw(st.integers(1, 2))
    pts = sorted((*p, c) for p in xyz)
    assume(pt.affine_rank(pts) == 3)
    return pts


CATALOG_DOCS = [
    ("box", {"dims": [2, 2]}),
    ("box", {"dims": [1, 2]}),
    ("box", {"dims": [1, 1, 1]}),
    ("dilated_simplex", {"n": 2, "d": 2, "D": 1}),
    ("dilated_simplex", {"n": 2, "d": 2, "D": 3}),
    ("dilated_simplex", {"n": 3, "d": 1, "D": 2}),
    ("kloosterman", {"n": 3}),
    ("generalized_kloosterman", {"n": 2, "v": [2, 3]}),
    ("two_sided", {"n": 2, "u": [1, 2], "v": [2, 1]}),
    ("bi_kloosterman", {"n": 2, "u": [2, 1], "v": [1, 3]}),
    ("four_dim", {"D": 2, "k": 2}),
    ("five_dim", {}),
]


@cache
def catalog_faces():
    faces = []
    for name, params in CATALOG_DOCS:
        for fp in dc.facial_decompose(catalog.make(name, params).support):
            faces.append(fp.restricted_support)
    return faces


# ---------------------------------------------------------------------------
# comparisons


class TestAgainstReference:
    @given(lifted_polygons())
    @settings(max_examples=100, deadline=None)
    def test_lifted_polygons(self, pts):
        assert_matches_reference(pts)

    @given(lifted_polytopes())
    @settings(max_examples=40, deadline=None)
    def test_lifted_polytopes(self, pts):
        assert_matches_reference(pts)

    @given(st.one_of(lifted_polygons(), lifted_polytopes()))
    @settings(max_examples=100, deadline=None)
    def test_valid_choices(self, pts):
        # the bit tests on facet masks against the rank tests
        n = len(pts[0])
        local = pt._local_coordinates(pts)
        assert pt._valid_choices(pts, local) == _ref_valid_choices(pts, n)

    def test_every_catalog_face(self):
        faces = catalog_faces()
        assert any(len(face) > len(face[0]) for face in faces)
        for face in faces:
            assert_matches_reference(face)

    @pytest.mark.parametrize("vset", [
        [(1, 0), (0, 1)],
        [(0, 1), (1, 1), (2, 1)],
        [(1, 1, 4), (1, 3, 2), (2, 3, 1), (3, 1, 2), (4, 2, 0)],
        [(0, 0, 1), (1, 0, 1), (2, 0, 1)],  # collinear: not a facet set
        [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],  # not codimension 1
    ])
    def test_small_and_degenerate_sets(self, vset):
        assert_matches_reference(vset)


# ---------------------------------------------------------------------------
# work done once

# seven points of the plane z = 1: a pentagon with one edge point and one
# interior point
POLYGON_7 = ((0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 1, 1), (2, 2, 1), (0, 2, 1), (1, 1, 1))


class TestWorkDoneOnce:
    def test_facial_decompose_builds_one_polyhedron(self, monkeypatch):
        builds = []
        build = pt.build
        monkeypatch.setattr(pt, "build", lambda s: builds.append(s) or build(s))
        volumes = []
        volume = pt.NewtonPolyhedron.normalized_volume.func
        monkeypatch.setattr(pt.NewtonPolyhedron, "normalized_volume",
                            property(lambda poly: volumes.append(poly) or volume(poly)))
        (face,) = dc.facial_decompose(pt.Support(3, POLYGON_7))
        assert sorted(face.restricted_support) == sorted(POLYGON_7)
        assert len(builds) == 1
        assert volumes == []

    @pytest.mark.parametrize("strategy", dc.STRATEGIES)
    def test_one_chart_per_split_set(self, strategy, monkeypatch):
        charted = []

        class CountingChart(pt.AffineChart):
            def __init__(self, points):
                charted.append(tuple(points))
                super().__init__(points)

        monkeypatch.setattr(pt, "AffineChart", CountingChart)
        res = dc.complete_collapse(POLYGON_7, strategy)
        assert len(charted) == len(set(charted))
        assert all(len(pts) > 3 for pts in charted)
        if strategy == "exhaustive-min-dstar":
            assert len(charted) >= len(res.choice_log)
        else:
            assert len(charted) == len(res.choice_log)

    @pytest.mark.parametrize("strategy", dc.STRATEGIES)
    def test_one_snf_per_piece(self, strategy, monkeypatch):
        snfs = []
        snf = xm.snf
        monkeypatch.setattr(xm, "snf", lambda m: snfs.append(m.columns()) or snf(m))
        res = dc.complete_collapse(POLYGON_7, strategy)
        computed = Counter(tuple(map(tuple, cols)) for cols in snfs)
        assert max(computed.values()) == 1
        assert set(res.pieces) <= set(computed)
        if strategy == "first-lex":
            assert set(computed) == set(res.pieces)

    @pytest.mark.parametrize("strategy", dc.STRATEGIES)
    def test_certificate_builds_one_record_per_piece(self, strategy, monkeypatch):
        # six faces of 3, 4 and 7 points; the certificate reads each piece's
        # record off its collapse instead of taking a second Smith form
        records = []
        from_matrix = vars(dg.DiagonalSimplex)["from_matrix"].__func__
        monkeypatch.setattr(dg.DiagonalSimplex, "from_matrix", classmethod(
            lambda cls, m: records.append(tuple(m.columns())) or from_matrix(cls, m)))
        snfs = []
        snf = xm.snf
        monkeypatch.setattr(xm, "snf", lambda m: snfs.append(tuple(m.columns())) or snf(m))
        cert = dc.generic_ordinary_certificate(
            pt.Support(3, POLYGON_7 + ((-1, -1, -2),)), 101, strategy)
        assert len(cert.faces) == 6 and not cert.certified
        built = Counter(records)
        assert max(built.values()) == 1
        assert Counter(snfs) == built
        pieces = set()
        for fc in cert.faces:
            collapse = fc.collapse
            assert [ds.matrix.columns() for ds in collapse.simplices] == [
                list(piece) for piece in collapse.pieces]
            assert len(fc.pieces_ordinary) == len(collapse.pieces)
            pieces.update(collapse.pieces)
        assert pieces <= set(built)
        if strategy == "first-lex":
            assert set(built) == pieces

    @pytest.mark.parametrize("strategy", dc.STRATEGIES)
    def test_incidences_come_from_the_enumerator(self, strategy, monkeypatch):
        # vertex choices and pieces are read off the facet masks, so only
        # the input's two validation checks take a rank
        ranks = []
        rank = xm.rational_rank
        monkeypatch.setattr(xm, "rational_rank", lambda v: ranks.append(v) or rank(v))
        enumerations = []
        facets = pt.affine_facets
        monkeypatch.setattr(pt, "affine_facets",
                            lambda p: enumerations.append(p) or facets(p))
        res = dc.complete_collapse(POLYGON_7, strategy)
        assert len(ranks) == 2
        if strategy == "first-lex":
            # one enumeration for the vertex choices, one for the step
            assert len(enumerations) == 2 * len(res.choice_log) == 8

    @pytest.mark.parametrize("strategy", dc.STRATEGIES)
    def test_steps_taken_lazily(self, strategy, monkeypatch):
        # first-lex steps each split set once, at its least valid vertex; the
        # scored searches step every valid vertex of every split set once
        choices = {}
        valid = pt._valid_choices
        monkeypatch.setattr(pt, "_valid_choices",
                            lambda pts, local: choices.setdefault(pts, valid(pts, local)))
        steps = []
        step = pt._step
        monkeypatch.setattr(pt, "_step", lambda pts, local, chosen: steps.append(
            (pts, chosen)) or step(pts, local, chosen))
        res = dc.complete_collapse(POLYGON_7, strategy)
        assert sum(map(len, choices.values())) > len(choices)
        if strategy == "first-lex":
            assert len(choices) == len(res.choice_log)
            assert steps == [(pts, vertices[0]) for pts, vertices in choices.items()]
        else:
            assert sorted(steps) == sorted(
                (pts, v) for pts, vertices in choices.items() for v in vertices)
