"""Checks of rendered `np` reports against exact facts, without npoly.

Each check returns a list of problems; an empty list means the report is
correct as far as the rules below can tell. The rules:

- hodge: H >= 0, sum(H) equals the normalized volume known from the
  support's construction, H is the alternating binomial sum of W, and the
  polygon's slopes are k/D with multiplicity H(k);
- diagonal: sum of orbit degrees = |det|, each degree is the order of p
  modulo the representative's order, and each slope equals the digit-sum
  valuation recomputed from the representative and degree;
- ordinary-classes and scan: the classes are units mod d_n, the scan lists
  exactly the primes below the bound, and a prime's verdict is "ordinary"
  iff its residue lies in the ordinary classes;
- decompose: every piece has n points taken from its face, its invariant
  factor is right, and dstar is the lcm of the piece factors.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, gcd, prod

import arith


def check(document, output: str) -> list[str]:
    """Problems found in one report; empty when it passes every rule."""
    try:
        return _CHECKS[document.command](document, output)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"unparseable report: {type(exc).__name__}: {exc}"]


def _hodge_table(document, output: str):
    """(volume printed or None, k -> W, k -> H, denominator or None)."""
    fmt = document.options[document.options.index("--format") + 1]
    if fmt == "json":
        rep = json.loads(output)
        w = {int(k): int(v) for k, v in rep["weight_counts"].items()}
        h = {int(k): int(v) for k, v in rep["hodge_numbers"].items()}
        slopes = rep["hodge_polygon"]["slopes"]
        return int(rep["normalized_volume"]), w, h, int(rep["denominator"]), slopes
    lines = output.splitlines()
    if fmt == "text":
        fields = dict(x.split(": ", 1) for x in lines if ": " in x)
        volume, denom = int(fields["normalized volume"]), int(fields["denominator"])
        start = lines.index("") + 1
        end = lines.index("", start)
        rows = [x.split() for x in lines[start + 1 : end]]
        if lines[start].split() != ["k", "W", "H"]:
            raise ValueError("text table header")
    else:
        volume = denom = None
        if lines[0] != "k,W,H":
            raise ValueError("csv header")
        rows = [x.split(",") for x in lines[1:]]
    w = {int(k): int(v) for k, v, _ in rows}
    h = {int(k): int(x) for k, _, x in rows}
    return volume, w, h, denom, None


def _check_hodge(document, output: str) -> list[str]:
    n, volume = document.facts["dim"], document.facts["volume"]
    printed, w, h, denom, slopes = _hodge_table(document, output)
    problems = []
    kmax = max(h)
    if denom is None:
        denom = kmax // n
    if sorted(h) != list(range(n * denom + 1)) or sorted(w) != sorted(h):
        problems.append("weights are not indexed 0..nD")
        return problems
    if printed is not None and printed != volume:
        problems.append(f"normalized volume {printed} != {volume}")
    if any(x < 0 for x in h.values()):
        problems.append("negative Hodge number")
    if sum(h.values()) != volume:
        problems.append(f"sum of H = {sum(h.values())} != volume {volume}")
    for k in h:
        alt = sum((-1) ** i * comb(n, i) * w.get(k - i * denom, 0) for i in range(n + 1))
        if alt != h[k]:
            problems.append(f"H({k}) is not the alternating sum of W")
            break
    if slopes is not None:
        expected = [arith.fmt(Fraction(k, denom)) for k in sorted(h) for _ in range(h[k])]
        if slopes != expected:
            problems.append("polygon slopes do not match H")
    return problems


def _check_invariant_factors(factors, points, problems, what):
    det = abs(arith.det(arith.columns_matrix(points)))
    if prod(factors) != det:
        problems.append(f"{what}: invariant factors multiply to {prod(factors)}, not {det}")
    if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
        problems.append(f"{what}: invariant factors do not form a divisibility chain")
    if factors[-1] != arith.largest_invariant_factor(points):
        problems.append(f"{what}: largest invariant factor is wrong")


def _option(document, flag: str) -> int:
    return int(document.options[document.options.index(flag) + 1])


def _check_diagonal(document, output: str) -> list[str]:
    rep = json.loads(output)
    p, det = _option(document, "-p"), document.facts["det"]
    problems = []
    if int(rep["determinant"]) != det:
        problems.append(f"determinant {rep['determinant']} != {det}")
    _check_invariant_factors([int(x) for x in rep["invariant_factors"]],
                             document.support, problems, "group")
    degrees = 0
    expected_np = []
    for orbit in rep["orbits"]:
        r = tuple(Fraction(x) for x in orbit["representative"])
        degree, slope = orbit["degree"], Fraction(orbit["slope"])
        degrees += degree
        expected_np += [slope] * degree
        order = arith.lcm_all(x.denominator for x in r)
        if any(not 0 <= x < 1 for x in r) or degree != arith.multiplicative_order(p, order):
            problems.append(f"orbit of {orbit['representative']} has degree {degree}")
        elif arith.digit_sum_slope(r, degree, p) != slope:
            problems.append(f"orbit of {orbit['representative']}: slope {slope} "
                            "differs from the digit-sum valuation")
    if degrees != abs(det):
        problems.append(f"orbit degrees sum to {degrees}, not |det| = {abs(det)}")
    newton = [Fraction(x) for x in rep["newton_polygon"]["slopes"]]
    if newton != sorted(expected_np):
        problems.append("newton polygon slopes are not the orbit slopes")
    equal = rep["newton_polygon"] == rep["hodge_polygon"]
    if rep["ordinary"] != equal:
        problems.append("ordinary verdict disagrees with the polygons")
    if (rep["comparison"]["status"] == "above") != equal:
        problems.append("comparison status disagrees with the polygons")
    return problems


def _check_classes(dn: int, classes, mu, density, problems):
    values = [int(c) for c in classes]
    if values != sorted(set(values)) or any(
        not 1 <= c <= dn or gcd(c, dn) != 1 for c in values
    ):
        problems.append("classes are not distinct units mod d_n")
    if 1 not in values:
        problems.append("the identity class 1 is missing")
    if mu is not None and int(mu) != len(values):
        problems.append("mu is not the number of classes")
    if density != arith.fmt(Fraction(len(values), arith.phi(dn))):
        problems.append(f"density {density} is not mu / phi(d_n)")
    return set(values)


def _check_ordinary_classes(document, output: str) -> list[str]:
    rep = json.loads(output)
    dn = arith.largest_invariant_factor(document.support)
    problems = []
    if int(rep["largest_invariant_factor"]) != dn:
        problems.append(f"largest invariant factor {rep['largest_invariant_factor']} != {dn}")
    _check_classes(dn, rep["classes"], rep["mu"], rep["density"], problems)
    return problems


def _check_scan(document, output: str) -> list[str]:
    rep = json.loads(output)
    det = abs(document.facts["det"])
    dn = arith.largest_invariant_factor(document.support)
    problems = []
    if int(rep["largest_invariant_factor"]) != dn:
        problems.append(f"largest invariant factor {rep['largest_invariant_factor']} != {dn}")
    summary = rep["summary"]
    classes = _check_classes(dn, summary["ordinary_classes"], None,
                             summary["predicted_density"], problems)
    rows = rep["rows"]
    if [int(r["p"]) for r in rows] != arith.primes_below(_option(document, "--bound")):
        problems.append("scanned primes are not the primes below the bound")
    tested = ordinary = 0
    for row in rows:
        p, residue = int(row["p"]), int(row["residue"])
        if residue != p % dn:
            problems.append(f"residue of {p} is wrong")
        if gcd(p, det) != 1:
            expected = "excluded"
        else:
            tested += 1
            expected = "ordinary" if residue in classes else "non-ordinary"
            ordinary += expected == "ordinary"
        if row["verdict"] != expected:
            problems.append(f"verdict for {p} is {row['verdict']}, expected {expected}")
    if (int(summary["tested"]), int(summary["ordinary"])) != (tested, ordinary):
        problems.append("summary counts disagree with the rows")
    return problems


def _check_decompose(document, output: str) -> list[str]:
    rep = json.loads(output)
    n = document.facts["dim"]
    support = set(document.support)
    problems = []
    strategy = document.options[document.options.index("--strategy") + 1]
    if rep["strategy"] != strategy:
        problems.append("strategy not echoed")
    face_dstars = []
    for face in rep["faces"]:
        i = face["face"]
        pts = [tuple(int(c) for c in q) for q in face["support_points"]]
        if not set(pts) <= support:
            problems.append(f"face {i} has points outside the support")
        if face["diagonal"] != (len(pts) == n):
            problems.append(f"face {i} diagonal flag is wrong")
        if face["diagonal"]:
            _check_invariant_factors([int(x) for x in face["invariant_factors"]], pts,
                                     problems, f"face {i}")
        collapse = face["collapse"]
        factors = [int(x) for x in collapse["piece_invariant_factors"]]
        pieces = [[tuple(int(c) for c in q) for q in piece] for piece in collapse["pieces"]]
        if len(factors) != len(pieces):
            problems.append(f"face {i}: one invariant factor per piece expected")
        for j, piece in enumerate(pieces):
            if len(piece) != n or len(set(piece)) != n or not set(piece) <= set(pts):
                problems.append(f"face {i} piece {j} is not n points of its face")
            elif j < len(factors) and factors[j] != arith.largest_invariant_factor(piece):
                problems.append(f"face {i} piece {j} has the wrong invariant factor")
        if int(collapse["dstar"]) != arith.lcm_all(factors):
            problems.append(f"face {i}: dstar is not the lcm of the piece factors")
        face_dstars.append(int(collapse["dstar"]))
    if document.facts.get("single_face"):
        faces = rep["faces"]
        if len(faces) != 1 or len(faces[0]["support_points"]) != len(support):
            problems.append("expected one away-face holding the whole support")
    dstar = arith.lcm_all(face_dstars)
    if "-p" in document.options:
        cert = rep["certificate"]
        if int(rep["p"]) != _option(document, "-p") or int(cert["dstar"]) != dstar:
            problems.append("certificate p or dstar is wrong")
        if cert["certified"] != (cert["reason"] is None):
            problems.append("certificate verdict and reason disagree")
    elif int(rep["dstar"]) != dstar:
        problems.append("dstar is not the lcm of the face dstars")
    return problems


_CHECKS = {
    "hodge": _check_hodge,
    "diagonal": _check_diagonal,
    "ordinary-classes": _check_ordinary_classes,
    "scan": _check_scan,
    "decompose": _check_decompose,
}
