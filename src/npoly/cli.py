"""Command-line interface: exact polygon reports from JSON support files.

Input documents are JSON with either an explicit support or a named family:

    {"n": 2, "support": [[1, 0], [0, 1], [-1, -1]]}
    {"family": {"name": "four_dim", "parameters": {"D": 2, "k": 2}}}

Integers may be given as decimal strings so that other tools never need
64-bit parsing; rationals are always emitted as lowest-terms strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from math import gcd, lcm

from . import catalog, decompose, diagonal, polytope, primes
from .errors import (
    BrokenInvariant,
    DegenerateInput,
    DegenerateMatrix,
    IncomparablePolygons,
    NotCoprime,
    NotFullDimensional,
    NotIndecomposable,
    NpolyError,
)

EXIT_OK = 0
EXIT_GEOMETRY = 2
EXIT_SHAPE = 3
EXIT_ARITHMETIC = 4
EXIT_IO = 5
EXIT_INVARIANT = 6


class ShapeError(NpolyError):
    """Support has the wrong shape for the requested command."""


class InputError(NpolyError):
    """Input document cannot be parsed or fails schema validation."""


# the strings int(s, 10) accepts; it refuses them only past CPython's digit limit
_DECIMAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _as_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{what} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError as exc:
            if _DECIMAL.fullmatch(value):
                raise InputError(
                    f"{what} of {sum(map(str.isdecimal, value))} digits is past CPython's"
                    f" {polytope._DIGIT_LIMIT}-digit limit at stage load") from exc
            shown = value if len(value) <= 40 else value[:40] + "..."
            raise InputError(f"{what} is not a decimal integer: {shown!r}") from exc
    raise InputError(f"{what} must be an integer or decimal string")


def _fmt_int(x: int) -> str:
    """str(x) for a report, refused at stage render past CPython's digit limit."""
    if x.bit_length() > polytope._SHORT_BITS and not polytope._prints(x):
        raise DegenerateInput(f"a {x.bit_length()}-bit integer is too long to print"
                              " at stage render")
    return str(x)


def _fmt_quotient(num: int, den: int) -> str:
    """num/den for den > 0, in lowest terms, without building a Fraction."""
    g = gcd(num, den)
    if g == den:
        return _fmt_int(num // g)
    return f"{_fmt_int(num // g)}/{_fmt_int(den // g)}"


def _fmt_quotients(nums, den: int = 1) -> list[str]:
    """[_fmt_quotient(x, den) for x in nums] with one digit-limit check for the
    list: when den and the extremes of nums print, so does every reduced part;
    otherwise each entry goes through _fmt_quotient, which refuses a reduced
    part too long to print."""
    if nums and not all(map(polytope._prints, (den, min(nums), max(nums)))):
        return [_fmt_quotient(x, den) for x in nums]
    return [str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}"
            for x in nums]


def _fmt_rational(x: Fraction) -> str:
    return _fmt_quotient(x.numerator, x.denominator)


def _fmt_polygon(poly: polytope.LowerPolygon) -> dict:
    scale, points = poly._scaled_vertices()
    texts = _fmt_quotients([s for s, _ in poly.steps], scale)
    slopes = []
    for text, (_, m) in zip(texts, poly.steps):
        slopes.extend([text] * m)
    xs = _fmt_quotients([x for x, _ in points])
    ys = _fmt_quotients([y for _, y in points], scale)
    return {"slopes": slopes, "vertices": [[x, y] for x, y in zip(xs, ys)]}


def load_input(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8 or an oversized integer
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests too deeply to decode at stage load") from exc
    if not isinstance(raw, dict):
        raise InputError("input document must be a JSON object")
    return raw


def _refuse_unknown(obj: dict, known: tuple, what: str) -> None:
    """Refuse the first key of obj, in sorted order, that is not in known."""
    unknown = sorted(key for key in obj if key not in known)
    if unknown:
        raise InputError(f"{what} has no key {unknown[0]!r}; known: {known}")


def resolve_support(doc: dict) -> tuple[polytope.Support, dict]:
    """Build the support from a document; returns (support, echo)."""
    _refuse_unknown(doc, ("coefficients", "family", "n", "support"), "the document")
    has_family = "family" in doc
    has_support = "support" in doc
    if has_family == has_support:
        raise InputError("give exactly one of 'family' or 'support'")
    if has_family:
        fam = doc["family"]
        if not isinstance(fam, dict) or "name" not in fam:
            raise InputError("'family' must be an object with a 'name'")
        _refuse_unknown(fam, ("name", "parameters"), "'family'")
        params = fam.get("parameters", {})
        if not isinstance(params, dict):
            raise InputError("'parameters' must be an object")
        params = {k: _as_int(v, f"parameter {k}") if not isinstance(v, list)
                  else [_as_int(x, f"parameter {k}") for x in v]
                  for k, v in params.items()}
        try:
            family = catalog.make(fam["name"], params)
        except DegenerateInput as exc:
            raise InputError(str(exc)) from exc
        support = family.support
        if "n" in doc and _as_int(doc["n"], "n") != support.dim:
            raise InputError("'n' contradicts the family's dimension")
        echo = {"family": {"name": family.name,
                           "parameters": {k: v for k, v in family.parameters}}}
    else:
        if "n" not in doc:
            raise InputError("explicit supports need 'n'")
        n = _as_int(doc["n"], "n")
        vectors = doc["support"]
        if not isinstance(vectors, list) or not vectors:
            raise InputError("'support' must be a nonempty list of vectors")
        points = []
        for vec in vectors:
            if not isinstance(vec, list) or len(vec) != n:
                raise InputError("support vectors must be lists of length n")
            points.append(tuple(_as_int(c, "coordinate") for c in vec))
        support = polytope.Support(n, tuple(points))
        echo = {"n": n, "support": [_fmt_quotients(p) for p in points]}
    if "coefficients" in doc:
        coefficients = doc["coefficients"]
        if not isinstance(coefficients, list):
            raise InputError("'coefficients' must be a list of integers")
        echo["coefficients"] = _fmt_quotients(
            [_as_int(c, "coefficient") for c in coefficients])
    return support, echo


def _require_prime(p: int) -> int:
    if p >= primes.DETERMINISTIC_BOUND:
        raise NotCoprime(f"p must be below {primes.DETERMINISTIC_BOUND} to be proven prime")
    if not primes.is_prime(p):
        raise NotCoprime(f"{p} is not prime")
    return p


def _diagonal_simplex(support: polytope.Support) -> diagonal.DiagonalSimplex:
    if len(support.points) != support.dim:
        raise ShapeError("command needs a support with exactly n points")
    try:
        return diagonal.DiagonalSimplex.from_support(support)
    except DegenerateMatrix as exc:
        raise ShapeError(str(exc)) from exc


def cmd_hodge(support: polytope.Support, echo: dict) -> dict:
    poly = polytope.build(support)
    data = poly.hodge_data()
    return {
        "command": "hodge",
        "input": echo,
        "dimension": support.dim,
        "denominator": _fmt_int(poly.denominator),
        "normalized_volume": _fmt_int(poly.normalized_volume),
        "facets": [
            {
                "normal": _fmt_quotients(f.a, f.b),
                "denominator": _fmt_int(f.b),
                "support_indices": list(f.vertex_indices),
            }
            for f in poly.facets_away_from_origin
        ],
        "weight_counts": {_fmt_int(k): _fmt_int(v) for k, v in sorted(data.W.items())},
        "hodge_numbers": {_fmt_int(k): _fmt_int(v) for k, v in sorted(data.H.items())},
        "hodge_polygon": _fmt_polygon(data.polygon),
    }


def cmd_diagonal(support: polytope.Support, echo: dict, p: int) -> dict:
    ds = _diagonal_simplex(support)
    _require_prime(p)
    orbs = diagonal.orbits(ds, p)
    np_poly = polytope.LowerPolygon.from_runs((o.slope, o.degree) for o in orbs)
    hp_poly = diagonal.hodge_polygon_diag(ds)
    verdict = diagonal.is_ordinary(ds, p)
    comparison = polytope.lies_above(np_poly, hp_poly)
    dn = ds.largest_invariant_factor
    return {
        "command": "diagonal",
        "input": echo,
        "p": _fmt_int(p),
        "determinant": _fmt_int(ds.det),
        "invariant_factors": _fmt_quotients(ds.invariant_factors),
        "denominator": _fmt_int(ds.denominator),
        "orbits": [
            {
                "representative": _fmt_quotients(o.representative.a, dn),
                "degree": o.degree,
                "slope": _fmt_rational(o.slope),
            }
            for o in orbs
        ],
        "newton_polygon": _fmt_polygon(np_poly),
        "hodge_polygon": _fmt_polygon(hp_poly),
        "ordinary": verdict.ordinary,
        "witness": None
        if verdict.witness is None
        else _fmt_quotients(verdict.witness.a, dn),
        "comparison": {
            "status": comparison.status.value,
            "endpoints_coincide": comparison.endpoints_coincide,
        },
    }


def cmd_ordinary_classes(support: polytope.Support, echo: dict) -> dict:
    ds = _diagonal_simplex(support)
    res = diagonal.ordinary_residues(ds)
    return {
        "command": "ordinary-classes",
        "input": echo,
        "largest_invariant_factor": _fmt_int(res.modulus),
        "classes": _fmt_quotients(res.classes),
        "mu": _fmt_int(res.mu),
        "density": _fmt_rational(res.density),
    }


def cmd_decompose(
    support: polytope.Support, echo: dict, strategy: str, p: int | None
) -> dict:
    cert = None
    if p is None:
        faces = decompose.facial_collapse(support, strategy)
    else:
        _require_prime(p)
        cert = decompose.generic_ordinary_certificate(support, p, strategy)
        faces = [(fc.face, fc.collapse) for fc in cert.faces]
    face_rows = []
    for i, (fp, collapse) in enumerate(faces):
        row = {
            "face": i,
            "normal": _fmt_quotients(fp.facet.a, fp.facet.b),
            "support_points": [_fmt_quotients(q) for q in fp.restricted_support],
            "diagonal": fp.is_diagonal,
        }
        if fp.is_diagonal:
            # a diagonal face collapses to itself: one piece, one record
            row["invariant_factors"] = _fmt_quotients(collapse.simplices[0].invariant_factors)
        row["collapse"] = {
            "pieces": [[_fmt_quotients(q) for q in piece] for piece in collapse.pieces],
            "piece_invariant_factors": _fmt_quotients(collapse.piece_invariant_factors),
            "dstar": _fmt_int(collapse.dstar),
            "choice_log": [_fmt_quotients(q) for q in collapse.choice_log],
        }
        face_rows.append(row)
    report = {
        "command": "decompose",
        "input": echo,
        "strategy": strategy,
        "faces": face_rows,
    }
    if cert is not None:
        report["p"] = _fmt_int(p)
        report["certificate"] = {
            "certified": cert.certified,
            "dstar": _fmt_int(cert.dstar),
            "reason": cert.reason,
        }
    else:
        report["dstar"] = _fmt_int(lcm(*(collapse.dstar for _, collapse in faces)))
    return report


def cmd_scan(support: polytope.Support, echo: dict, bound: int) -> dict:
    ds = _diagonal_simplex(support)
    if bound > polytope.ENUMERATION_LIMIT:
        raise DegenerateInput(f"bound {bound} is too large at stage scan")
    dn = ds.largest_invariant_factor
    res = diagonal.ordinary_residues(ds)
    # a prime coprime to det M acts as its residue mod d_n, and the classes
    # list residues in 1..d_n (the class of 1 when d_n = 1)
    classes = set(res.classes)
    rows = []
    ordinary_count = 0
    tested = 0
    for p in primes.primes_below(bound):
        if gcd(p, ds.group_order) != 1:
            rows.append({"p": _fmt_int(p), "residue": _fmt_int(p % dn), "verdict": "excluded"})
            continue
        verdict = (p % dn or dn) in classes
        tested += 1
        ordinary_count += int(verdict)
        rows.append(
            {
                "p": _fmt_int(p),
                "residue": _fmt_int(p % dn),
                "verdict": "ordinary" if verdict else "non-ordinary",
            }
        )
    return {
        "command": "scan",
        "input": echo,
        "bound": _fmt_int(bound),
        "largest_invariant_factor": _fmt_int(dn),
        "rows": rows,
        "summary": {
            "tested": _fmt_int(tested),
            "ordinary": _fmt_int(ordinary_count),
            "predicted_density": _fmt_rational(res.density),
            "ordinary_classes": _fmt_quotients(res.classes),
        },
    }


# ---------------------------------------------------------------------------
# rendering


_QUOTE = json.encoder.encode_basestring_ascii


def _json(value, indent: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) for a report tree whose
    current line is indented by indent, each container joined in one pass.

    Reports hold strings, integers, booleans, None, lists, tuples and dicts
    with string keys; anything else, floats included, is a bug."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        try:  # a list of strings is escaped and joined in C
            body = (",\n" + inner).join(map(_QUOTE, value))
        except TypeError:
            body = (",\n" + inner).join([_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, str):
        return _QUOTE(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise BrokenInvariant("a report key is not a string at stage render")
        inner = indent + "  "
        body = (",\n" + inner).join(
            [f"{_QUOTE(key)}: {_json(value[key], inner)}" for key in sorted(value)])
        return f"{{\n{inner}{body}\n{indent}}}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise BrokenInvariant(f"a report holds a {type(value).__name__} at stage render")


def render_json(report: dict) -> str:
    return _json(report, "") + "\n"


def _table(header, rows) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _csv_lines(header, rows) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(row))
    return "\n".join(out) + "\n"


def _principal_table(report: dict) -> tuple[list[str], list[list[str]]]:
    cmd = report["command"]
    if cmd == "hodge":
        header = ["k", "W", "H"]
        rows = [
            [k, report["weight_counts"][k], report["hodge_numbers"][k]]
            for k in sorted(report["hodge_numbers"], key=int)
        ]
        return header, rows
    if cmd == "diagonal":
        header = ["slope", "multiplicity"]
        counts: dict[str, int] = {}
        for s in report["newton_polygon"]["slopes"]:
            counts[s] = counts.get(s, 0) + 1
        # the slopes are non-decreasing, so the counts are already in order
        rows = [[s, str(c)] for s, c in counts.items()]
        return header, rows
    if cmd == "ordinary-classes":
        return ["class"], [[c] for c in report["classes"]]
    if cmd == "decompose":
        header = ["face", "diagonal", "dstar", "piece_invariant_factors"]
        rows = [
            [
                str(row["face"]),
                str(row["diagonal"]).lower(),
                row["collapse"]["dstar"],
                ";".join(row["collapse"]["piece_invariant_factors"]),
            ]
            for row in report["faces"]
        ]
        return header, rows
    if cmd == "scan":
        return ["p", "residue", "verdict"], [
            [r["p"], r["residue"], r["verdict"]] for r in report["rows"]
        ]
    raise InputError(f"no table for command {cmd!r}")


def render_csv(report: dict) -> str:
    header, rows = _principal_table(report)
    return _csv_lines(header, rows)


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    cmd = report["command"]
    if cmd == "hodge":
        lines.append(f"dimension: {report['dimension']}")
        lines.append(f"denominator: {report['denominator']}")
        lines.append(f"normalized volume: {report['normalized_volume']}")
        lines.append(f"away facets: {len(report['facets'])}")
        lines.append("")
        header, rows = _principal_table(report)
        lines.extend(_table(header, rows))
        lines.append("")
        lines.append("hodge polygon vertices:")
        for x, y in report["hodge_polygon"]["vertices"]:
            lines.append(f"  ({x}, {y})")
    elif cmd == "diagonal":
        lines.append(f"p: {report['p']}")
        lines.append(f"determinant: {report['determinant']}")
        lines.append(f"invariant factors: {' '.join(report['invariant_factors'])}")
        lines.append(f"ordinary: {report['ordinary']}")
        if report["witness"] is not None:
            lines.append(f"witness: ({', '.join(report['witness'])})")
        lines.append(
            "comparison: "
            + report["comparison"]["status"]
            + (", endpoints coincide" if report["comparison"]["endpoints_coincide"] else "")
        )
        lines.append("")
        header, rows = _principal_table(report)
        lines.extend(_table(header, rows))
        lines.append("")
        lines.append("newton polygon vertices:")
        for x, y in report["newton_polygon"]["vertices"]:
            lines.append(f"  ({x}, {y})")
        lines.append("hodge polygon vertices:")
        for x, y in report["hodge_polygon"]["vertices"]:
            lines.append(f"  ({x}, {y})")
    elif cmd == "ordinary-classes":
        lines.append(f"largest invariant factor: {report['largest_invariant_factor']}")
        lines.append(f"classes: {{{', '.join(report['classes'])}}}")
        lines.append(f"mu: {report['mu']}")
        lines.append(f"density: {report['density']}")
    elif cmd == "decompose":
        lines.append(f"strategy: {report['strategy']}")
        header, rows = _principal_table(report)
        lines.extend(_table(header, rows))
        if "certificate" in report:
            cert = report["certificate"]
            lines.append("")
            lines.append(f"p: {report['p']}")
            lines.append(f"certified: {cert['certified']} (dstar {cert['dstar']})")
            if cert["reason"]:
                lines.append(f"reason: {cert['reason']}")
        else:
            lines.append(f"dstar: {report['dstar']}")
    elif cmd == "scan":
        header, rows = _principal_table(report)
        lines.extend(_table(header, rows))
        s = report["summary"]
        lines.append("")
        lines.append(
            f"ordinary {s['ordinary']} of {s['tested']} tested primes; "
            f"predicted density {s['predicted_density']} "
            f"(classes {{{', '.join(s['ordinary_classes'])}}})"
        )
    return "\n".join(lines) + "\n"


RENDERERS = {"text": render_text, "json": render_json, "csv": render_csv}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `np` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="np",
        description="Exact Hodge and Newton polygon computations for lattice supports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="JSON input document")
        p.add_argument(
            "--format", choices=sorted(RENDERERS), default="text", help="output format"
        )
        return p

    add("hodge", help="facets, weight counts, and the lower-bound polygon")
    p_diag = add("diagonal", help="exact slopes and ordinariness for an n-point support")
    p_diag.add_argument("-p", type=int, required=True, help="prime")
    add("ordinary-classes", help="residue classes mod d_n at which the support is ordinary")
    p_dec = add("decompose", help="facial and collapsing decompositions, certificates")
    p_dec.add_argument("--strategy", choices=decompose.STRATEGIES, default="first-lex")
    p_dec.add_argument("-p", type=int, default=None, help="prime to certify")
    p_scan = add("scan", help="per-prime ordinariness sweep")
    p_scan.add_argument("--bound", type=int, required=True, help="scan primes below this")
    return parser


def run(args) -> dict:
    doc = load_input(args.file)
    support, echo = resolve_support(doc)
    if args.command == "hodge":
        return cmd_hodge(support, echo)
    if args.command == "diagonal":
        return cmd_diagonal(support, echo, args.p)
    if args.command == "ordinary-classes":
        return cmd_ordinary_classes(support, echo)
    if args.command == "decompose":
        return cmd_decompose(support, echo, args.strategy, args.p)
    if args.command == "scan":
        return cmd_scan(support, echo, args.bound)
    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = RENDERERS[args.format](run(args))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenInvariant as exc:
        print(f"error: broken invariant: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (NotCoprime, DegenerateMatrix, NotIndecomposable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC
    except (NotFullDimensional, DegenerateInput, IncomparablePolygons) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    sys.stdout.write(text)
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())
