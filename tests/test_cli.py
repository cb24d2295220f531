"""End-to-end tests of the command-line interface."""

import hashlib
import json
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npoly import catalog, cli, diagonal, exactmath, polytope
from npoly.errors import BrokenInvariant, DegenerateInput, NotCoprime
from oracles import sweep_cone
from test_catalog import CASES as CATALOG_CASES
from test_catalog import OVERSIZED


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


KLOOSTERMAN = {"n": 2, "support": [[1, 0], [0, 1], [-1, -1]]}
FIVE_DIM = {"family": {"name": "five_dim", "parameters": {}}}
MONOMIAL_3 = {"family": {"name": "monomial", "parameters": {"d": 3}}}
MONOMIAL_4 = {"family": {"name": "monomial", "parameters": {"d": 4}}}
# normalized volume 194, but a weight table of 569,423,674 rows
HUGE_TABLE = {"n": 3, "support": [[-1, -2, 3], [-1, 3, -1], [2, -3, -3], [2, 0, 1],
                                  [3, 3, 2]]}
# 18 lattice points: the facet cone of its hull has 19 rows in Z^4
BOX_212 = {"family": {"name": "box", "parameters": {"dims": [2, 1, 2]}}}


SMITH_PRODUCT_ERROR = (
    "error: broken invariant: the Smith diagonal does not multiply to |det M|\n")


def double_the_last_invariant_factor(monkeypatch):
    """Make `exactmath.snf` report 2*d_n: P*M*Q = D still holds as computed,
    but D's product 2*|det M| would make P or Q singular."""
    honest = exactmath.snf

    def doubled(m):
        snf = honest(m)
        return exactmath.SnfResult(snf.P, snf.Q, snf.diag[:-1] + (2 * snf.diag[-1],))

    monkeypatch.setattr(exactmath, "snf", doubled)


class TestHodge:
    def test_monomial_slopes(self, tmp_path, capsys):
        path = write_doc(tmp_path, MONOMIAL_3)
        code, out, _ = run_cli(capsys, ["hodge", path, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["hodge_polygon"]["slopes"] == ["0", "1/3", "2/3"]

    def test_five_dim_vertices(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM)
        code, out, _ = run_cli(capsys, ["hodge", path, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["hodge_polygon"]["vertices"] == [
            ["0", "0"],
            ["1", "0"],
            ["2", "2"],
            ["3", "5"],
        ]

    def test_unit_simplex(self, tmp_path, capsys):
        doc = {"n": 2, "support": [[1, 0], [0, 1]]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["hodge", path, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["hodge_polygon"]["vertices"] == [["0", "0"], ["1", "0"]]

    def test_geometry_error_exit_code(self, tmp_path, capsys):
        doc = {"n": 2, "support": [[1, 0], [2, 0]]}
        path = write_doc(tmp_path, doc)
        code, _, err = run_cli(capsys, ["hodge", path])
        assert code == 2
        assert "error" in err


class TestDiagonal:
    def test_five_dim_non_ordinary(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM)
        code, out, _ = run_cli(capsys, ["diagonal", path, "-p", "5", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["ordinary"] is False
        assert report["newton_polygon"]["slopes"] == ["0", "5/2", "5/2"]

    def test_five_dim_ordinary(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM)
        code, out, _ = run_cli(capsys, ["diagonal", path, "-p", "7", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["ordinary"] is True
        assert report["newton_polygon"] == report["hodge_polygon"]

    def test_monomial_fixed_slopes(self, tmp_path, capsys):
        path = write_doc(tmp_path, MONOMIAL_4)
        code, out, _ = run_cli(capsys, ["diagonal", path, "-p", "5", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["ordinary"] is True
        assert report["newton_polygon"]["slopes"] == ["0", "1/4", "1/2", "3/4"]

    def test_orbits_walked_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        walk = diagonal.orbits

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(diagonal, "orbits", counted)
        path = write_doc(tmp_path, FIVE_DIM)
        for fmt in ("json", "text", "csv"):
            calls.clear()
            code, _, _ = run_cli(capsys, ["diagonal", path, "-p", "7", "--format", fmt])
            assert code == 0
            assert len(calls) == 1

    def test_smith_diagonal_off_the_determinant_exits_broken_invariant(
            self, tmp_path, capsys, monkeypatch):
        double_the_last_invariant_factor(monkeypatch)
        path = write_doc(tmp_path, FIVE_DIM)
        for fmt in sorted(cli.RENDERERS):
            code, out, err = run_cli(capsys, ["diagonal", path, "-p", "7", "--format", fmt])
            assert (code, out, err) == (cli.EXIT_INVARIANT, "", SMITH_PRODUCT_ERROR)

    def test_shape_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, KLOOSTERMAN)
        code, _, err = run_cli(capsys, ["diagonal", path, "-p", "5"])
        assert code == 3

    def test_not_coprime(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM)
        code, _, err = run_cli(capsys, ["diagonal", path, "-p", "3"])
        assert code == 4

    def test_non_prime(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM)
        code, _, _ = run_cli(capsys, ["diagonal", path, "-p", "4"])
        assert code == 4

    def test_strong_pseudoprime_to_twelve_bases(self, tmp_path, capsys):
        # 399165290221 * 798330580441 passes the first 12 prime bases
        path = write_doc(tmp_path, MONOMIAL_3)
        code, _, err = run_cli(
            capsys, ["diagonal", path, "-p", "318665857834031151167461"]
        )
        assert code == 4
        assert "not prime" in err

    def test_prime_beyond_deterministic_bound(self, tmp_path, capsys):
        # the bound itself fools all 13 bases
        path = write_doc(tmp_path, MONOMIAL_3)
        code, _, err = run_cli(
            capsys, ["diagonal", path, "-p", "3317044064679887385961981"]
        )
        assert code == 4
        assert "3317044064679887385961981" in err


class TestOrdinaryClasses:
    def test_monomial_six(self, tmp_path, capsys):
        doc = {"family": {"name": "monomial", "parameters": {"d": 6}}}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["ordinary-classes", path, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["classes"] == ["1"]
        assert report["density"] == "1/2"

    def test_five_dim(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM)
        code, out, _ = run_cli(capsys, ["ordinary-classes", path, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["classes"] == ["1"]
        assert report["density"] == "1/2"

    def test_unimodular_density_one(self, tmp_path, capsys):
        doc = {"n": 2, "support": [[1, 0], [0, 1]]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["ordinary-classes", path, "--format", "json"])
        assert code == 0
        assert json.loads(out)["density"] == "1"


class TestDecompose:
    def test_gen_kloosterman(self, tmp_path, capsys):
        doc = {
            "family": {
                "name": "generalized_kloosterman",
                "parameters": {"n": 2, "v": [2, 3]},
            }
        }
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["decompose", path, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        factors = sorted(tuple(r["invariant_factors"]) for r in report["faces"])
        assert factors == [("1", "1"), ("1", "2"), ("1", "3")]
        assert report["dstar"] == "6"

    def test_certificate(self, tmp_path, capsys):
        doc = {
            "family": {
                "name": "generalized_kloosterman",
                "parameters": {"n": 2, "v": [2, 3]},
            }
        }
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(
            capsys, ["decompose", path, "-p", "7", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["certificate"]["certified"] is True

    def test_five_dim_no_certificate(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM)
        code, out, _ = run_cli(
            capsys, ["decompose", path, "-p", "5", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["certificate"]["certified"] is False
        assert report["certificate"]["dstar"] == "3"

    def test_unit_box_dstar(self, tmp_path, capsys):
        doc = {"family": {"name": "box", "parameters": {"dims": [1, 1]}}}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["decompose", path, "--format", "json"])
        assert code == 0
        assert json.loads(out)["dstar"] == "1"

    def test_deformed_support_ignores_low_weight_terms(self, tmp_path, capsys):
        # the deformation term (1,0) sits below the single away-face and
        # does not occur in any face piece
        doc = {"n": 2, "support": [[3, 0], [0, 3], [1, 0]]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(
            capsys, ["decompose", path, "-p", "7", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["faces"]) == 1
        assert report["faces"][0]["support_points"] == [["3", "0"], ["0", "3"]]
        assert report["certificate"]["certified"] is True
        assert report["certificate"]["dstar"] == "3"

    @pytest.mark.parametrize("doc", [
        {"family": {"name": "kloosterman", "parameters": {"n": 3}}},
        {"n": 2, "support": [[2, 0], [0, 3]]},
    ], ids=["kloosterman-3", "diagonal-2-3"])
    def test_smith_diagonal_off_the_determinant_exits_broken_invariant(
            self, doc, tmp_path, capsys, monkeypatch):
        # every piece's Smith form is checked, with or without a certificate
        double_the_last_invariant_factor(monkeypatch)
        path = write_doc(tmp_path, doc)
        for fmt in sorted(cli.RENDERERS):
            for prime in ([], ["-p", "7"]):
                code, out, err = run_cli(
                    capsys, ["decompose", path, "--format", fmt] + prime)
                assert (code, out, err) == (cli.EXIT_INVARIANT, "", SMITH_PRODUCT_ERROR)


def assert_scan_matches_is_ordinary(support, bound):
    """Every scan row agrees with the per-prime norm-stability test."""
    report = cli.cmd_scan(support, {}, bound)
    ds = diagonal.DiagonalSimplex.from_support(support)
    assert [row["p"] for row in report["rows"]] == [
        str(p) for p in range(2, bound) if all(p % q for q in range(2, p))
    ]
    for row in report["rows"]:
        p = int(row["p"])
        if gcd(p, ds.group_order) != 1:
            assert row["verdict"] == "excluded"
        else:
            ordinary = diagonal.is_ordinary(ds, p).ordinary
            assert row["verdict"] == ("ordinary" if ordinary else "non-ordinary")


def is_n_point(name, params):
    support = catalog.make(name, params).support
    return len(support.points) == support.dim


N_POINT_FAMILIES = [("monomial", {"d": 1})] + [
    case for case in CATALOG_CASES if is_n_point(*case)
]


@pytest.mark.parametrize("name,params", N_POINT_FAMILIES,
                         ids=[f"{n}-{p}" for n, p in N_POINT_FAMILIES])
def test_scan_verdicts_match_is_ordinary_on_catalog(name, params):
    assert_scan_matches_is_ordinary(catalog.make(name, params).support, 120)


def nonsingular_columns(n):
    return st.lists(
        st.tuples(*[st.integers(-4, 4)] * n), min_size=n, max_size=n
    ).filter(lambda cols: 0 < abs(exactmath.determinant(
        exactmath.IntMatrix.from_columns(cols))) <= 200)


@given(st.sampled_from([2, 3]).flatmap(nonsingular_columns))
@settings(max_examples=60, deadline=None)
def test_scan_verdicts_match_is_ordinary_on_random_matrices(cols):
    assert_scan_matches_is_ordinary(polytope.Support(len(cols), tuple(cols)), 80)


class TestScan:
    def test_monomial_criterion(self, tmp_path, capsys):
        path = write_doc(tmp_path, MONOMIAL_3)
        code, out, _ = run_cli(capsys, ["scan", path, "--bound", "100", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        for row in report["rows"]:
            p = int(row["p"])
            if row["verdict"] == "excluded":
                assert p == 3
            else:
                assert (row["verdict"] == "ordinary") == (p % 3 == 1)

    def test_five_dim_splits_by_residue(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM)
        code, out, _ = run_cli(capsys, ["scan", path, "--bound", "200", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        for row in report["rows"]:
            if row["verdict"] == "excluded":
                continue
            assert (row["verdict"] == "ordinary") == (row["residue"] == "1")
        assert report["summary"]["predicted_density"] == "1/2"

    def test_csv_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, MONOMIAL_3)
        code, out, _ = run_cli(capsys, ["scan", path, "--bound", "20", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,residue,verdict"
        assert lines[1].startswith("2,")


class TestInputHandling:
    def test_reports_are_reproducible(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM)
        _, out1, _ = run_cli(capsys, ["diagonal", path, "-p", "7", "--format", "json"])
        _, out2, _ = run_cli(capsys, ["diagonal", path, "-p", "7", "--format", "json"])
        assert out1 == out2

    def test_json_round_trip(self, tmp_path, capsys):
        path = write_doc(tmp_path, FIVE_DIM)
        _, out, _ = run_cli(capsys, ["diagonal", path, "-p", "7", "--format", "json"])
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_string_integers_accepted(self, tmp_path, capsys):
        doc = {"n": 1, "support": [["12"]]}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["hodge", path, "--format", "json"])
        assert code == 0
        assert json.loads(out)["denominator"] == "12"

    def test_huge_integers_parse_but_refuse_enumeration(self, tmp_path, capsys):
        doc = {"n": 1, "support": [["100000000000000000000003"]]}
        path = write_doc(tmp_path, doc)
        code, _, err = run_cli(capsys, ["hodge", path, "--format", "json"])
        assert code == 2
        assert "too large" in err

    def test_huge_determinant_refused_before_enumeration(self, tmp_path, capsys):
        # a group of order 10**30: the budget check reads only |det|
        doc = {"n": 1, "support": [["1" + "0" * 30]]}
        path = write_doc(tmp_path, doc)
        for command in (
            ["diagonal", path, "-p", "7"],
            ["decompose", path, "-p", "7"],
            ["ordinary-classes", path],
            ["scan", path, "--bound", "30"],
        ):
            code, out, err = run_cli(capsys, command + ["--format", "json"])
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "too large" in err
            assert "Traceback" not in err

    BIG = "1" + "0" * 3000  # its square has 6,001 digits, past CPython's 4,300

    @pytest.mark.parametrize("support,command,code,message", [
        ([[BIG, "0"], ["0", BIG]], ["hodge"], 2,
         "enumeration box of <19934-bit number> points is too large at stage hodge"),
        ([[BIG, "0"], ["0", BIG]], ["diagonal", "-p", "7"], 2,
         "group of order <19932-bit number> is too large at stage group"),
        ([[BIG, "0"], ["0", BIG]], ["diagonal", "-p", "5"], 4,
         "5 divides the group order <19932-bit number>"),
        ([[BIG, "0"], ["0", BIG]], ["ordinary-classes"], 2,
         "group of order <19932-bit number> is too large at stage ordinary_residues"),
        ([[BIG, "0"], ["0", BIG]], ["scan", "--bound", "30"], 2,
         "group of order <19932-bit number> is too large at stage ordinary_residues"),
        ([[BIG, "1"], ["1", BIG]], ["hodge"], 2,
         "enumeration box of <19934-bit number> points is too large at stage hodge"),
        ([[BIG, "1"], ["1", BIG]], ["decompose"], 2,
         "a 19932-bit integer is too long to print at stage render"),
    ], ids=["hodge", "diagonal", "diagonal-not-coprime", "ordinary-classes", "scan",
            "hodge-off", "decompose-off"])
    def test_integers_too_long_to_print(self, tmp_path, capsys, support, command, code,
                                        message):
        path = write_doc(tmp_path, {"n": 2, "support": support})
        for fmt in sorted(cli.RENDERERS):
            got, out, err = run_cli(capsys, command[:1] + [path] + command[1:]
                                    + ["--format", fmt])
            assert got == code
            assert out == ""
            assert err == f"error: {message}\n"

    LONG = "1" + "0" * 5000  # a valid decimal integer that int() refuses to parse

    @pytest.mark.skipif(not polytope._DIGIT_LIMIT, reason="no integer digit limit")
    @pytest.mark.parametrize("doc,what", [
        ({"n": 1, "support": [[LONG]]}, "coordinate"),
        ({"family": {"name": "monomial", "parameters": {"d": LONG}}}, "parameter d"),
    ], ids=["coordinate", "family-parameter"])
    def test_decimal_string_past_the_digit_limit(self, tmp_path, capsys, doc, what):
        path = write_doc(tmp_path, doc)
        code, out, err = run_cli(capsys, ["hodge", path])
        assert code == 5
        assert out == ""
        assert err == (f"error: {what} of 5001 digits is past CPython's"
                       f" {polytope._DIGIT_LIMIT}-digit limit at stage load\n")

    def test_long_non_decimal_string_is_echoed_in_part(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"n": 1, "support": [["x" * 5000]]})
        code, out, err = run_cli(capsys, ["hodge", path])
        assert code == 5
        assert out == ""
        assert err == f"error: coordinate is not a decimal integer: '{'x' * 40}...'\n"

    def test_is_ordinary_prints_a_long_group_order(self):
        # cmd_diagonal meets orbits' coprimality check first, so call it directly
        big = int(self.BIG)
        ds = diagonal.DiagonalSimplex.from_matrix(exactmath.IntMatrix(((big, 0), (0, big))))
        with pytest.raises(NotCoprime, match=r"^5 divides the group order <19932-bit number>$"):
            diagonal.is_ordinary(ds, 5)

    def test_box_refusal_names_its_stage(self, tmp_path, capsys):
        # the 3-fold dilation spans a box of 301**3 points
        path = write_doc(tmp_path, {"n": 3, "support": [[100, 0, 0], [0, 100, 0], [0, 0, 100]]})
        code, out, err = run_cli(capsys, ["hodge", path])
        assert code == 2
        assert out == ""
        assert err == "error: enumeration box of 27270901 points is too large at stage hodge\n"

    @pytest.mark.parametrize("name,params,count", OVERSIZED,
                             ids=[f"{n}-{c}" for n, _, c in OVERSIZED])
    def test_oversized_family_refused_at_once(self, name, params, count, tmp_path, capsys):
        path = write_doc(tmp_path, {"family": {"name": name, "parameters": params}})
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["hodge", path])
        assert time.perf_counter() - start < 1.0
        assert code == 5
        assert out == ""
        assert err == f"error: {count} are too many at stage family\n"

    def test_oversized_hodge_table_refused(self, tmp_path, capsys):
        path = write_doc(tmp_path, HUGE_TABLE)
        for fmt in sorted(cli.RENDERERS):
            code, out, err = run_cli(capsys, ["hodge", path, "--format", fmt])
            assert code == 2
            assert out == ""
            assert err == "error: table of 569423674 rows is too large at stage hodge\n"

    def test_oversized_scan_bound_refused(self, tmp_path, capsys):
        path = write_doc(tmp_path, MONOMIAL_3)
        bound = str(polytope.ENUMERATION_LIMIT + 1)
        code, out, err = run_cli(capsys, ["scan", path, "--bound", bound])
        assert code == 2
        assert out == ""
        assert err == f"error: bound {bound} is too large at stage scan\n"

    def test_oversized_ray_pairing_refused(self, tmp_path, capsys, monkeypatch):
        # box [2, 1, 2]'s points, given explicitly: at this limit the family
        # itself would be refused, at stage family
        box = catalog.make("box", {"dims": [2, 1, 2]}).support
        path = write_doc(tmp_path, {"n": box.dim, "support": [list(p) for p in box.points]})
        monkeypatch.setattr(polytope, "ENUMERATION_LIMIT", 3)
        for command in (["hodge"], ["decompose"]):
            code, out, err = run_cli(capsys, command + [path])
            assert code == 2
            assert out == ""
            assert err == "error: 4 ray pairs are too many at stage facets\n"

    def test_broken_invariant_exits_without_traceback(self, tmp_path, capsys, monkeypatch):
        volume = polytope.NewtonPolyhedron.normalized_volume.func
        monkeypatch.setattr(polytope.NewtonPolyhedron, "normalized_volume",
                            property(lambda poly: volume(poly) + 1))
        path = write_doc(tmp_path, MONOMIAL_3)
        code, out, err = run_cli(capsys, ["hodge", path])
        assert code == 6
        assert out == ""
        assert err == (
            "error: broken invariant: Hodge numbers do not sum to the normalized volume\n"
        )

    def test_family_and_support_exclusive(self, tmp_path, capsys):
        doc = dict(KLOOSTERMAN)
        doc["family"] = {"name": "monomial", "parameters": {"d": 3}}
        path = write_doc(tmp_path, doc)
        code, _, _ = run_cli(capsys, ["hodge", path])
        assert code == 5

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, ["hodge", "/nonexistent/input.json"])
        assert code == 5

    def test_unknown_family_parameter_refused(self, tmp_path, capsys):
        # a typo is refused, not ignored and echoed as if it had been used
        doc = {"family": {"name": "dilated_simplex", "parameters": {"n": 2, "d": 2, "h": 3}}}
        path = write_doc(tmp_path, doc)
        code, out, err = run_cli(capsys, ["hodge", path])
        assert code == 5
        assert out == ""
        assert err == ("error: family 'dilated_simplex' has no parameter 'h';"
                       " known: ('n', 'd', 'D')\n")

    @pytest.mark.parametrize("doc,message", [
        ({"n": 1, "support": [[1]], "coeficients": [1]},
         "the document has no key 'coeficients';"
         " known: ('coefficients', 'family', 'n', 'support')"),
        ({"zeta": 1, "alpha": 2, "n": 1, "support": [[1]]},  # the first in sorted order
         "the document has no key 'alpha'; known: ('coefficients', 'family', 'n', 'support')"),
        ({"family": {"name": "monomial", "parameters": {"d": 3}, "params": {"d": 4}}},
         "'family' has no key 'params'; known: ('name', 'parameters')"),
    ], ids=["document", "document-sorted", "family"])
    def test_unknown_document_key_refused(self, tmp_path, capsys, doc, message):
        # a misspelt key is refused, not dropped from the echo
        path = write_doc(tmp_path, doc)
        for command in (["hodge"], ["decompose"], ["ordinary-classes"]):
            code, out, err = run_cli(capsys, command + [path])
            assert (code, out, err) == (5, "", f"error: {message}\n")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run_cli(capsys, ["hodge", str(path)])
        assert code == 5

        for bad in (
            {"family": {"name": [1]}},
            {"family": {"name": "kloosterman", "parameters": {"n": [2]}}},
            {"family": {"name": "dilated_simplex", "parameters": {"n": 2, "d": [2]}}},
        ):
            path = write_doc(tmp_path, bad)
            code, out, err = run_cli(capsys, ["hodge", path, "--format", "json"])
            assert code == 5
            assert out == ""
            assert err.startswith("error:")

    @pytest.mark.parametrize("content", [
        b'{"n": 1, "support": [[\xff]]}',  # not UTF-8
        b'{"n": 1, "support": [[1' + b"0" * 5000 + b']]}',  # over the int digit limit
    ], ids=["not-utf8", "huge-int-literal"])
    def test_unreadable_json_is_an_input_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, ["hodge", str(path)])
        assert code == 5
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("prefix", [
        '{"n": 1, "support": ',
        '{"n": 1, "support": [[1]], "coefficients": ',
    ], ids=["support", "coefficients"])
    def test_deep_nesting_is_an_input_error(self, tmp_path, capsys, prefix):
        # the decoder recurses once per level; 100,000 levels pass any stack limit
        path = tmp_path / "deep.json"
        path.write_text(prefix + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        code, out, err = run_cli(capsys, ["hodge", str(path)])
        assert (code, out) == (5, "")
        assert err == f"error: {path} nests too deeply to decode at stage load\n"

    def test_coefficients_echoed(self, tmp_path, capsys):
        doc = dict(MONOMIAL_3)
        doc["coefficients"] = [1]
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, ["hodge", path, "--format", "json"])
        assert code == 0
        assert json.loads(out)["input"]["coefficients"] == ["1"]

        for bad in ({"a": 1}, [1.5]):
            doc["coefficients"] = bad
            path = write_doc(tmp_path, doc)
            code, out, err = run_cli(capsys, ["hodge", path, "--format", "json"])
            assert code == 5
            assert out == ""
            assert "coefficient" in err

    def test_text_format_default(self, tmp_path, capsys):
        path = write_doc(tmp_path, MONOMIAL_3)
        code, out, _ = run_cli(capsys, ["hodge", path])
        assert code == 0
        assert out.startswith("command: hodge")


class TestWorkDoneOnce:
    @pytest.mark.parametrize("command,builds", [
        (["diagonal", "-p", "7"], 0),
        (["ordinary-classes"], 0),
        (["scan", "--bound", "40"], 0),
        (["decompose", "-p", "7"], 1),  # facial_decompose's own
    ], ids=["diagonal", "ordinary-classes", "scan", "decompose"])
    def test_n_point_commands_skip_the_hull_machinery(
        self, tmp_path, capsys, monkeypatch, command, builds
    ):
        counts = {"build": 0, "volume": 0}
        build = polytope.build
        volume = polytope.NewtonPolyhedron.normalized_volume.func

        def counted(name, original):
            def call(*args):
                counts[name] += 1
                return original(*args)
            return call

        monkeypatch.setattr(polytope, "build", counted("build", build))
        monkeypatch.setattr(polytope.NewtonPolyhedron, "normalized_volume",
                            property(counted("volume", volume)))
        path = write_doc(tmp_path, FIVE_DIM)
        code, _, _ = run_cli(capsys, command[:1] + [path] + command[1:])
        assert code == 0
        assert counts == {"build": builds, "volume": 0}


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_shared_parser_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        path = write_doc(tmp_path, MONOMIAL_3)
        calls = [
            ["hodge", path, "--format", "json"],
            ["diagonal", path, "-p", "7"],
            ["diagonal", path],  # argparse error: -p is required
            ["decompose", path, "--strategy", "max-invariant-factor", "-p", "13",
             "--format", "csv"],
            ["scan", path, "--bound", "x"],  # argparse error: not an integer
            ["decompose", path],
            ["no-such-command", path],
            ["ordinary-classes", path, "--format", "text"],
            ["scan", path, "--bound", "40", "--format", "json"],
            ["hodge", "--help"],
            ["hodge", path],
        ]

        def run_all():
            outcomes = []
            for argv in calls:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
                captured = capsys.readouterr()
                outcomes.append((code, captured.out, captured.err))
            return outcomes

        shared = run_all()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = run_all()
        assert shared == fresh
        assert [code for code, _, _ in shared][:3] == [0, 0, ("exit", 2)]


@pytest.mark.parametrize("command", [
    ["hodge"],
    ["decompose", "--strategy", "first-lex"],
    ["decompose", "--strategy", "max-invariant-factor"],
])
def test_reports_match_subset_sweep_on_lattice_rich_box(tmp_path, capsys, monkeypatch, command):
    path = write_doc(tmp_path, BOX_212)
    fast = run_cli(capsys, command + [path])
    monkeypatch.setattr(polytope, "_extreme_rays", sweep_cone)
    assert run_cli(capsys, command + [path]) == fast
    assert fast[0] == 0


# sha256 of each report as the tuple-walking group code (now tests/oracles.py)
# rendered it: the Z/3 x Z/9 group of four_dim D=3 k=2 and a cyclic group of
# order 74 with three ordinary classes, through every diagonal command and format.
# Two more were rendered by the per-integer formatter, before the list formatter:
# a cyclic group of order 2,736 whose Hodge polygon has 2,736 runs and whose
# Newton polygon at p = 7 has 66, and Z/2 x Z/4 x Z/12
PINNED_DOCS = {
    "four_dim_3_2": {"family": {"name": "four_dim", "parameters": {"D": 3, "k": 2}}},
    "cyclic_74": {"n": 3, "support": [[-2, 2, 1], [5, 2, -2], [1, 2, 5]]},
    "cyclic_2736": {"n": 4, "support": [[-5, -2, -3, 4], [4, -8, -1, -5], [0, 3, 7, -3],
                                        [-3, -5, 4, 7]]},
    "non_cyclic_2_4_12": {"n": 4, "support": [[1, 0, -1, 0], [4, -2, -2, 4], [-2, 0, 6, 0],
                                              [3, -12, 1, 12]]},
}
PINNED_OPTIONS = {"diagonal": ["-p", "7"], "ordinary-classes": [], "scan": ["--bound", "500"]}
PINNED_REPORTS = {
    ("four_dim_3_2", "diagonal", "json"): "ed5e798f318222ea91577757fe7d5200ceb9231cf0bd0f3ff8d02b951898141a",
    ("four_dim_3_2", "diagonal", "text"): "8da220e0f2634665a4223bf93d90ffc90c7c1f7b92adf5cf1aa9d4a2908dc60a",
    ("four_dim_3_2", "diagonal", "csv"): "844109f2645aadc156bee3ab0ac682a8f5101013c7343e76be52c51bb04208b6",
    ("four_dim_3_2", "ordinary-classes", "json"): "44c5990b7da821c945f75259b82981415a2ed54ec4b70ecb95bbd9ec3f33a817",
    ("four_dim_3_2", "ordinary-classes", "text"): "e48b209fa5eb061642b821c8db6cf1e8c713455ee8c9e0012bf4fa089adffdab",
    ("four_dim_3_2", "ordinary-classes", "csv"): "1492c386d19c0c834638d6c5869937d345ede13d583f4efe0415bf4f45d37b57",
    ("four_dim_3_2", "scan", "json"): "871ed70d048af384c1b3ae9a1b282408809f7807b87993a2c2082bab923627fb",
    ("four_dim_3_2", "scan", "text"): "931af47d3753ea594ae67c4993acd6ce0dfda69574d7c0a8a5a3d1aefc931ae0",
    ("four_dim_3_2", "scan", "csv"): "3a26395af832a6ebb94689f539bbac01f58a9e380469881742bb6f5e34348443",
    ("cyclic_74", "diagonal", "json"): "ced5f9fac7168ff18f5dfb6f059e10b58fac6af3b14920cc210f7d454a4a6cad",
    ("cyclic_74", "diagonal", "text"): "410b68b93dd1790051f86a05a8f52b512f8f6debef28cc9c7fd5271e6a40467d",
    ("cyclic_74", "diagonal", "csv"): "6bca1bd1b45e1be5c28e833c9c0390fa939d0d74140555a7a04dd9465ea7e7a2",
    ("cyclic_74", "ordinary-classes", "json"): "2c926540d3937d43ae1bb7632a968db9fe5f2b34921ee3208570ee9098720d02",
    ("cyclic_74", "ordinary-classes", "text"): "f0b764b0205eb02dd9fb8a446f955828f38e0e06414ace233b77e00e325c4507",
    ("cyclic_74", "ordinary-classes", "csv"): "554dcc75331e6531f47e54536d37e021a871d76dda23c533dab424ad8b3057ab",
    ("cyclic_74", "scan", "json"): "fec7d3b1682c1846ff05a3d3d357074af17bd91308298548a6f6913f7da9a795",
    ("cyclic_74", "scan", "text"): "dc366452251a4cd810ee9d9fcd6bdd80d82ad2ac85f0e6ccbeec6fe701fcce25",
    ("cyclic_74", "scan", "csv"): "5f6c0f84370038c4efd9317abc1a458fd50b63df9c8c88cdaa7a12adde32975b",
    ("cyclic_2736", "diagonal", "json"): "be4d8c64ae9580325e7d75d31d0f749023a6175fb17d03d7812d9eec393954a9",
    ("cyclic_2736", "diagonal", "text"): "ec759c0f20a9d0fcabac0a8608300d09075d6efd91c6e331d6127648d0be8d8b",
    ("cyclic_2736", "diagonal", "csv"): "ef18759603a845a408609906fc2452e3b34a7230e87384854cfb6f1408fbb265",
    ("cyclic_2736", "ordinary-classes", "json"): "e17931e1bab40831e623209121a927deeecd79b9b46de7e3c5b3c768edf8bbbd",
    ("cyclic_2736", "ordinary-classes", "text"): "227bf755d57ac11a9dfc7c86149b8016e93ab429c0da1bf5a2de06cbb0a375e0",
    ("cyclic_2736", "ordinary-classes", "csv"): "1492c386d19c0c834638d6c5869937d345ede13d583f4efe0415bf4f45d37b57",
    ("cyclic_2736", "scan", "json"): "cde64a12ed2fee6eeada305c0e0df4bf12c3f7c0b8276635f01e0e42b1bb0a28",
    ("cyclic_2736", "scan", "text"): "f478e1ffe663fa5c889914fab79611587442af6ad5828c6277ac1913a5608d48",
    ("cyclic_2736", "scan", "csv"): "4b0dd4d977fd2fbe80bf10fce05e094a40143bd4764696a9fc7d3294212b40ff",
    ("non_cyclic_2_4_12", "diagonal", "json"): "d3eeeb8521084e3bdca9875823ebaa0fa489a1f534b3c69f3b856a56c23c3d3b",
    ("non_cyclic_2_4_12", "diagonal", "text"): "0d7ea7239662e6fdfc4f04a29e81babc3c2d734b09ab7f13bfe63bf669ea5ec3",
    ("non_cyclic_2_4_12", "diagonal", "csv"): "cbe96fc12acc9469dee984d0e01d36e37793c4251d28ba84cd6d904b36d7cba4",
    ("non_cyclic_2_4_12", "ordinary-classes", "json"): "bf44735d9a8262c50a77ec931855d9854c0a975e4697e9c8ad24fbfa55559fba",
    ("non_cyclic_2_4_12", "ordinary-classes", "text"): "8b77e0e8d4ff6a1cdc9334caae764b4087241edb467e4eb1488e85964df0bdcb",
    ("non_cyclic_2_4_12", "ordinary-classes", "csv"): "1492c386d19c0c834638d6c5869937d345ede13d583f4efe0415bf4f45d37b57",
    ("non_cyclic_2_4_12", "scan", "json"): "82d9d44456c26b10b3f58112610f4bfd55ddd2db6f0f1c44ca8716b080def9f4",
    ("non_cyclic_2_4_12", "scan", "text"): "98a889a7ec056c80f3dabbe669a35b46989dc1a225be92d152a2857d4601174d",
    ("non_cyclic_2_4_12", "scan", "csv"): "235fd045fffc593fc2d0a73e9407076d1f8ccf25fb86ee105b2df55f9b6ebc53",
}


@pytest.mark.parametrize("doc,command,fmt", sorted(PINNED_REPORTS))
def test_group_reports_match_pinned_digests(tmp_path, capsys, doc, command, fmt):
    path = write_doc(tmp_path, PINNED_DOCS[doc])
    code, out, err = run_cli(capsys, [command, path, *PINNED_OPTIONS[command],
                                      "--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[doc, command, fmt]


# sha256 of each hodge and decompose report as the Fraction slope runs and
# json.dumps rendered them: a lattice-rich box, a dilated simplex with slopes
# k/2, and an explicit support whose hull has the origin as a vertex (slopes
# with denominators up to 60), through hodge and three decompose routes
PINNED_GEOMETRY_DOCS = {
    "box_212": BOX_212,
    "simplex_3_2_2": {"family": {"name": "dilated_simplex",
                                 "parameters": {"n": 3, "d": 2, "D": 2}}},
    "origin_vertex": {"n": 2, "support": [[2, 0], [0, 3], [3, 2], [1, 4]]},
}
PINNED_GEOMETRY_COMMANDS = {
    "hodge": ["hodge"],
    "first-lex": ["decompose"],
    "max-invariant-factor": ["decompose", "--strategy", "max-invariant-factor"],
    "certificate": ["decompose", "-p", "7"],
}
PINNED_GEOMETRY_REPORTS = {
    ("box_212", "hodge", "json"): "b08652831440afb33c322f3a10db570f181c8ba13de4308c2649f29d124d8c0a",
    ("box_212", "hodge", "text"): "f0d868626109d6048ef129847fc67e49bc867ead2625a0e93b1a394992a35fc5",
    ("box_212", "hodge", "csv"): "f2e703b9cd5a3cbe883ad3a9414b5c3cfb6e7c1c90acd4a75fa669822e358ab1",
    ("box_212", "first-lex", "json"): "5dc1255893b37d8c5440fe603fee2a016abb824e957c1de0c230bf4b9da22332",
    ("box_212", "first-lex", "text"): "66eb30d7f9c912ca787f82cab6a731b56d55323a13a2d4d952770b3702062669",
    ("box_212", "first-lex", "csv"): "955b42c5e1633b094700919b8b806108addf370376284836c2eca2e18a5a39d6",
    ("box_212", "max-invariant-factor", "json"): "b35238ae772ccda874665bc5158ca91d025be143e2fa9f78754b6ffaa636676a",
    ("box_212", "max-invariant-factor", "text"): "1b8cb1c3d9a90c05d3bb495506e665b0f46a86995aeb238802a760e4c4bdbb12",
    ("box_212", "max-invariant-factor", "csv"): "955b42c5e1633b094700919b8b806108addf370376284836c2eca2e18a5a39d6",
    ("box_212", "certificate", "json"): "d53e92d29b54cc4677970f2fdd656724480fb8df4bf1ce3d64eb77d74b508729",
    ("box_212", "certificate", "text"): "e749d4e8910df958fe6325b28b1d124b6e256e4b31aebc7ab356b2009529a3d8",
    ("box_212", "certificate", "csv"): "955b42c5e1633b094700919b8b806108addf370376284836c2eca2e18a5a39d6",
    ("simplex_3_2_2", "hodge", "json"): "d0dfa9f3e05b8960fca89484d772335bcbfbc5dcbc41649df9b1abee930eb5e8",
    ("simplex_3_2_2", "hodge", "text"): "66a2b8786f24c0b7d997546e659b51e5d9359b11079549b04f8a2e19f55f6809",
    ("simplex_3_2_2", "hodge", "csv"): "bbcd1af1e6f8146b6b88c21ebc1b94b90e5cf13d3ebe78adfaf4b9108454fa82",
    ("simplex_3_2_2", "first-lex", "json"): "5df59e221d8688bf9ed238febd094e910e481652ea0a5d7180a08f2842f50bc9",
    ("simplex_3_2_2", "first-lex", "text"): "3abe0568d2006e3c273c8148250968eaf4c925d58af9938ed42c44ee7979a81d",
    ("simplex_3_2_2", "first-lex", "csv"): "6086e4ed0b36023f883e21bcb64ddcbc2c884aebb07c11cd669e93cf7cb9dce3",
    ("simplex_3_2_2", "max-invariant-factor", "json"): "95c696f179e194c5e1c527cdc2e4747830ea411f54f953212361955ca2c53986",
    ("simplex_3_2_2", "max-invariant-factor", "text"): "ab84f693dd176eeb5523ae434fd176d1ac6b0eb48cb6c30acdf98e3541fc9001",
    ("simplex_3_2_2", "max-invariant-factor", "csv"): "6086e4ed0b36023f883e21bcb64ddcbc2c884aebb07c11cd669e93cf7cb9dce3",
    ("simplex_3_2_2", "certificate", "json"): "6544a4ad9495dee10996fe52a69e22254be977b4a73c38bbb56ba84b5d379be0",
    ("simplex_3_2_2", "certificate", "text"): "9eaedc443f096d4315d278fff053a6baa54cd38d32fb71a5b574dc372330386c",
    ("simplex_3_2_2", "certificate", "csv"): "6086e4ed0b36023f883e21bcb64ddcbc2c884aebb07c11cd669e93cf7cb9dce3",
    ("origin_vertex", "hodge", "json"): "a51d4a125690f65e5cda99e0d6cbbe1e98a9281434baf8385ecb5f72f8492d57",
    ("origin_vertex", "hodge", "text"): "76ba0ba459fa629cd6de448b4a287d1eebf2e5c5e81271be8acef8b840c40455",
    ("origin_vertex", "hodge", "csv"): "abd715191b7dd21ca89d3133ba78903b479014bd7dceef38a72aeff8a2de4556",
    ("origin_vertex", "first-lex", "json"): "30b0cab039b0b38935557474305b3743f3d48c964bc908d971c81cac0c506b43",
    ("origin_vertex", "first-lex", "text"): "8fb77e3b0e423658d9ad89defe2e5d91ac38d460ef24ae28217ecc3ce7a5a094",
    ("origin_vertex", "first-lex", "csv"): "da2235fb2514bf0412ca405e99fe3ec4aba5ed4695fd65358dd0729da0ea5c84",
    ("origin_vertex", "max-invariant-factor", "json"): "52d4901546f9645edfa1c2f1feb68b6aed0190bd18f9514a2af05b5df977f3b5",
    ("origin_vertex", "max-invariant-factor", "text"): "9615722ed595566dc82490d2ad2353213c79047fe5734a88a65a09b987377420",
    ("origin_vertex", "max-invariant-factor", "csv"): "da2235fb2514bf0412ca405e99fe3ec4aba5ed4695fd65358dd0729da0ea5c84",
    ("origin_vertex", "certificate", "json"): "70d283b40b176b39d2fa2a4fbb3dc399aaa08d7abae10bdb764c7a26166edfde",
    ("origin_vertex", "certificate", "text"): "459c1af38a5211e64ddfc343ec0140295a7cad61ae5a6c932ddbc31506e7ba8a",
    ("origin_vertex", "certificate", "csv"): "da2235fb2514bf0412ca405e99fe3ec4aba5ed4695fd65358dd0729da0ea5c84",
}


@pytest.mark.parametrize("doc,command,fmt", sorted(PINNED_GEOMETRY_REPORTS))
def test_geometry_reports_match_pinned_digests(tmp_path, capsys, doc, command, fmt):
    path = write_doc(tmp_path, PINNED_GEOMETRY_DOCS[doc])
    argv = PINNED_GEOMETRY_COMMANDS[command]
    code, out, err = run_cli(capsys, [argv[0], path, *argv[1:], "--format", fmt])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PINNED_GEOMETRY_REPORTS[doc, command, fmt]


def per_entry(nums, den):
    """The list formatter's reference: one checked _fmt_quotient per entry."""
    try:
        return [cli._fmt_quotient(x, den) for x in nums]
    except DegenerateInput as exc:
        return str(exc)


def per_list(nums, den):
    try:
        return cli._fmt_quotients(nums, den)
    except DegenerateInput as exc:
        return str(exc)


# numerators of every sign and length, some past CPython's digit limit
numerators = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-(10**60), 10**60),
    st.sampled_from([0, 1, -1, 10**4400, -(10**4400), 10**4400 * 6, 2**20000]),
)
denominators = st.one_of(st.just(1), st.integers(1, 10**6), st.integers(1, 10**60),
                         st.sampled_from([6, 10**4400, 10**4400 * 3]))


@given(st.lists(numerators, max_size=8), denominators)
@settings(max_examples=400, deadline=None)
def test_list_formatter_matches_per_entry_route(nums, den):
    assert per_list(nums, den) == per_entry(nums, den)


@pytest.mark.skipif(not polytope._DIGIT_LIMIT, reason="no integer digit limit")
@pytest.mark.parametrize("nums,den", [
    ([1, 10**4400, 2], 1),
    ([0, -(10**4400), 5], 3),
    ([10**4400, 10**200], 10**200),  # reduced, the long entry prints as before
    ([3], 10**4400),
    ([10**4400], 10**4400),
    ([], 10**4400),
    ((), 7),
], ids=["integer", "negative", "reduced", "denominator", "cancels", "empty-long", "empty"])
def test_list_formatter_refuses_like_the_per_entry_route(nums, den):
    expected = per_entry(nums, den)
    assert per_list(nums, den) == expected
    if isinstance(expected, str):
        assert expected.endswith("-bit integer is too long to print at stage render")


# strings that exercise every escape: quotes, backslashes, control characters,
# DEL, non-ASCII text and characters beyond the BMP
json_strings = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aZ09é€\u2028\U0001f600') | st.characters(),
    max_size=6)
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | json_strings,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(json_strings, max_size=4)
                   | st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=40)


@given(json_trees)
@settings(max_examples=300, deadline=None)
def test_render_json_matches_json_dumps(tree):
    assert cli.render_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("tree", [
    {"density": 0.5},
    {"rows": [{"p": "2"}, ["1", 1.0]]},
    {1: "a"},
    {"a": {"b": [{2: None}]}},
    {"a": 1, 2: "b"},
])
def test_render_json_refuses_floats_and_non_string_keys(tree):
    with pytest.raises(BrokenInvariant):
        cli.render_json(tree)


@pytest.mark.parametrize("field,value", [("density", 0.5), ("classes", {1: "1"})])
def test_unrenderable_report_exits_broken_invariant(tmp_path, capsys, monkeypatch,
                                                     field, value):
    compute = cli.cmd_ordinary_classes

    def patched(support, echo):
        report = compute(support, echo)
        report[field] = value
        return report

    monkeypatch.setattr(cli, "cmd_ordinary_classes", patched)
    path = write_doc(tmp_path, FIVE_DIM)
    code, out, err = run_cli(capsys, ["ordinary-classes", path, "--format", "json"])
    assert (code, out) == (cli.EXIT_INVARIANT, "")
    assert err.startswith("error: broken invariant: ") and err.count("\n") == 1
