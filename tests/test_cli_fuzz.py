"""Fuzz `np` with hypothesis-drawn JSON documents.

Every command must end with a documented exit code, print nothing on stdout
when it fails, and never let an exception escape `cli.main`. Inputs stay
small: ambient dimension at most 3 (apart from the fixed five_dim and
four_dim instances), at most 5 explicit points and family parameters at
most 3. Box sides stay at most 2, because exhaustive collapse has no
budget yet and already runs past 5 s on a 4x4 box face.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from npoly import catalog, cli, decompose

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_GEOMETRY, cli.EXIT_SHAPE, cli.EXIT_ARITHMETIC,
              cli.EXIT_IO}

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)

FAMILY_PARAMETERS = {
    "monomial": ("d",),
    "kloosterman": ("n",),
    "generalized_kloosterman": ("n", "v"),
    "two_sided": ("n", "u", "v"),
    "inverted": ("n", "v"),
    "bi_kloosterman": ("n", "u", "v"),
    "box": ("dims",),
    "dilated_simplex": ("n", "d", "D"),
    "five_dim": (),
    "extend_dim": ("n",),
    "four_dim": ("D", "k"),
}


@st.composite
def explicit_docs(draw):
    n = draw(st.integers(1, 3))
    point = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return {"n": n, "support": draw(st.lists(point, min_size=1, max_size=5))}


@st.composite
def family_docs(draw):
    name = draw(st.sampled_from(sorted(FAMILY_PARAMETERS)))
    # dilated_simplex lives in dimension n + 1, box in dimension len(dims) + 1
    n = draw(st.integers(1, 2 if name == "dilated_simplex" else 3))
    values = {
        "n": st.just(n),
        "d": st.integers(1, 3),
        "D": st.integers(1, 3),
        "k": st.integers(1, 3),
        "u": st.lists(st.integers(1, 3), min_size=n, max_size=n),
        "v": st.lists(st.integers(1, 3), min_size=n, max_size=n),
        "dims": st.lists(st.integers(1, 2), min_size=1, max_size=2),
    }
    params = {key: draw(values[key]) for key in FAMILY_PARAMETERS[name]}
    return {"family": {"name": name, "parameters": params}}


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replace(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replace(node[path[0]], path[1:], value)
    return copy


def _as_strings(node):
    if isinstance(node, dict):
        return {k: _as_strings(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_as_strings(v) for v in node]
    return str(node) if isinstance(node, int) else node


@st.composite
def documents(draw):
    """A valid document, with integers as decimal strings half the time and
    one node (possibly the whole document) swapped for junk half the time."""
    doc = draw(st.one_of(explicit_docs(), family_docs()))
    if draw(st.booleans()):
        doc["coefficients"] = draw(st.lists(st.integers(-3, 3), max_size=3))
    if draw(st.booleans()):
        doc = _as_strings(doc)
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replace(doc, path, draw(junk))
    return json.dumps(doc)


@st.composite
def texts(draw):
    """Mostly JSON documents, sometimes arbitrary text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                            max_size=12))
    return draw(documents())


@st.composite
def commands(draw):
    name = draw(st.sampled_from(["hodge", "diagonal", "ordinary-classes", "decompose",
                                 "scan"]))
    if name == "diagonal":
        return [name, "-p", str(draw(st.integers(0, 30)))]
    if name == "decompose":
        strategy = ["--strategy", draw(st.sampled_from(decompose.STRATEGIES))]
        prime = ["-p", str(draw(st.integers(0, 120)))] if draw(st.booleans()) else []
        return [name, *strategy, *prime]
    if name == "scan":
        return [name, "--bound", str(draw(st.integers(0, 60)))]
    return [name]


@given(texts(), commands(), st.sampled_from(sorted(cli.RENDERERS)))
@example(  # volume 194, but its hodge table would have 569,423,674 rows
    text=json.dumps({"n": 3, "support": [[-1, -2, 3], [-1, 3, -1], [2, -3, -3],
                                         [2, 0, 1], [3, 3, 2]]}),
    command=["hodge"],
    fmt="text",
)
@example(  # |det| has 6,001 digits, past CPython's 4,300-digit printing limit
    text=json.dumps({"n": 2, "support": [["1" + "0" * 3000, "1"], ["1", "1" + "0" * 3000]]}),
    command=["decompose", "--strategy", "first-lex"],
    fmt="json",
)
@settings(max_examples=400, deadline=None)
def test_every_document_gets_a_documented_exit(text, command, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command[0], path, *command[1:], "--format", fmt])
    event(f"exit {code} from {command[0]}")
    assert code in EXIT_CODES
    if code != cli.EXIT_OK:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


def test_every_family_is_fuzzed():
    assert sorted(FAMILY_PARAMETERS) == sorted(catalog.FAMILY_NAMES)
    assert FAMILY_PARAMETERS == {name: names for name, (_, names) in catalog._BUILDERS.items()}
