"""Golden self-tests: every family's recorded facts recompute identically."""

import pytest

from npoly import catalog
from npoly.errors import DegenerateInput

CASES = [
    ("monomial", {"d": 5}),
    ("monomial", {"d": 12}),
    ("kloosterman", {"n": 2}),
    ("kloosterman", {"n": 3}),
    ("generalized_kloosterman", {"n": 2, "v": [2, 3]}),
    ("two_sided", {"n": 2, "u": [2, 3], "v": [1, 2]}),
    ("inverted", {"n": 2, "v": [2, 3]}),
    ("bi_kloosterman", {"n": 2, "u": [1, 1], "v": [1, 1]}),
    ("bi_kloosterman", {"n": 2, "u": [2, 1], "v": [1, 1]}),
    ("bi_kloosterman", {"n": 3, "u": [1, 1, 1], "v": [1, 1, 1]}),
    ("bi_kloosterman", {"n": 3, "u": [1, 1, 2], "v": [1, 1, 1]}),
    ("box", {"dims": [1, 1]}),
    ("box", {"dims": [2, 1]}),
    ("dilated_simplex", {"n": 2, "d": 2, "D": 1}),
    ("dilated_simplex", {"n": 2, "d": 2, "D": 2}),
    ("five_dim", {}),
    ("extend_dim", {"n": 6}),
    ("four_dim", {"D": 2, "k": 2}),
    ("four_dim", {"D": 3, "k": 2}),
]


@pytest.mark.parametrize("name,params", CASES, ids=[f"{n}-{p}" for n, p in CASES])
def test_expected_facts_recompute(name, params):
    family = catalog.make(name, params)
    rows = catalog.check_family(family)
    assert rows, "every family must carry at least one fact"
    for kind, expected, actual, ok in rows:
        assert ok, f"{name}: {kind} expected {expected} got {actual}"


def test_make_examples():
    fam = catalog.make("monomial", {"d": 5})
    assert fam.support.points == ((5,),)
    assert ("denominator", 5) in fam.expected_facts

    fam = catalog.make("kloosterman", {"n": 3})
    assert ("lfunction_degree", 4) in fam.expected_facts
    assert ("denominator", 1) in fam.expected_facts

    fam = catalog.make("bi_kloosterman", {"n": 2, "u": [1, 1], "v": [1, 1]})
    assert ("lfunction_degree", 6) in fam.expected_facts


def test_unknown_family():
    with pytest.raises(DegenerateInput):
        catalog.make("septic", {})


def test_bad_parameters():
    with pytest.raises(DegenerateInput):
        catalog.make("monomial", {"d": 0})
    with pytest.raises(DegenerateInput):
        catalog.make("generalized_kloosterman", {"n": 2, "v": [2]})
    with pytest.raises(DegenerateInput):
        catalog.make("four_dim", {"D": 1, "k": 2})
    with pytest.raises(DegenerateInput):
        catalog.make("kloosterman", {})
