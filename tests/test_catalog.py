"""Golden self-tests: every family's recorded facts recompute identically."""

import pytest

from npoly import catalog
from npoly import decompose as dc
from npoly import polytope as pt
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


@pytest.mark.parametrize("name,params", [
    ("kloosterman", {"n": 3}),
    ("bi_kloosterman", {"n": 2, "u": [1, 1], "v": [1, 1]}),
])
def test_prime_sweep_collapses_the_faces_once(name, params, monkeypatch):
    # the verdict at each prime below 50 reads one facial collapse
    calls = []
    facial_decompose = dc.facial_decompose
    monkeypatch.setattr(dc, "facial_decompose",
                        lambda support: calls.append(support) or facial_decompose(support))
    family = catalog.make(name, params)
    assert catalog.evaluate_fact(family, "ordinary_for_primes_below_50") is True
    assert calls == [family.support]


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


# a name the family does not take, or a value that is not an int, is refused
# rather than ignored, rounded or read as 0/1
UNCHECKED = [
    ("dilated_simplex", {"n": 2, "d": 2, "h": 3},
     "family 'dilated_simplex' has no parameter 'h'; known: ('n', 'd', 'D')"),
    ("five_dim", {"n": 5}, "family 'five_dim' has no parameter 'n'; known: ()"),
    ("monomial", {"d": 2.7}, "d must be an integer"),
    ("monomial", {"d": True}, "d must be an integer"),
    ("kloosterman", {"n": "3"}, "n must be an integer"),
    ("dilated_simplex", {"n": 2, "d": 2, "D": False}, "D must be an integer"),
    ("box", {"dims": [1, 2.0]}, "dims must be a list of integers"),
    ("box", {"dims": 2}, "dims must be a list of integers"),
    ("generalized_kloosterman", {"n": 2, "v": [1, True]}, "v must be a list of integers"),
]


@pytest.mark.parametrize("name,params,message", UNCHECKED, ids=[
    "typo", "no-parameters", "float", "bool", "string", "bool-default", "float-in-list",
    "not-a-list", "bool-in-list"])
def test_parameters_are_checked_exactly(name, params, message):
    with pytest.raises(DegenerateInput) as info:
        catalog.make(name, params)
    assert str(info.value) == message


class Recorder(dict):
    """Parameters that note each name a builder reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_parameter_table_lists_what_the_builders_read():
    read = {name: set() for name in catalog.FAMILY_NAMES}
    for name, params in CASES:
        recorder = Recorder(params)
        catalog._BUILDERS[name][0](recorder)
        read[name] |= recorder.read
    assert read == {name: set(names) for name, (_, names) in catalog._BUILDERS.items()}


# documents whose builders would enumerate past the budget, with the count
# each refusal names: today's limit refuses them before the first point
OVERSIZED = [
    ("kloosterman", {"n": 20000}, "400020000 coordinates"),
    ("generalized_kloosterman", {"n": 3000, "v": [1] * 3000}, "9003000 coordinates"),
    ("two_sided", {"n": 3000, "u": [1] * 3000, "v": [1] * 3000}, "9003000 coordinates"),
    ("inverted", {"n": 3000, "v": [2] * 3000}, "9003000 coordinates"),
    ("extend_dim", {"n": 20000}, "400000000 coordinates"),
    ("box", {"dims": [3000, 3000]}, "27018003 coordinates"),
    ("box", {"dims": [1] * 100000}, "<100017-bit number> coordinates"),
    ("dilated_simplex", {"n": 9, "d": 40}, "41**9 candidate points"),
    ("dilated_simplex", {"n": 30, "d": 1}, "2**30 candidate points"),
    ("dilated_simplex", {"n": 10**12, "d": 7}, "8**1000000000000 candidate points"),
    ("four_dim", {"D": 10, "k": 10**8}, "400000000 bits of D**k"),
    ("bi_kloosterman", {"n": 30, "u": [1] * 30, "v": [1] * 30}, "2**30 sign vectors"),
]


@pytest.mark.parametrize("name,params,count", OVERSIZED,
                         ids=[f"{n}-{c}" for n, _, c in OVERSIZED])
def test_oversized_family_refused_before_building(name, params, count):
    with pytest.raises(DegenerateInput) as info:
        catalog.make(name, params)
    assert str(info.value) == f"{count} are too many at stage family"


def test_family_budget_boundaries(monkeypatch):
    # dilated_simplex n=2, d=2: 3**2 candidate points, 6 points of 3 coordinates
    params = {"n": 2, "d": 2}
    monkeypatch.setattr(pt, "ENUMERATION_LIMIT", 18)
    assert len(catalog.make("dilated_simplex", params).support.points) == 6
    monkeypatch.setattr(pt, "ENUMERATION_LIMIT", 17)
    with pytest.raises(DegenerateInput, match=r"^18 coordinates are too many"):
        catalog.make("dilated_simplex", params)
    monkeypatch.setattr(pt, "ENUMERATION_LIMIT", 8)
    with pytest.raises(DegenerateInput, match=r"^3\*\*2 candidate points are too many"):
        catalog.make("dilated_simplex", params)
    # bi_kloosterman n=7: 2**7 sign vectors, 16 points of 7 coordinates
    params = {"n": 7, "u": [1] * 7, "v": [1] * 7}
    monkeypatch.setattr(pt, "ENUMERATION_LIMIT", 128)
    assert len(catalog.make("bi_kloosterman", params).support.points) == 16
    monkeypatch.setattr(pt, "ENUMERATION_LIMIT", 127)
    with pytest.raises(DegenerateInput, match=r"^2\*\*7 sign vectors are too many"):
        catalog.make("bi_kloosterman", params)
    monkeypatch.setattr(pt, "ENUMERATION_LIMIT", 111)
    with pytest.raises(DegenerateInput, match=r"^112 coordinates are too many"):
        catalog.make("bi_kloosterman", params)
