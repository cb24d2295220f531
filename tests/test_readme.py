"""README's `## Library` example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _show(value):
    """A value as the README writes it: tuples as (a, b), Fractions as p/q."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_show, value)) + ")"
    return str(value)


def test_library_example_matches_its_comments():
    namespace = {}
    statements = []
    checked = 0
    for line in _library_block().splitlines():
        code, _, expected = line.partition("#")
        if not expected:
            statements.append(line)
            continue
        exec("\n".join(statements), namespace)
        statements = []
        assert _show(eval(code, namespace)) == expected.strip()
        checked += 1
    assert checked == 2
