"""Rules on the package source, read as text from ``src/``: each names a
pattern that no line of the package may contain, and the way to do
instead what the line would have done."""

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

RULES = {
    # one CSV writer: _util.write_csv
    "savetxt": (re.compile(r"savetxt"),
                "src/ writes CSV through numpy's text writer; use "
                "_util.write_csv"),
    # derivative columns come from curves.Jet; the one differenced use
    # (principal-curvature profiles) goes through _util.gradient_on
    "np.gradient": (re.compile(r"np\.gradient"),
                    "src/ calls np.gradient; use curves.Jet (or "
                    "_util.gradient_on)"),
    # a builder gives a report's aux in its Report(...) call, as a dict or
    # as a function that builds it; a later write would force an aux built
    # on first read
    "aux write": (re.compile(r"\.aux\[[^]]*\] *=([^=]|$)"),
                  "src/ writes to a report's aux; give it in Report(...)"),
}


def offending_lines(pattern):
    return [f"{path.relative_to(SRC.parent)}:{i}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            for i, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]


def test_source_tree_is_found():
    assert any(SRC.rglob("*.py"))


@pytest.mark.parametrize("name", sorted(RULES))
def test_no_source_line_matches(name):
    pattern, advice = RULES[name]
    assert offending_lines(pattern) == [], advice


@pytest.mark.parametrize("name, line, hit", [
    ("savetxt", "np.savetxt(path, table)", True),
    ("np.gradient", "d = np.gradient(v, ts)", True),
    ("np.gradient", "d = _util.gradient_on(ts)(v)", False),
    ("aux write", 'rep.aux["t0"] = t0', True),
    ("aux write", "rep.aux[key]=1", True),
    ("aux write", 'rep.aux["t0"] =', True),
    ("aux write", 'assert rep.aux["t0"] == t0', False),
    ("aux write", 'aux={"t0": t0}', False),
])
def test_rule_patterns(name, line, hit):
    """Each pattern finds what it names; the aux rule passes a comparison
    and an aux given in Report(...)."""
    assert bool(RULES[name][0].search(line)) is hit
