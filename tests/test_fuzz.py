"""Fuzzing at the parse boundary: any text either parses or raises
LiteralParseError, and `cli.run` maps every literal to exit 0, 1 or 2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenquadrics.cli import run
from greenquadrics.errors import LiteralParseError
from greenquadrics.exact import parse_quadext, parse_rational
from greenquadrics.mat2 import parse_mat2

# text shaped like the literals, so that fuzzing also reaches valid values
literal_text = st.one_of(
    st.text(),
    st.text(alphabet="0123456789-+/*,;[] sqrt²٣", max_size=24),
)


@pytest.mark.parametrize("parse", [parse_rational, parse_mat2, parse_quadext])
@given(text=literal_text)
def test_parsers_raise_only_literal_errors(parse, text):
    try:
        parse(text)
    except LiteralParseError:
        pass


# One fuzzed slot (`{}`) per subcommand.  Options use the `--opt=VALUE` form
# and positionals follow `--`, so a literal is never read as an option.
TEMPLATES = [
    ["classify", "--a={}", "--lambda=1"],
    ["green", "--rel=L", "--", "[1,0;0,0]", "{}"],
    ["inverses", "--a={}", "--grid=2"],
    ["order", "--report", "--trials=2", "--seed=1", "--", "{}"],
    ["lines", "--e={}"],
    ["plane", "--", "[1,0;0,0]", "{}"],
    ["bell", "--lambda=1", "--from={},0,0"],
    ["metrics", "--lambda={}"],
    ["export", "--kind=section", "--a={}", "--lambda=1", "--samples=3", "--out={out}"],
]


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "x.csv")


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t[0])
@settings(max_examples=60, deadline=None)
@given(literal=literal_text)
def test_cli_exit_codes(template, literal, out_path):
    argv = [arg.format(literal, out=out_path) for arg in template]
    code, text = run(argv)
    assert code in (0, 1, 2), (argv, code, text)
