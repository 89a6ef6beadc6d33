"""Fuzzing at the parse boundary: any text either parses or raises
LiteralParseError, and `cli.run` maps every literal to exit 0, 1 or 2,
with a nonzero exit printing one `usage error:`, `parse error:` or
`domain error:` line.  Every slot is also fed rationals just past either
end of the float range."""

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


# One fuzzed slot (`{}`) per template, keyed by its test id.  Options use the
# `--opt=VALUE` form and positionals follow `--`, so a literal is never read
# as an option.  The `export-` templates fuzz the values export turns into
# floats: the level of an empty, a rank-1 and an invertible section, and
# the upper end of a z range.
_EXPORT = ["export", "--samples=3", "--out={out}"]
TEMPLATES = {
    "classify": ["classify", "--a={}", "--lambda=1"],
    "green": ["green", "--rel=L", "--", "[1,0;0,0]", "{}"],
    "inverses": ["inverses", "--a={}", "--grid=2"],
    "order": ["order", "--report", "--trials=2", "--seed=1", "--", "{}"],
    "lines": ["lines", "--e={}"],
    "plane": ["plane", "--", "[1,0;0,0]", "{}"],
    "bell": ["bell", "--lambda=1", "--from={},0,0"],
    "metrics": ["metrics", "--lambda={}"],
    "export": ["export", "--kind=section", "--a={}", "--lambda=1", "--samples=3", "--out={out}"],
    "export-lambda-zero": [*_EXPORT, "--kind=section", "--a=[0,0;0,0]", "--lambda={}"],
    "export-lambda-rank1": [*_EXPORT, "--kind=section", "--a=[1,2;2,4]", "--lambda={}"],
    "export-lambda-invertible": [*_EXPORT, "--kind=section", "--a=[2,1;1,3]", "--lambda={}"],
    "export-z-range": [*_EXPORT, "--kind=idempotents", "--z-range=-1:{}"],
}

# 10^k and 1/10^k for k = 300..400: rationals on both sides of the float range
near_float_range = st.builds(
    lambda k, inverse: ("1/1" if inverse else "1") + "0" * k, st.integers(300, 400), st.booleans()
)


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "x.csv")


@pytest.mark.parametrize("template", TEMPLATES.values(), ids=TEMPLATES)
@settings(max_examples=60, deadline=None)
@given(literal=st.one_of(literal_text, near_float_range))
def test_cli_exit_codes(template, literal, out_path):
    argv = [arg.format(literal, out=out_path) for arg in template]
    code, text = run(argv)
    assert code in (0, 1, 2), (argv, code, text)
    if code:
        assert text.startswith(("usage error:", "parse error:", "domain error:")), (argv, code, text)
        assert "\n" not in text, (argv, code, text)
