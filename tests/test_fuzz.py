"""Fuzzing at the parse boundary: any text either parses or raises
LiteralParseError, and `cli.run` maps every literal to exit 0, 1 or 2,
with a nonzero exit printing one `usage error:`, `parse error:` or
`domain error:` line.  Every slot is also fed rationals just past either
end of the float range.  The count and seed slots are fuzzed at the
argument parser, where any text gives an `int` read from ASCII digits (a
positive one for a count) or one usage error; the counts run end to end
only on small integers, so that no example starts a long run."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenquadrics.cli import _build_parser, _UsageError, run
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
    "export-e": [*_EXPORT, "--kind=generator-lines", "--e={}"],
    "export-seed": [*_EXPORT, "--kind=idempotents", "--seed={}"],
    "bell-point": ["bell", "--lambda=1", "--point={}"],
    "check-seed": ["check", "--suite=exact", "--trials=1", "--seed={}"],
    "order-seed": ["order", "--report", "--trials=2", "--seed={}", "--", "[2,1;1,3]"],
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


# Each count slot, keyed by its test id: a template and the parsed attribute.
COUNT_SLOTS = {
    "inverses-grid": (["inverses", "--a=[1,0;0,0]", "--grid={}"], "grid"),
    "export-samples": ([*_EXPORT, "--kind=idempotents", "--samples={}"], "samples"),
    "order-trials": (["order", "--report", "--trials={}", "--", "[2,1;1,3]"], "trials"),
    "check-trials": (["check", "--suite=exact", "--trials={}"], "trials"),
}

# integer text about 10^400 in size, of either sign
huge_integer = st.builds(
    lambda sign, k: sign + "1" + "0" * k, st.sampled_from(["", "+", "-"]), st.integers(300, 400)
)


# Each seed slot, keyed by its test id.
SEED_SLOTS = {
    "order-seed": ["order", "--report", "--seed={}", "--", "[2,1;1,3]"],
    "export-seed": [*_EXPORT, "--kind=idempotents", "--seed={}"],
    "check-seed": ["check", "--seed={}"],
}


def _parsed(template, dest, text):
    return getattr(_build_parser().parse_args([arg.format(text, out="x.csv") for arg in template]), dest)


@pytest.mark.parametrize("template,dest", COUNT_SLOTS.values(), ids=COUNT_SLOTS)
@given(text=st.one_of(literal_text, huge_integer))
# text that int() reads but a literal does not: a non-ASCII digit, a digit
# separator, a plus sign, surrounding space
@example(text="٣")
@example(text="1_0")
@example(text="+3")
@example(text=" 3")
def test_count_slots_parse_to_a_positive_int(template, dest, text):
    try:
        value = _parsed(template, dest, text)
    except _UsageError as exc:
        assert "\n" not in str(exc), (text, exc)
    else:
        assert type(value) is int and value >= 1 and text.isascii() and text.isdigit(), (text, value)


@pytest.mark.parametrize("template", SEED_SLOTS.values(), ids=SEED_SLOTS)
@given(text=st.one_of(literal_text, huge_integer))
@example(text="٣")
@example(text="1_0")
@example(text="+3")
@example(text=" 3")
@example(text="-0")
def test_seed_slots_parse_to_an_int(template, text):
    try:
        value = _parsed(template, "seed", text)
    except _UsageError as exc:
        assert "\n" not in str(exc), (text, exc)
    else:
        digits = text.removeprefix("-")
        assert type(value) is int and digits.isascii() and digits.isdigit(), (text, value)


@pytest.mark.parametrize("template,dest", COUNT_SLOTS.values(), ids=COUNT_SLOTS)
@settings(deadline=None)
@given(count=st.integers(-3, 10))
def test_count_slots_run_small_counts(template, dest, count, out_path):
    argv = [arg.format(count, out=out_path) for arg in template]
    code, text = run(argv)
    if count < 1:
        assert (code, text) == (1, f"usage error: argument --{dest}: must be positive, not {count}")
    else:
        assert code == 0, (argv, text)
