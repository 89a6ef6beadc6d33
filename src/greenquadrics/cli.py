"""Command-line front end `gq`.

Subcommands: classify, green, inverses, order, lines, plane, bell, metrics,
export, check.  Matrices are written `[a,b;c,d]` with rational entries and
values print exactly (rationals, `p + q*sqrt2`) unless --float is given.

Each literal is parsed once, in the runner of its subcommand; JSON output
echoes it in canonical form.  Every count (--grid, --samples, --trials) is
read by one argparse type, `_count`, and every --seed by `_seed`; both
take ASCII digits only, as the literals do.  argv is the only input: the
CLI reads no environment variable.

Each runner imports the modules it uses, so starting `gq` loads only the
parser and `greenquadrics.errors`, and returns `(text, record)`: the text,
and a dict of the exact values themselves (`Mat2`, `Fraction`, `QuadExt`,
bools, ints, strings, None, lists) keyed as docs/schema.json names them;
`export` has no record.  `_exact` is the one writer of an exact value:
text without --float goes through it, and under --json `run` encodes the
record with `json.dumps(record, default=_exact)`; the library returns
values, so `_run_order` also writes the order report.  The text is built
before that choice, so --json refuses what the text refuses: `metrics
--float --json` at a level past the float range exits 1, as `metrics
--float` does.  `check` exits 2 when its record counts fewer passes than
checks.

Exit codes: 0 success; 1 usage or literal parse errors, which include a
non-positive or non-integer --trials/--samples/--grid, a non-integer
--seed, an unwritable --out path, a result too large to print (beyond
Python's int-to-str digit limit, or beyond the float range under
--float) or nonzero and too small for a double under --float, and an
export whose --z-range bound or surface coefficient `sample_surface`
refuses (not finite, or past 1e150 in magnitude); 2 domain errors (and
failed `check` runs).  An error is one line: a path in it shows each
character that does not print as its escape.
"""

import argparse
import itertools
import os
import sys

from greenquadrics.errors import DomainError, LiteralParseError, RenderLimitError

__all__ = ["run", "main"]

_RELS = ("L", "R", "H", "D", "J")
# the keys of `checks.SUITES`, spelled out so that parsing loads no check
_SUITES = ("exact", "core", "green", "sets", "sections")
_KINDS = ("idempotents", "nilpotents", "section", "generator-lines")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)

    def parse_args(self, args, namespace=None):
        for arg in itertools.takewhile(lambda a: a != "--", args):
            # argparse drops a "--" value from "--opt=--" and stores [] for it
            name, _, value = arg.partition("=")
            if name.startswith("--") and value == "--":
                self.error(f"argument {name}: expected one argument")
        return super().parse_args(args, namespace)


def _integer(text: str, kind: str) -> int:
    """`text` read as an integer: ASCII digits, as in the literals, with an
    optional leading '-'."""
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit
            pass
    raise argparse.ArgumentTypeError(f"must be {kind}, not {text!r}")


def _count(text: str) -> int:
    """The type of every count option: a positive integer."""
    value = _integer(text, "a positive integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


def _seed(text: str) -> int:
    """The type of every --seed: an integer of either sign."""
    return _integer(text, "an integer")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="affine type of a variety slice")
    p.add_argument("--a", required=True, metavar="MAT")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RAT")

    p = sub.add_parser("green", help="test a Green relation between two matrices")
    p.add_argument("--rel", required=True, choices=_RELS)
    p.add_argument("a", metavar="MAT_A")
    p.add_argument("b", metavar="MAT_B")

    p = sub.add_parser("inverses", help="bilinear chart of the inverses of a rank-1 matrix")
    p.add_argument("--a", required=True, metavar="MAT")
    p.add_argument("--grid", type=_count, default=3, metavar="K")

    p = sub.add_parser("order", help="natural/minus order verdicts, or a section report")
    p.add_argument("mats", nargs="*", metavar="MAT")
    p.add_argument("--report", action="store_true", help="sample the order/section agreement below MAT")
    p.add_argument("--trials", type=_count, default=200)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("lines", help="generating lines of the idempotent surface through e")
    p.add_argument("--e", required=True, metavar="MAT")

    p = sub.add_parser("plane", help="is span{b1,b2} minus 0 an L- or R-class?")
    p.add_argument("b1", metavar="MAT_B1")
    p.add_argument("b2", metavar="MAT_B2")

    p = sub.add_parser("bell", help="convert between ambient and frame coordinates")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RAT")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--point", metavar="MAT")
    g.add_argument("--from", dest="coords", metavar="X,Y,Z")

    p = sub.add_parser("metrics", help="center/axis/radius of the trace-level slices")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RAT")

    p = sub.add_parser("export", help="sample a surface to CSV or OBJ")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--a", metavar="MAT")
    p.add_argument("--lambda", dest="lam", metavar="RAT")
    p.add_argument("--e", metavar="MAT")
    p.add_argument("--samples", type=_count, default=2000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--format", dest="fmt", choices=("csv", "obj"), default="csv")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--z-range", dest="z_range", metavar="LO:HI")

    p = sub.add_parser("check", help="run the seeded property suites")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=_count)
    p.add_argument("--suite", action="append", choices=_SUITES)

    # the output flags, each added last so that it stays last in the help
    for name, p in sub.choices.items():
        if name != "export":
            p.add_argument("--json", action="store_true")
        if name in ("inverses", "bell", "metrics"):
            p.add_argument("--float", dest="as_float", action="store_true")
    return parser


# --- rendering helpers -----------------------------------------------------


def _exact(v) -> str:
    """The one writer of an exact value: a `Mat2` as `[a,b;c,d]`, a
    `QuadExt` as `p + q*sqrt2`, a rational as `p/q`.  `run` passes it to
    `json.dumps` as `default`, and text without --float goes through it.
    Past the int-to-str digit limit the format functions raise
    `RenderLimitError` (exit 1), where `str` would raise a bare `ValueError`."""
    from greenquadrics.exact import QuadExt, format_quadext, format_rational
    from greenquadrics.mat2 import Mat2, format_mat2

    if isinstance(v, Mat2):
        return format_mat2(v)
    if isinstance(v, QuadExt):
        return format_quadext(v)
    return format_rational(v)


def _show(v, as_float: bool) -> str:
    """`v` as text: `_exact`, or under --float its doubles, comma-separated
    and bracketed for a matrix.  Export's conversion, so a nonzero value
    below the float range is refused, not printed as 0.0."""
    if not as_float:
        return _exact(v)
    from greenquadrics.exact import _coefficients
    from greenquadrics.mat2 import Mat2

    if isinstance(v, Mat2):
        return "[" + ",".join(map(repr, _coefficients(v.entries))) + "]"
    return repr(_coefficients((v,))[0])


def _shown(path: str) -> str:
    """`path` on one line: a character that does not print is escaped."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in path)


# --- command implementations ------------------------------------------------


def _run_classify(ns):
    from greenquadrics.exact import parse_rational
    from greenquadrics.mat2 import parse_mat2
    from greenquadrics.sections import classify_section

    a = parse_mat2(ns.a)
    lam = parse_rational(ns.lam)
    verdict = classify_section(a, lam)
    lines = [verdict.kind.value]
    if verdict.l_rep is not None:
        lines.append(f"  L-class rep: {_exact(verdict.l_rep)}")
        lines.append(f"  R-class rep: {_exact(verdict.r_rep)}")
    # the verdict's fields in their order, the kind by its name
    record = {"command": "classify", "a": a, "lambda": lam, **verdict._asdict(), "kind": verdict.kind.value}
    return "\n".join(lines), record


def _run_green(ns):
    from greenquadrics.green import green_eq
    from greenquadrics.mat2 import parse_mat2

    a = parse_mat2(ns.a)
    b = parse_mat2(ns.b)
    related = green_eq(ns.rel, a, b)
    record = {"command": "green", "rel": ns.rel, "a": a, "b": b, "related": related}
    return str(related).lower(), record


def _grid_params(k: int):
    """The first k of 0, 1, -1, 2, -2, ..."""
    from greenquadrics.exact import Rational

    return [Rational((i + 1) // 2 if i % 2 else -(i // 2)) for i in range(k)]


def _run_inverses(ns):
    from greenquadrics.mat2 import parse_mat2
    from greenquadrics.semigroup import chart_eval, inverse_chart

    k = ns.grid
    a = parse_mat2(ns.a)
    chart = inverse_chart(a)
    params = _grid_params(k)
    vectors = {"d0": chart.d0, "d1": chart.d1, "q0": chart.q0, "q1": chart.q1}
    grid = [{"s": s, "t": t, "x": chart_eval(chart, s, t)} for s in params for t in params]
    shown = {name: "(" + ", ".join(_show(v, ns.as_float) for v in pair) + ")" for name, pair in vectors.items()}
    lines = [
        f"inverses of {_exact(a)}: x(s,t) = (d0 + s d1)(q0 + t q1)^T",
        f"  d0 = {shown['d0']}  d1 = {shown['d1']}",
        f"  q0 = {shown['q0']}  q1 = {shown['q1']}",
        f"  {k}x{k} grid:",
        *(f"    s={_exact(p['s'])} t={_exact(p['t'])}: {_show(p['x'], ns.as_float)}" for p in grid),
    ]
    return "\n".join(lines), {"command": "inverses", "a": a, "chart": vectors, "grid": grid}


def _run_order(ns):
    from greenquadrics.mat2 import parse_mat2
    from greenquadrics.semigroup import minus_le, natural_le, order_section_report

    if ns.report:
        if len(ns.mats) != 1:
            raise _UsageError("order --report takes exactly one matrix")
        r = order_section_report(parse_mat2(ns.mats[0]), ns.trials, ns.seed)
        lines = [
            f"order/section agreement below a = {_exact(r.a)} ({r.trials} trials, seed {r.seed})",
            f"  x <= a  vs  x in SP(inv(a);1): {r.agree_le_vs_inv_section}/{r.trials}",
            f"  x <= a  vs  x in SP(a;1):      {r.agree_le_vs_section}/{r.trials}",
        ]
        if r.counterexamples:
            lines.append(f"  counterexamples (<= {len(r.counterexamples)} shown):")
            # the dict's repr with x written by `_exact`; `{{` would print braces
            lines += (f"    { {**cex, 'x': _exact(cex['x'])} }" for cex in r.counterexamples)
        else:
            lines.append("  no counterexamples to the inverse-section identity")
        return "\n".join(lines), {"command": "order-report", **r._asdict()}
    if len(ns.mats) != 2:
        raise _UsageError("order takes two matrices: X Y")
    x = parse_mat2(ns.mats[0])
    y = parse_mat2(ns.mats[1])
    nat = natural_le(x, y)
    mns = minus_le(x, y)
    text = f"natural_le: {str(nat).lower()}\nminus_le:   {str(mns).lower()}"
    return text, {"command": "order", "x": x, "y": y, "natural_le": nat, "minus_le": mns}


def _run_lines(ns):
    from greenquadrics.mat2 import parse_mat2
    from greenquadrics.semigroup import generator_line

    e = parse_mat2(ns.e)
    found = [generator_line(family, e) for family in ("L1", "L2")]
    text = "\n".join(f"{g.family}: base {_exact(g.base)} + t * {_exact(g.direction)}" for g in found)
    lines = [{"family": g.family, "base": g.base, "direction": g.direction} for g in found]
    return text, {"command": "lines", "e": e, "lines": lines}


def _run_plane(ns):
    from greenquadrics.green import classify_plane
    from greenquadrics.mat2 import parse_mat2

    b1 = parse_mat2(ns.b1)
    b2 = parse_mat2(ns.b2)
    verdict = classify_plane(b1, b2)
    if verdict.kind == "not_contained":
        text = "not contained in the singular variety"
    else:
        text = f"{verdict.kind}-class plane; representative {_exact(verdict.rep)}"
    return text, {"command": "plane", "b1": b1, "b2": b2, "kind": verdict.kind, "rep": verdict.rep}


def _run_bell(ns):
    from greenquadrics.exact import parse_quadext, parse_rational
    from greenquadrics.mat2 import parse_mat2
    from greenquadrics.sections import BellPoint, from_bell, to_bell

    lam = parse_rational(ns.lam)
    if ns.point is not None:
        x = parse_mat2(ns.point)
        p = to_bell(x, lam)
        values = {"X": p.X, "Y": p.Y, "Z": p.Z}
        record = {"command": "bell", "lambda": lam, "point": x, **values}
    else:
        coords = [parse_quadext(part) for part in ns.coords.split(",")]
        if len(coords) != 3:
            raise _UsageError("--from needs three comma-separated coordinates")
        values = from_bell(BellPoint(*coords, lam))._asdict()
        written = ",".join(_exact(c).replace(" ", "") for c in coords)
        record = {"command": "bell", "lambda": lam, "from": written, **values}
    text = "\n".join(f"{name} = {_show(v, ns.as_float)}" for name, v in values.items())
    return text, record


def _run_metrics(ns):
    from greenquadrics.exact import parse_rational
    from greenquadrics.sections import hyperboloid_metrics

    lam = parse_rational(ns.lam)
    m = hyperboloid_metrics(lam)
    form = " ".join("[" + ",".join(map(_exact, row)) + "]" for row in m.asymptotic_form)
    text = (
        f"center:     {_show(m.center, ns.as_float)}\naxis dir:   {_show(m.axis_dir, ns.as_float)}\n"
        f"radius^2:   {_show(m.radius_sq, ns.as_float)}\nasymptotic form (frame): {form}"
    )
    return text, {"command": "metrics", "lambda": lam, **m._asdict()}


def _run_export(ns):
    from greenquadrics.exact import parse_rational
    from greenquadrics.mat2 import parse_mat2
    from greenquadrics.surfaces import sample_surface, write_csv, write_obj

    if os.path.isdir(ns.out) or ns.out.endswith(("/", os.sep)):
        raise _UsageError(f"cannot write {_shown(ns.out)}: it names a directory")
    # argv cannot carry a NUL or a lone surrogate; `run` can
    try:
        name = os.fsencode(ns.out)
    except UnicodeEncodeError as exc:
        raise _UsageError(f"cannot write {_shown(ns.out)}: {exc.reason}") from None
    if b"\0" in name:
        raise _UsageError(f"cannot write {_shown(ns.out)}: it holds a NUL character")
    kwargs = {}
    if ns.kind == "section":
        if ns.a is None or ns.lam is None:
            raise _UsageError("export --kind section needs --a and --lambda")
        kwargs["a"] = parse_mat2(ns.a)
        kwargs["lam"] = parse_rational(ns.lam)
    elif ns.kind == "generator-lines":
        if ns.e is None:
            raise _UsageError("export --kind generator-lines needs --e")
        kwargs["e"] = parse_mat2(ns.e)
    if ns.z_range is not None:
        lo, sep, hi = ns.z_range.partition(":")
        if not sep:
            raise _UsageError("--z-range must look like LO:HI")
        try:
            lo_f, hi_f = float(lo), float(hi)
        except ValueError as exc:
            raise _UsageError(f"bad --z-range: {exc}") from None
        if not lo_f < hi_f:
            raise _UsageError("--z-range needs LO < HI")
        kwargs["z_span"] = (lo_f, hi_f)
    sample = sample_surface(ns.kind, ns.samples, ns.seed, **kwargs)
    write = write_csv if ns.fmt == "csv" else write_obj
    try:
        points, segments = write(sample, ns.out)
    except OSError as exc:
        raise _UsageError(f"cannot write {_shown(ns.out)}: {exc.strerror or exc}") from None
    text = f"wrote {points} points" + (f", {segments} segments" if segments else "") + f" to {_shown(ns.out)}"
    return text, None


def _run_check(ns):
    from greenquadrics import checks

    results = checks.run_checks(suites=ns.suite, seed=ns.seed, trials=ns.trials)
    record = {
        "command": "check",
        "seed": ns.seed,
        "results": [r._asdict() for r in results],
        "passed": sum(1 for r in results if r.ok),
        "total": len(results),
    }
    return checks.render_results(results), record


_RUNNERS = {
    "classify": _run_classify,
    "green": _run_green,
    "inverses": _run_inverses,
    "order": _run_order,
    "lines": _run_lines,
    "plane": _run_plane,
    "bell": _run_bell,
    "metrics": _run_metrics,
    "export": _run_export,
    "check": _run_check,
}


def run(argv) -> tuple[int, str]:
    """Execute argv; returns (exit_code, output text)."""
    try:
        ns = _build_parser().parse_args(argv)
        text, record = _RUNNERS[ns.command](ns)
        if getattr(ns, "json", False):
            import json

            text = json.dumps(record, indent=2, default=_exact)
        # a failed `check` run is the one result that exits 2
        return (2 if record and record.get("passed", 0) < record.get("total", 0) else 0), text
    except (_UsageError, RenderLimitError) as exc:
        return 1, f"usage error: {exc}"
    except LiteralParseError as exc:
        return 1, f"parse error: {exc}"
    except DomainError as exc:
        return 2, f"domain error: {exc}"


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code == 0 else sys.stderr
    print(text, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
