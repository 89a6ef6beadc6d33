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
parser and `greenquadrics.errors`.

Exit codes: 0 success; 1 usage or literal parse errors, which include a
non-positive or non-integer --trials/--samples/--grid, a non-integer
--seed, an unwritable --out path and a result too large to print (beyond
Python's int-to-str digit limit, or beyond the float range under
--float); 2 domain errors (and failed `check` runs).
"""

import argparse
import itertools
import math
import os
import sys

from greenquadrics.errors import DomainError, LiteralParseError, RenderLimitError

__all__ = ["run", "main"]

_RELS = ("L", "R", "H", "D", "J")
# the keys of `checks.SUITES`, spelled out so that parsing loads no check
_SUITES = ("exact", "core", "green", "sets", "sections")
_KINDS = ("idempotents", "nilpotents", "section", "generator-lines")
_Z_LIMIT = 1e150  # largest --z-range magnitude: z*z and HI - LO stay finite


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
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("green", help="test a Green relation between two matrices")
    p.add_argument("--rel", required=True, choices=_RELS)
    p.add_argument("a", metavar="MAT_A")
    p.add_argument("b", metavar="MAT_B")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("inverses", help="bilinear chart of the inverses of a rank-1 matrix")
    p.add_argument("--a", required=True, metavar="MAT")
    p.add_argument("--grid", type=_count, default=3, metavar="K")
    p.add_argument("--json", action="store_true")
    p.add_argument("--float", dest="as_float", action="store_true")

    p = sub.add_parser("order", help="natural/minus order verdicts, or a section report")
    p.add_argument("mats", nargs="*", metavar="MAT")
    p.add_argument("--report", action="store_true", help="sample the order/section agreement below MAT")
    p.add_argument("--trials", type=_count, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("lines", help="generating lines of the idempotent surface through e")
    p.add_argument("--e", required=True, metavar="MAT")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("plane", help="is span{b1,b2} minus 0 an L- or R-class?")
    p.add_argument("b1", metavar="MAT_B1")
    p.add_argument("b2", metavar="MAT_B2")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bell", help="convert between ambient and frame coordinates")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RAT")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--point", metavar="MAT")
    g.add_argument("--from", dest="coords", metavar="X,Y,Z")
    p.add_argument("--json", action="store_true")
    p.add_argument("--float", dest="as_float", action="store_true")

    p = sub.add_parser("metrics", help="center/axis/radius of the trace-level slices")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RAT")
    p.add_argument("--json", action="store_true")
    p.add_argument("--float", dest="as_float", action="store_true")

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
    p.add_argument("--json", action="store_true")

    return parser


# --- rendering helpers -----------------------------------------------------


def _fmt_scalar(x, as_float: bool) -> str:
    from greenquadrics.exact import QuadExt, format_quadext, format_rational, to_float

    if as_float:
        return repr(to_float(x))
    if isinstance(x, QuadExt):
        return format_quadext(x)
    return format_rational(x)


def _fmt_mat(m, as_float: bool) -> str:
    from greenquadrics.exact import to_float
    from greenquadrics.mat2 import format_mat2

    if not as_float:
        return format_mat2(m)
    return "[" + ",".join(repr(to_float(v)) for v in m.entries) + "]"


def _emit(text: str, payload, use_json: bool) -> str:
    if use_json:
        import json

        return json.dumps(payload, indent=2)
    return text


# --- command implementations ------------------------------------------------


def _run_classify(ns) -> str:
    from greenquadrics.exact import format_rational, parse_rational
    from greenquadrics.mat2 import format_mat2, parse_mat2
    from greenquadrics.sections import classify_section

    a = parse_mat2(ns.a)
    lam = parse_rational(ns.lam)
    verdict = classify_section(a, lam)
    lines = [verdict.kind.value]
    if verdict.l_rep is not None:
        lines.append(f"  L-class rep: {format_mat2(verdict.l_rep)}")
        lines.append(f"  R-class rep: {format_mat2(verdict.r_rep)}")
    payload = {
        "command": "classify",
        "a": format_mat2(a),
        "lambda": format_rational(lam),
        "kind": verdict.kind.value,
        "l_rep": format_mat2(verdict.l_rep) if verdict.l_rep else None,
        "r_rep": format_mat2(verdict.r_rep) if verdict.r_rep else None,
    }
    return _emit("\n".join(lines), payload, ns.json)


def _run_green(ns) -> str:
    from greenquadrics.green import green_eq
    from greenquadrics.mat2 import format_mat2, parse_mat2

    a = parse_mat2(ns.a)
    b = parse_mat2(ns.b)
    related = green_eq(ns.rel, a, b)
    payload = {
        "command": "green",
        "rel": ns.rel,
        "a": format_mat2(a),
        "b": format_mat2(b),
        "related": related,
    }
    return _emit("true" if related else "false", payload, ns.json)


def _grid_params(k: int):
    from greenquadrics.exact import Rational

    # 0, 1, -1, 2, -2, ... first k values
    vals = [0]
    step = 1
    while len(vals) < k:
        vals.append(step)
        if len(vals) < k:
            vals.append(-step)
        step += 1
    return [Rational(v) for v in vals[:k]]


def _run_inverses(ns) -> str:
    from greenquadrics.exact import format_rational
    from greenquadrics.mat2 import format_mat2, parse_mat2
    from greenquadrics.semigroup import chart_eval, inverse_chart

    k = ns.grid
    a = parse_mat2(ns.a)
    as_float = ns.as_float
    chart = inverse_chart(a)
    params = _grid_params(k)
    fmt2 = lambda vec: f"({_fmt_scalar(vec[0], as_float)}, {_fmt_scalar(vec[1], as_float)})"
    lines = [
        f"inverses of {format_mat2(a)}: x(s,t) = (d0 + s d1)(q0 + t q1)^T",
        f"  d0 = {fmt2(chart.d0)}  d1 = {fmt2(chart.d1)}",
        f"  q0 = {fmt2(chart.q0)}  q1 = {fmt2(chart.q1)}",
        f"  {k}x{k} grid:",
    ]
    grid_json = []
    for s in params:
        for t in params:
            x = chart_eval(chart, s, t)
            lines.append(
                f"    s={format_rational(s)} t={format_rational(t)}: {_fmt_mat(x, as_float)}"
            )
            grid_json.append(
                {"s": format_rational(s), "t": format_rational(t), "x": format_mat2(x)}
            )
    payload = {
        "command": "inverses",
        "a": format_mat2(a),
        "chart": {
            "d0": [format_rational(v) for v in chart.d0],
            "d1": [format_rational(v) for v in chart.d1],
            "q0": [format_rational(v) for v in chart.q0],
            "q1": [format_rational(v) for v in chart.q1],
        },
        "grid": grid_json,
    }
    return _emit("\n".join(lines), payload, ns.json)


def _run_order(ns) -> str:
    from greenquadrics.mat2 import format_mat2, parse_mat2
    from greenquadrics.semigroup import minus_le, natural_le, order_section_report

    if ns.report:
        if len(ns.mats) != 1:
            raise _UsageError("order --report takes exactly one matrix")
        a = parse_mat2(ns.mats[0])
        report = order_section_report(a, ns.trials, ns.seed)
        payload = {"command": "order-report", **report.to_dict()}
        return _emit(report.to_text(), payload, ns.json)
    if len(ns.mats) != 2:
        raise _UsageError("order takes two matrices: X Y")
    x = parse_mat2(ns.mats[0])
    y = parse_mat2(ns.mats[1])
    nat = natural_le(x, y)
    mns = minus_le(x, y)
    text = f"natural_le: {str(nat).lower()}\nminus_le:   {str(mns).lower()}"
    payload = {
        "command": "order",
        "x": format_mat2(x),
        "y": format_mat2(y),
        "natural_le": nat,
        "minus_le": mns,
    }
    return _emit(text, payload, ns.json)


def _run_lines(ns) -> str:
    from greenquadrics.mat2 import format_mat2, parse_mat2
    from greenquadrics.semigroup import generator_line

    e = parse_mat2(ns.e)
    out = []
    payload_lines = []
    for family in ("L1", "L2"):
        g = generator_line(family, e)
        out.append(
            f"{family}: base {format_mat2(g.base)} + t * {format_mat2(g.direction)}"
        )
        payload_lines.append(
            {
                "family": family,
                "base": format_mat2(g.base),
                "direction": format_mat2(g.direction),
            }
        )
    payload = {"command": "lines", "e": format_mat2(e), "lines": payload_lines}
    return _emit("\n".join(out), payload, ns.json)


def _run_plane(ns) -> str:
    from greenquadrics.green import classify_plane
    from greenquadrics.mat2 import format_mat2, parse_mat2

    b1 = parse_mat2(ns.b1)
    b2 = parse_mat2(ns.b2)
    verdict = classify_plane(b1, b2)
    if verdict.kind == "not_contained":
        text = "not contained in the singular variety"
    else:
        text = f"{verdict.kind}-class plane; representative {format_mat2(verdict.rep)}"
    payload = {
        "command": "plane",
        "b1": format_mat2(b1),
        "b2": format_mat2(b2),
        "kind": verdict.kind,
        "rep": format_mat2(verdict.rep) if verdict.rep else None,
    }
    return _emit(text, payload, ns.json)


def _run_bell(ns) -> str:
    from greenquadrics.exact import format_quadext, format_rational, parse_quadext, parse_rational
    from greenquadrics.mat2 import format_mat2, parse_mat2
    from greenquadrics.sections import BellPoint, from_bell, to_bell

    lam = parse_rational(ns.lam)
    as_float = ns.as_float
    if ns.point is not None:
        x = parse_mat2(ns.point)
        p = to_bell(x, lam)
        text = "\n".join(
            f"{axis} = {_fmt_scalar(val, as_float)}"
            for axis, val in (("X", p.X), ("Y", p.Y), ("Z", p.Z))
        )
        payload = {
            "command": "bell",
            "lambda": format_rational(lam),
            "point": format_mat2(x),
            "X": format_quadext(p.X),
            "Y": format_quadext(p.Y),
            "Z": format_quadext(p.Z),
        }
        return _emit(text, payload, ns.json)
    coords = [parse_quadext(part) for part in ns.coords.split(",")]
    if len(coords) != 3:
        raise _UsageError("--from needs three comma-separated coordinates")
    q = from_bell(BellPoint(coords[0], coords[1], coords[2], lam))
    names = ("x1", "x2", "x3", "x4")
    text = "\n".join(f"{n} = {_fmt_scalar(v, as_float)}" for n, v in zip(names, q))
    payload = {
        "command": "bell",
        "lambda": format_rational(lam),
        "from": ",".join(format_quadext(c).replace(" ", "") for c in coords),
        **{n: format_quadext(v) for n, v in zip(names, q)},
    }
    return _emit(text, payload, ns.json)


def _run_metrics(ns) -> str:
    from greenquadrics.exact import format_rational, parse_rational
    from greenquadrics.mat2 import format_mat2
    from greenquadrics.sections import hyperboloid_metrics

    lam = parse_rational(ns.lam)
    as_float = ns.as_float
    m = hyperboloid_metrics(lam)
    text = "\n".join(
        [
            f"center:     {_fmt_mat(m.center, as_float)}",
            f"axis dir:   {_fmt_mat(m.axis_dir, as_float)}",
            f"radius^2:   {_fmt_scalar(m.radius_sq, as_float)}",
            "asymptotic form (frame): "
            + " ".join(
                "[" + ",".join(format_rational(v) for v in row) + "]"
                for row in m.asymptotic_form
            ),
        ]
    )
    payload = {
        "command": "metrics",
        "lambda": format_rational(lam),
        "center": format_mat2(m.center),
        "axis_dir": format_mat2(m.axis_dir),
        "radius_sq": format_rational(m.radius_sq),
        "asymptotic_form": [[format_rational(v) for v in row] for row in m.asymptotic_form],
    }
    return _emit(text, payload, ns.json)


def _run_export(ns) -> str:
    from greenquadrics.exact import parse_rational
    from greenquadrics.mat2 import parse_mat2
    from greenquadrics.surfaces import sample_surface, write_csv, write_obj

    if os.path.isdir(ns.out) or ns.out.endswith(("/", os.sep)):
        raise _UsageError(f"cannot write {ns.out}: it names a directory")
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
        if not all(math.isfinite(v) and abs(v) <= _Z_LIMIT for v in (lo_f, hi_f)):
            raise _UsageError("--z-range bounds must be finite and at most 1e150 in magnitude")
        if not lo_f < hi_f:
            raise _UsageError("--z-range needs LO < HI")
        kwargs["z_span"] = (lo_f, hi_f)
    sample = sample_surface(ns.kind, ns.samples, ns.seed, **kwargs)
    write = write_csv if ns.fmt == "csv" else write_obj
    try:
        points, segments = write(sample, ns.out)
    except OSError as exc:
        raise _UsageError(f"cannot write {ns.out}: {exc.strerror or exc}") from None
    return f"wrote {points} points" + (f", {segments} segments" if segments else "") + f" to {ns.out}"


def _run_check(ns) -> tuple[str, bool]:
    import json

    from greenquadrics import checks

    results = checks.run_checks(suites=ns.suite, seed=ns.seed, trials=ns.trials)
    ok = all(r.ok for r in results)
    if ns.json:
        payload = {
            "command": "check",
            "seed": ns.seed,
            "results": [r._asdict() for r in results],
            "passed": sum(1 for r in results if r.ok),
            "total": len(results),
        }
        return json.dumps(payload, indent=2), ok
    return checks.render_results(results), ok


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
}


def run(argv) -> tuple[int, str]:
    """Execute argv; returns (exit_code, output text)."""
    try:
        ns = _build_parser().parse_args(argv)
        if ns.command == "check":
            text, ok = _run_check(ns)
            return (0 if ok else 2), text
        return 0, _RUNNERS[ns.command](ns)
    except _UsageError as exc:
        return 1, f"usage error: {exc}"
    except LiteralParseError as exc:
        return 1, f"parse error: {exc}"
    except RenderLimitError as exc:
        return 1, f"usage error: {exc}"
    except DomainError as exc:
        return 2, f"domain error: {exc}"


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code == 0 else sys.stderr
    print(text, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
