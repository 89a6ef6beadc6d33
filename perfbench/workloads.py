"""The benchmark's workloads.

Each workload makes its inputs from the seed alone and hands the program
only those inputs.  A workload is a closed loop with one client: the
worker runs the units of one `cycle()` in order, timing each `run(unit)`,
and checks each output with `verify(unit, output)` outside the timed
interval.  `in_process` says whether the unit's work runs in the worker
itself, which decides the machine-speed reference (speed.py) its times are
rescaled by.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from verify import Tally, verify_check, verify_cli, verify_export_file

HERE = os.path.dirname(os.path.abspath(__file__))

# --- exact literals made by the benchmark itself -----------------------------


def fmt_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_mat(m) -> str:
    return f"[{fmt_rat(m[0])},{fmt_rat(m[1])};{fmt_rat(m[2])},{fmt_rat(m[3])}]"


def mat_mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def det(m) -> Fraction:
    return m[0] * m[3] - m[1] * m[2]


def outer(c, r):
    return (c[0] * r[0], c[0] * r[1], c[1] * r[0], c[1] * r[1])


def small_rat(rng, span=9, max_den=9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def nonzero_rat(rng, span=9, max_den=9) -> Fraction:
    return Fraction(rng.randint(1, span) * rng.choice((1, -1)), rng.randint(1, max_den))


def small_mat(rng):
    return tuple(small_rat(rng) for _ in range(4))


def small_invertible(rng):
    while True:
        m = small_mat(rng)
        if det(m):
            return m


def int_vector(rng, span=5):
    while True:
        v = (rng.randint(-span, span), rng.randint(-span, span))
        if v != (0, 0):
            return v


def small_rank1(rng):
    s = nonzero_rat(rng, 5, 5)
    return tuple(v * s for v in outer(int_vector(rng), int_vector(rng)))


def small_idempotent(rng):
    while True:
        u, v = int_vector(rng), int_vector(rng)
        pairing = u[0] * v[0] + u[1] * v[1]
        if pairing:
            return tuple(Fraction(x, pairing) for x in outer(u, v))


# --- check -------------------------------------------------------------------


class CheckWorkload:
    """`gq check --seed S` in-process, with the default suites and trials."""

    in_process = True

    def __init__(self, seed: int, workdir: str, traced: bool):
        from greenquadrics import checks, cli

        self._cli = cli
        self.argv = ["check", "--seed", str(seed)]
        self.expected_checks = sum(len(fns) for fns in checks.SUITES.values())
        self.first_text = None

    def input_size(self) -> dict:
        return {"argv": self.argv, "checks": self.expected_checks}

    def cycle(self):
        return [self.argv]

    def run(self, argv):
        return self._cli.run(argv)

    def verify(self, argv, output) -> Tally:
        code, text = output
        tally = verify_check(code, text, self.expected_checks)
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            tally.add(1, 1, "check output differs between runs of the same seed")
        return tally


# --- cli ---------------------------------------------------------------------


def cli_commands(seed: int, workdir: str, per_command: int = 12) -> list[list[str]]:
    """`per_command` invocations of each of the nine non-check subcommands,
    with literals drawn from the seed, in a seeded order."""
    rng = random.Random(f"cli:{seed}")
    out = os.path.join(workdir, "cli-export")

    def maybe(*flags):
        choice = rng.choice((None,) + flags)
        return [choice] if choice else []

    makers = {
        "classify": lambda i: ["classify", f"--a={fmt_mat(small_mat(rng) if i % 2 else small_rank1(rng))}",
                               f"--lambda={fmt_rat(small_rat(rng) if i % 3 else Fraction(0))}", *maybe("--json")],
        "green": lambda i: ["green", f"--rel={'LRHDJ'[i % 5]}", fmt_mat(small_rank1(rng)),
                            fmt_mat(small_rank1(rng) if i % 2 else small_mat(rng)), *maybe("--json")],
        "inverses": lambda i: ["inverses", f"--a={fmt_mat(small_rank1(rng))}", f"--grid={1 + i % 4}",
                               *maybe("--json", "--float")],
        "order": lambda i: (
            ["order", "--report", fmt_mat(small_invertible(rng)), "--trials=40", f"--seed={i}", *maybe("--json")]
            if i % 2
            else ["order", fmt_mat(small_rank1(rng)), fmt_mat(small_mat(rng)), *maybe("--json")]
        ),
        "lines": lambda i: ["lines", f"--e={fmt_mat(small_idempotent(rng))}", *maybe("--json")],
        "plane": lambda i: _plane_command(rng, i) + maybe("--json"),
        "bell": lambda i: _bell_command(rng, i) + maybe("--json", "--float"),
        "metrics": lambda i: ["metrics", f"--lambda={fmt_rat(small_rat(rng))}", *maybe("--json", "--float")],
        "export": lambda i: _export_command(rng, i, out),
    }
    commands = [make(i) for make in makers.values() for i in range(per_command)]
    rng.shuffle(commands)
    return commands


def _plane_command(rng, i):
    while True:
        r = int_vector(rng)
        b1 = outer(int_vector(rng), r)
        b2 = outer(int_vector(rng), r) if i % 2 else small_rank1(rng)  # odd: an L-class plane
        if any(b1[p] * b2[q] != b1[q] * b2[p] for p in range(4) for q in range(p + 1, 4)):
            return ["plane", fmt_mat(b1), fmt_mat(b2)]


def _bell_command(rng, i):
    if i % 2:
        x = small_mat(rng)
        return ["bell", f"--lambda={fmt_rat(x[0] + x[3])}", f"--point={fmt_mat(x)}"]
    coords = []
    for _ in range(3):
        p, q = small_rat(rng), small_rat(rng)
        coords.append(f"{fmt_rat(p)}+{fmt_rat(q)}*sqrt2".replace("+-", "-"))
    return ["bell", f"--lambda={fmt_rat(small_rat(rng))}", f"--from={','.join(coords)}"]


def _export_command(rng, i, out):
    kind = ("idempotents", "nilpotents", "section", "generator-lines")[i % 4]
    fmt = ("csv", "obj")[(i // 4) % 2]
    argv = ["export", f"--kind={kind}", "--samples=200", f"--seed={rng.randint(0, 999)}",
            f"--format={fmt}", f"--out={out}-{i}.{fmt}"]
    if kind == "section":
        argv += [f"--a={fmt_mat(small_invertible(rng))}", f"--lambda={fmt_rat(nonzero_rat(rng))}"]
    elif kind == "generator-lines":
        argv += [f"--e={fmt_mat(small_idempotent(rng))}"]
    return argv


class CliWorkload:
    """One-shot `python -m greenquadrics <cmd>` processes, one at a time.

    Traced, each process runs under `gq_traced.py` and leaves a summary of
    its spans, collected by `verify`.
    """

    in_process = False

    def __init__(self, seed: int, workdir: str, traced: bool):
        from greenquadrics import cli

        self.workdir = workdir
        self.traced = traced
        self.commands = cli_commands(seed, workdir)
        # what each command must print, from in-process runs before timing
        self.expected = {tuple(argv): cli.run(argv) for argv in self.commands}
        self.summaries: list[dict] = []
        self.bytes_written = 0

    def input_size(self) -> dict:
        return {"commands_per_cycle": len(self.commands)}

    def cycle(self):
        return self.commands

    def run(self, argv):
        if self.traced:
            summary = os.path.join(self.workdir, "traced-summary.json")
            cmd = [sys.executable, os.path.join(HERE, "gq_traced.py"), summary, *argv]
        else:
            cmd = [sys.executable, "-m", "greenquadrics", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def verify(self, argv, output) -> Tally:
        if self.traced:
            path = os.path.join(self.workdir, "traced-summary.json")
            with open(path) as fh:
                self.summaries.append(json.load(fh))
            os.unlink(path)
        code, stdout = output
        if argv[0] == "export":
            path = next(a.partition("=")[2] for a in argv if a.startswith("--out="))
            self.bytes_written += os.path.getsize(path)
            os.unlink(path)
        return verify_cli(code, stdout, *self.expected[tuple(argv)])


# --- export ------------------------------------------------------------------

EXPORT_SAMPLES = 50_000
EXPORT_KINDS = ("idempotents", "nilpotents", "section", "generator-lines")


class ExportWorkload:
    """`gq export` of every surface kind in CSV and OBJ, in-process."""

    in_process = True

    def __init__(self, seed: int, workdir: str, traced: bool):
        from greenquadrics import cli

        self._cli = cli
        rng = random.Random(f"export:{seed}")
        self.seed = seed
        self.a = small_invertible(rng)
        self.lam = nonzero_rat(rng)
        self.e = small_idempotent(rng)
        self.workdir = workdir
        self.bytes_written = 0
        self.units = [(kind, fmt) for kind in EXPORT_KINDS for fmt in ("csv", "obj")]

    def input_size(self) -> dict:
        return {"samples_per_export": EXPORT_SAMPLES, "exports_per_cycle": len(self.units)}

    def cycle(self):
        return self.units

    def argv(self, unit):
        kind, fmt = unit
        argv = ["export", f"--kind={kind}", f"--samples={EXPORT_SAMPLES}", f"--seed={self.seed}",
                f"--format={fmt}", f"--out={self.path(unit)}"]
        if kind == "section":
            argv += [f"--a={fmt_mat(self.a)}", f"--lambda={fmt_rat(self.lam)}"]
        elif kind == "generator-lines":
            argv += [f"--e={fmt_mat(self.e)}"]
        return argv

    def path(self, unit):
        kind, fmt = unit
        return os.path.join(self.workdir, f"export-{kind}.{fmt}")

    def run(self, unit):
        return self._cli.run(self.argv(unit))

    def verify(self, unit, output) -> Tally:
        kind, fmt = unit
        code, text = output
        path = self.path(unit)
        if code != 0 or not text.startswith(f"wrote {EXPORT_SAMPLES} points"):
            return Tally(EXPORT_SAMPLES, EXPORT_SAMPLES, [f"export {unit} exited {code}: {text[:80]!r}"])
        lam = {"idempotents": 1.0, "nilpotents": 0.0, "section": float(self.lam), "generator-lines": 1.0}[kind]
        a = [float(v) for v in self.a] if kind == "section" else None
        tally = verify_export_file(path, fmt, EXPORT_SAMPLES, kind, lam, a)
        self.bytes_written += os.path.getsize(path)
        os.unlink(path)
        return tally


# --- wide --------------------------------------------------------------------

WIDE_BITS = 256
WIDE_SETS = 24
WIDE_CALLS = (
    "matmul", "det", "inverse_mat", "natural_le_below", "natural_le_other", "minus_le_below",
    "minus_le_other", "classify_section", "generic_classifier", "inverse_chart_eval", "to_bell",
)
# theorem table class -> generic classifier class, by enum member name
_SECTION_TO_QUADRIC = {
    "HYPERBOLOID_ONE_SHEET": "HYPERBOLOID_ONE_SHEET",
    "CONE": "CONE",
    "HYPERBOLIC_PARABOLOID": "HYPERBOLIC_PARABOLOID",
    "TWO_PUNCTURED_PLANES": "INTERSECTING_PLANES",
}
# stratum k % 4 -> (rank of a, level is zero, expected section class)
_STRATA = (
    (2, False, "HYPERBOLOID_ONE_SHEET"),
    (2, True, "CONE"),
    (1, False, "HYPERBOLIC_PARABOLOID"),
    (1, True, "TWO_PUNCTURED_PLANES"),
)


def wide_rat(rng, bits=WIDE_BITS) -> Fraction:
    num = rng.getrandbits(bits) | (1 << (bits - 1))
    den = rng.getrandbits(bits) | (1 << (bits - 1))
    return Fraction(num if rng.random() < 0.5 else -num, den)


def wide_inputs(seed: int) -> list[dict]:
    """Literals for WIDE_SETS input sets; entries near WIDE_BITS bits."""
    rng = random.Random(f"wide:{seed}")
    half = WIDE_BITS // 2
    sets = []
    for k in range(WIDE_SETS):
        a = b = (Fraction(0),) * 4
        while not det(a):
            a = tuple(wide_rat(rng) for _ in range(4))
        while not det(b):
            b = tuple(wide_rat(rng) for _ in range(4))
        r1 = outer((wide_rat(rng, half), wide_rat(rng, half)), (wide_rat(rng, half), wide_rat(rng, half)))
        while True:
            u = (wide_rat(rng, half), wide_rat(rng, half))
            v = (wide_rat(rng, half), wide_rat(rng, half))
            pairing = u[0] * v[0] + u[1] * v[1]
            if pairing:
                break
        e = tuple(x / pairing for x in outer(u, v))
        rank, zero_level, kind = _STRATA[k % 4]
        sets.append(
            {
                "a": fmt_mat(a),
                "b": fmt_mat(b),
                "below": fmt_mat(mat_mul(e, a)),  # e a lies below a in the natural order
                "other": fmt_mat(r1),
                "c": fmt_mat(a if rank == 2 else r1),
                "lam": "0" if zero_level else fmt_rat(wide_rat(rng)),
                "trace_a": fmt_rat(a[0] + a[3]),
                "s": fmt_rat(wide_rat(rng)),
                "t": fmt_rat(wide_rat(rng)),
                "ab": mat_mul(a, b),
                "det_a": det(a),
                "class": kind,
            }
        )
    return sets


class WideWorkload:
    """Public library calls on wide exact inputs, parsed before timing.

    A unit is every call on one input set of each stratum, so that all
    units do the same mix of work and their latency percentiles do not sit
    between two kinds of call.
    """

    in_process = True

    def __init__(self, seed: int, workdir: str, traced: bool):
        from greenquadrics import mat2, sections, semigroup
        from greenquadrics.exact import parse_rational

        self.sets = wide_inputs(seed)
        self.refs: dict[tuple, tuple] = {}
        self.calls = []  # (set index, call name, thunk, arguments)
        for k, lit in enumerate(self.sets):
            a, b = mat2.parse_mat2(lit["a"]), mat2.parse_mat2(lit["b"])
            below, other = mat2.parse_mat2(lit["below"]), mat2.parse_mat2(lit["other"])
            c = mat2.parse_mat2(lit["c"])
            lam, tr_a = parse_rational(lit["lam"]), parse_rational(lit["trace_a"])
            s, t = parse_rational(lit["s"]), parse_rational(lit["t"])
            calls = {
                "matmul": lambda a=a, b=b: a @ b,
                "det": lambda a=a: a.det(),
                "inverse_mat": lambda a=a: mat2.inverse_mat(a),
                "natural_le_below": lambda x=below, a=a: semigroup.natural_le(x, a),
                "natural_le_other": lambda x=other, a=a: semigroup.natural_le(x, a),
                "minus_le_below": lambda x=below, a=a: semigroup.minus_le(x, a),
                "minus_le_other": lambda x=other, a=a: semigroup.minus_le(x, a),
                "classify_section": lambda c=c, lam=lam: sections.classify_section(c, lam),
                "generic_classifier": lambda c=c, lam=lam: sections.classify_affine_quadric(
                    sections.restrict_quadric(sections.Hyperplane(c, lam))
                ),
                "inverse_chart_eval": lambda x=other, s=s, t=t: semigroup.chart_eval(
                    semigroup.inverse_chart(x), s, t
                ),
                "to_bell": lambda a=a, lam=tr_a: sections.to_bell(a, lam),
            }
            self.calls += [(k, name, calls[name], (a, below, other, c, lam)) for name in WIDE_CALLS]
        per_unit = len(_STRATA) * len(WIDE_CALLS)
        self.units = [self.calls[i:i + per_unit] for i in range(0, len(self.calls), per_unit)]

    def input_size(self) -> dict:
        return {"bits": WIDE_BITS, "input_sets": WIDE_SETS, "calls_per_cycle": len(self.calls),
                "calls_per_unit": len(self.units[0])}

    def cycle(self):
        return self.units

    def run(self, unit):
        return [call[2]() for call in unit]

    def verify(self, unit, outputs) -> Tally:
        tally = Tally()
        for call, output in zip(unit, outputs):
            tally.extend(self.verify_call(call, output))
        return tally

    def verify_call(self, call, output) -> Tally:
        k, name = call[0], call[1]
        ref = self.refs.get((k, name))
        if ref is None:
            ref = self.refs[(k, name)] = (output, self.oracle(call, output))
        value, reason = ref
        if reason is not None:
            return Tally(1, 1, [f"wide set {k} {name}: {reason}"])
        if output != value:
            return Tally(1, 1, [f"wide set {k} {name}: result differs between repeats"])
        return Tally(1, 0)

    def oracle(self, call, out) -> str | None:
        """Why `out` is wrong, by an independent check, or None."""
        from greenquadrics import mat2, sections, semigroup

        k, name, _, (a, below, other, c, lam) = call
        lit = self.sets[k]
        if name == "matmul":
            return None if out.entries == lit["ab"] else "a @ b differs from the benchmark's own product"
        if name == "det":
            return None if out == lit["det_a"] else "det differs from the benchmark's own determinant"
        if name == "inverse_mat":
            return None if a @ out == mat2.IDENTITY else "a @ inverse_mat(a) != I"
        if name.startswith(("natural_le", "minus_le")):
            x = below if name.endswith("below") else other
            twin = semigroup.minus_le if name.startswith("natural") else semigroup.natural_le
            if out != twin(x, a):
                return "natural_le and minus_le disagree"
            if name.endswith("below") and out is not True:
                return "e a is not below a"
            return None
        if name == "inverse_chart_eval":
            return None if semigroup.is_inverse_pair(other, out) else "chart point is not an inverse"
        if name == "to_bell":
            return None if sections.from_bell(out).to_mat2() == a else "frame coordinates do not map back"
        table = sections.classify_section(c, lam).kind.name
        generic = sections.classify_affine_quadric(sections.restrict_quadric(sections.Hyperplane(c, lam)))
        if table != lit["class"]:
            return f"classified {table}, expected {lit['class']}"
        if _SECTION_TO_QUADRIC[table] != generic.name:
            return "classify_section disagrees with the generic classifier"
        if name == "classify_section" and out.kind.name != table:
            return "classify_section result differs from a fresh call"
        if name == "generic_classifier" and out != generic:
            return "generic classifier result differs from a fresh call"
        return None


WORKLOADS = {
    "check": CheckWorkload,
    "cli": CliWorkload,
    "export": ExportWorkload,
    "wide": WideWorkload,
}
