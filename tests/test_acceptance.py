"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All algebraic checks are exact (== on rationals, no tolerances); the only
approximate bounds are the documented float-export guarantees.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import pathlib
import subprocess
import sys


from greenquadrics.errors import DegeneratePairingError, DependentBasisError
from greenquadrics.exact import QuadExt, Rational
from greenquadrics.green import (
    ProjLine,
    class_plane,
    classify_plane,
    colspace,
    green_eq,
    rowspace,
)
from greenquadrics.mat2 import IDENTITY, Mat2, ZERO, inner, outer
from greenquadrics.quadrics import QuadricClass
from greenquadrics.sampling import (
    grid_matrices,
    grid_values,
    rand_idempotent_rank1,
    rand_invertible,
    rand_nilpotent,
    rand_nonzero_rational,
    rand_rank1,
    rand_rational,
    rng_for,
)
from greenquadrics.sections import (
    Hyperplane,
    SectionClass,
    bell_residual,
    classify_affine_quadric,
    classify_section,
    restrict_quadric,
    to_bell,
)
from greenquadrics.semigroup import (
    chart_eval,
    generator_line,
    idempotent_from_spaces,
    inverse_chart,
    is_idempotent,
    is_inverse_pair,
    is_nilpotent,
    line_meet,
    minus_le,
    natural_le,
    order_section_report,
)
from greenquadrics.surfaces import read_csv_points

R = Rational
HALF = R(1, 2)
E = Mat2(1, 0, 0, 0)
SEED = 2024
BELL_LEVELS = (R(0), R(1), R(-1), R(3, 2), R(-3, 2), R(7, 2))


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def rand_singular_with_trace(rng, lam):
    """Nonzero singular matrix with the given trace, exactly."""
    if lam == 0:
        return rand_nilpotent(rng)
    while True:
        c = (rng.randint(-5, 5), rng.randint(-5, 5))
        r = (rng.randint(-5, 5), rng.randint(-5, 5))
        pairing = r[0] * c[0] + r[1] * c[1]
        if pairing:
            return outer(c, r) * (lam / pairing)


def test_criterion_1_bell_identity():
    bad = 0
    per_level = 1000
    for li, lam in enumerate(BELL_LEVELS):
        for i in range(per_level):
            rng = rng_for(SEED, li * per_level + i)
            x = rand_singular_with_trace(rng, lam)
            if bell_residual(x) != 0:
                bad += 1
                continue
            p = to_bell(x, lam)
            if p.X * p.X + p.Y * p.Y - p.Z * p.Z != QuadExt(lam * lam * HALF):
                bad += 1
    nonzero_ok = 0
    for i in range(1000):
        rng = rng_for(SEED + 1, i)
        y = rand_invertible(rng)
        if bell_residual(y) != 0:
            nonzero_ok += 1
    ok = bad == 0 and nonzero_ok == 1000
    report(
        1,
        ok,
        f"frame identity X^2+Y^2-Z^2 = lam^2/2 exact on {per_level} singular matrices "
        f"per level across {len(BELL_LEVELS)} levels; nonzero residual on 1000/1000 "
        f"nonsingular matrices",
    )


_EXPECTED_TABLE = {
    (0, True): SectionClass.FULL_VARIETY,
    (0, False): SectionClass.EMPTY,
    (1, True): SectionClass.TWO_PUNCTURED_PLANES,
    (1, False): SectionClass.HYPERBOLIC_PARABOLOID,
    (2, True): SectionClass.CONE,
    (2, False): SectionClass.HYPERBOLOID_ONE_SHEET,
}

_SECTION_TO_QUADRIC = {
    SectionClass.HYPERBOLOID_ONE_SHEET: QuadricClass.HYPERBOLOID_ONE_SHEET,
    SectionClass.CONE: QuadricClass.CONE,
    SectionClass.HYPERBOLIC_PARABOLOID: QuadricClass.HYPERBOLIC_PARABOLOID,
    SectionClass.TWO_PUNCTURED_PLANES: QuadricClass.INTERSECTING_PLANES,
}


def test_criterion_2_section_classification_table():
    trials = 1200
    table_bad = generic_bad = 0
    for i in range(trials):
        rng = rng_for(SEED + 2, i)
        rank = i % 3
        zero_level = (i // 3) % 2 == 0
        lam = R(0) if zero_level else rand_nonzero_rational(rng, 4, 3)
        if rank == 0:
            a = ZERO
        elif rank == 1:
            a = rand_rank1(rng)
        else:
            a = rand_invertible(rng)
        verdict = classify_section(a, lam)
        if verdict.kind != _EXPECTED_TABLE[(rank, lam == 0)]:
            table_bad += 1
            continue
        if rank > 0:
            generic = classify_affine_quadric(restrict_quadric(Hyperplane(a, lam)))
            if generic != _SECTION_TO_QUADRIC[verdict.kind]:
                generic_bad += 1
    ok = table_bad == 0 and generic_bad == 0
    report(
        2,
        ok,
        f"{trials} stratified (a, lam): table verdicts all correct, inertia-based "
        f"classifier agreement 100% on the rank>0 cases",
    )


def test_criterion_3_inverse_set_theorem():
    bad = 0
    for i in range(500):
        rng = rng_for(SEED + 3, i)
        a = rand_rank1(rng)
        chart = inverse_chart(a)
        for _ in range(20):
            s, t = rand_rational(rng, 6, 4), rand_rational(rng, 6, 4)
            x = chart_eval(chart, s, t)
            if (a @ x @ a) != a or (x @ a @ x) != x:
                bad += 1
    grid_bad = 0
    grid = list(grid_matrices(grid_values(span=2)))
    rep_as = [E] + [rand_rank1(rng_for(SEED + 4, i)) for i in range(10)]
    for a in rep_as:
        for x in grid:
            member = (a @ x).trace() == 1 and x.det() == 0
            if member != is_inverse_pair(a, x):
                grid_bad += 1
    ok = bad == 0 and grid_bad == 0
    report(
        3,
        ok,
        f"500 x 20 chart points satisfy axa=a, xax=x exactly; membership "
        f"tr(ax)=1, det(x)=0 equals the triple-product definition on the "
        f"{len(grid)}-point grid for {len(rep_as)} coefficient matrices",
    )


def _fifty_lines():
    dirs = [(0, 1)] + [(1, k) for k in range(-24, 25)]
    assert len(dirs) == 50
    return [ProjLine(R(p), R(q)) for p, q in dirs]


def test_criterion_4_idempotent_surface():
    lines = _fifty_lines()
    built = degenerate = surface_bad = circle_bad = 0
    for col in lines:
        for row in lines:
            try:
                x = idempotent_from_spaces(col, row)
            except DegeneratePairingError:
                degenerate += 1
                continue
            built += 1
            if not (x.trace() == 1 and x.det() == 0 and x @ x == x):
                surface_bad += 1
            if x.is_symmetric():
                d = x - IDENTITY * HALF
                if inner(d, d) != HALF:
                    circle_bad += 1
    combin_bad = 0
    for i in range(50):
        rng = rng_for(SEED + 5, i)
        e, f = rand_idempotent_rank1(rng), rand_idempotent_rank1(rng)
        if e == f:
            continue
        # same family: lines coincide or are disjoint, never a unique meet
        if line_meet(generator_line("L1", e), generator_line("L1", f)) is not None:
            combin_bad += 1
        if line_meet(generator_line("L2", e), generator_line("L2", f)) is not None:
            combin_bad += 1
        # opposite family: unique meet exactly when the pairing is regular
        got = line_meet(generator_line("L1", e), generator_line("L2", f))
        degenerate_pair = colspace(f).dot(rowspace(e)) == 0
        if degenerate_pair != (got is None):
            combin_bad += 1
        if got is not None and not (is_idempotent(got) and got.rank() == 1):
            combin_bad += 1
        # the exceptional partner of e is unique: its column space must be
        # the perp of e's row space
        exceptional_col = rowspace(e).perp()
        f0 = idempotent_from_spaces(exceptional_col, ProjLine(R(exceptional_col.direction[0]), R(exceptional_col.direction[1])))
        if line_meet(generator_line("L1", e), generator_line("L2", f0)) is not None:
            combin_bad += 1
        for k in range(5):
            g = rand_idempotent_rank1(rng_for(SEED + 6, i * 5 + k))
            if colspace(g) != exceptional_col:
                if line_meet(generator_line("L1", e), generator_line("L2", g)) is None:
                    combin_bad += 1
    ok = surface_bad == 0 and circle_bad == 0 and combin_bad == 0 and built > 0
    report(
        4,
        ok,
        f"{built} idempotents from the 50x50 space-pair grid all satisfy tr=1, det=0, "
        f"x^2=x ({degenerate} degenerate pairings raised); symmetric ones at squared "
        f"distance 1/2 from I/2; generating-line combinatorics clean on 50 pairs with "
        f"a unique exceptional partner per base",
    )


def test_criterion_5_nilpotent_cone():
    char_bad = ident_bad = nonzero_nilpotents = 0
    for x in grid_matrices(grid_values(span=2, dens=(1, 2))):
        if is_nilpotent(x) != (x.trace() == 0 and x.det() == 0):
            char_bad += 1
        if is_nilpotent(x) and not x.is_zero():
            nonzero_nilpotents += 1
            if (x.x2 - x.x3) ** 2 != x.norm_sq():
                ident_bad += 1
    for i in range(1000):
        x = rand_nilpotent(rng_for(SEED + 7, i))
        nonzero_nilpotents += 1
        if (x.x2 - x.x3) ** 2 != x.norm_sq():
            ident_bad += 1
    ok = char_bad == 0 and ident_bad == 0
    report(
        5,
        ok,
        f"x^2=0 iff tr=0 and det=0 on the exhaustive grid; 45-degree cone identity "
        f"(x2-x3)^2 = |x|^2 exact on {nonzero_nilpotents} nonzero nilpotents",
    )


def test_criterion_6_natural_order():
    grid = [Mat2(*combo) for combo in itertools.product((R(-1), R(0), R(1)), repeat=4)]
    grid_bad = sum(
        1 for x in grid for y in grid if natural_le(x, y) != minus_le(x, y)
    )
    rand_bad = 0
    for i in range(10000):
        rng = rng_for(SEED + 8, i)
        mode = i % 4
        if mode == 0:
            x, y = rand_rank1(rng), rand_invertible(rng)
        elif mode == 1:
            y = rand_invertible(rng)
            x = rand_idempotent_rank1(rng) @ y
        elif mode == 2:
            y = rand_rank1(rng)
            x = y * rand_rational(rng, 3, 2)
        else:
            from greenquadrics.sampling import rand_mat

            x, y = rand_mat(rng, 3, 2), rand_mat(rng, 3, 2)
        if natural_le(x, y) != minus_le(x, y):
            rand_bad += 1
    report_bad = 0
    literal_matches = 0
    for i in range(10):
        a = rand_invertible(rng_for(SEED + 9, i))
        rep = order_section_report(a, 200, seed=SEED + 10 + i)
        if rep.agree_le_vs_inv_section != 200 or rep.counterexamples:
            report_bad += 1
        if rep.agree_le_vs_section == 200:
            literal_matches += 1
    rep_i = order_section_report(IDENTITY, 200, seed=SEED)
    identity_ok = (
        rep_i.agree_le_vs_section == 200 and rep_i.agree_le_vs_inv_section == 200
    )
    ok = grid_bad == 0 and rand_bad == 0 and report_bad == 0 and identity_ok
    report(
        6,
        ok,
        f"natural order == minus order on {len(grid)}^2 grid pairs and 10000 random "
        f"pairs; below-a set equals SP(inv(a);1) on 10 reports x 200 trials with zero "
        f"counterexamples (literal SP(a;1) matched on {literal_matches}/10 generic a, "
        f"and exactly on a = I)",
    )


def test_criterion_7_punctured_plane_converse():
    class_bad = 0
    for i in range(500):
        rng = rng_for(SEED + 11, i)
        a = rand_rank1(rng)
        rel = "L" if i % 2 else "R"
        b1, b2 = class_plane(rel, a)
        while True:
            al, be, ga, de = (rand_rational(rng, 4, 3) for _ in range(4))
            if al * de - be * ga != 0:
                break
        verdict = classify_plane(b1 * al + b2 * be, b1 * ga + b2 * de)
        if verdict.kind != rel or not green_eq(rel, verdict.rep, a):
            class_bad += 1
    outside_bad = sampling_bad = 0
    outside_seen = 0
    i = 0
    while outside_seen < 500:
        rng = rng_for(SEED + 12, i)
        i += 1
        from greenquadrics.sampling import rand_mat

        b1, b2 = rand_mat(rng, 4, 3), rand_mat(rng, 4, 3)
        try:
            verdict = classify_plane(b1, b2)
        except DependentBasisError:
            continue
        contained = verdict.kind != "not_contained"
        if not contained:
            outside_seen += 1
            if verdict.kind != "not_contained":
                outside_bad += 1
        # polarization verdict vs 100-point sampling, both directions
        sampled_all_zero = True
        for _ in range(100):
            s, t = rand_nonzero_rational(rng, 6, 4), rand_nonzero_rational(rng, 6, 4)
            if (b1 * s + b2 * t).det() != 0:
                sampled_all_zero = False
                break
        if contained != sampled_all_zero:
            sampling_bad += 1
    ok = class_bad == 0 and outside_bad == 0 and sampling_bad == 0
    report(
        7,
        ok,
        f"500 rebased class planes classify back to their class and representative; "
        f"{outside_seen} non-contained spans all detected; polarization test agrees "
        f"with 100-point det sampling on every plane",
    )


GOLDEN = pathlib.Path(__file__).resolve().parent / "data"


def _cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "greenquadrics", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_criterion_8_cli_and_export(tmp_path):
    run1 = _cli(["check", "--seed", "42"])
    run2 = _cli(["check", "--seed", "42"])
    run_json = _cli(["check", "--seed", "42", "--json"])
    reproducible = (
        run1.returncode == 0
        and run2.returncode == 0
        and run1.stdout == run2.stdout
        and run1.stdout.count("[pass]") > 0
    )
    # the behaviour contract: output pinned byte for byte in tests/data
    golden = (
        run1.stdout == (GOLDEN / "check_seed42.txt").read_text(encoding="utf-8")
        and run_json.returncode == 0
        and run_json.stdout == (GOLDEN / "check_seed42.json").read_text(encoding="utf-8")
    )

    out = str(tmp_path / "idem.csv")
    export = _cli(
        ["export", "--kind", "idempotents", "--samples", "2000", "--seed", "42", "--out", out]
    )
    export_ok = export.returncode == 0
    det_ok = True
    pts = read_csv_points(out)
    if len(pts) != 2000:
        det_ok = False
    for pt in pts:
        det = pt[0] * pt[3] - pt[1] * pt[2]
        if abs(det) > 1e-12 * max(1.0, sum(v * v for v in pt)):
            det_ok = False
            break

    matrix = [
        (["classify", "--a", "[1,0;0,1]", "--lambda", "1"], 0),
        (["green", "--rel", "L", "[1,0;0,0]", "[2,0;3,0]"], 0),
        (["metrics", "--lambda=7/2"], 0),
        (["check", "--seed", "1", "--suite", "exact", "--trials", "30"], 0),
        (["classify", "--a", "[1,0;0,1]"], 1),
        (["classify", "--a", "[1,0;0]", "--lambda", "1"], 1),
        (["green", "--rel", "Q", "[1,0;0,0]", "[1,0;0,0]"], 1),
        (["bogus"], 1),
        (["inverses", "--a", "[1,0;0,1]"], 2),
        (["lines", "--e", "[1,1;0,1]"], 2),
        (["order", "--report", "[1,0;0,0]"], 2),
    ]
    codes_ok = True
    for args, want in matrix:
        got = _cli(args).returncode
        if got != want:
            codes_ok = False
            break

    ok = reproducible and golden and export_ok and det_ok and codes_ok
    report(
        8,
        ok,
        "check --seed 42 byte-identical across runs and to tests/data (text and --json); 2000 exported idempotent samples "
        "re-read with |det| <= 1e-12 * max(1, |x|^2); exit codes 0/1/2 conform on the "
        "scripted invocation matrix",
    )
