"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-7 call the property checks of `greenquadrics.checks`, the same
functions `gq check` runs, with this module's seeds and trial counts at
least as large as the criterion needs, and assert that each passed:

    1  check_bell_identity
    2  check_classifier_agreement (1200 stratified trials)
    3  check_inverse_set_theorem, check_membership_equals_triple_products
    4  check_generator_lines, check_line_combinatorics, check_symmetric_slice
    5  check_nilpotent_characterization, check_nilpotent_cone_identity
    6  check_natural_order_equivalence, check_order_section_reports
    7  check_plane_classification_roundtrip

The only sampling loops kept here are the assertions no check makes: the
frame identity X^2+Y^2-Z^2 = lam^2/2 (1), the 50x50 space-pair grid and the
exceptional partner of each base (4), the cone identity on the grid
nilpotents (5) and the polarization test against det sampling (7).
Criterion 8 runs the CLI.

All algebraic checks are exact (== on rationals, no tolerances); the only
approximate bounds are the documented float-export guarantees.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines,
each followed by the lines of the checks it ran.
"""

import pathlib

from greenquadrics import checks
from greenquadrics.errors import DegeneratePairingError, DependentBasisError
from greenquadrics.exact import QuadExt, Rational
from greenquadrics.green import ProjLine, class_plane, classify_plane, colspace, rowspace
from greenquadrics.mat2 import IDENTITY, inner
from greenquadrics.sampling import (
    grid_matrices,
    grid_values,
    rand_idempotent_rank1,
    rand_mat,
    rand_nonzero_rational,
    rand_rank1,
    rand_rational,
    rand_singular_with_trace,
    rng_for,
)
from greenquadrics.sections import to_bell
from greenquadrics.semigroup import generator_line, idempotent_from_spaces, is_nilpotent, line_meet
from cli_process import run_gq
from surface_csv import read_csv_points

HALF = Rational(1, 2)
SEED = 2024


def report(num, text, results=(), ok=True):
    """Print the criterion's line and its checks' lines; fail unless all passed."""
    ok = ok and all(r.ok for r in results)
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    for r in results:
        print(f"    {r.line()}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_bell_identity():
    per_level = 1000
    results = [checks.check_bell_identity(SEED, trials=per_level)]
    # the check draws these same matrices; the frame identity is checked here only
    bad = 0
    for li, lam in enumerate(checks._BELL_LEVELS):
        for i in range(per_level):
            x = rand_singular_with_trace(rng_for(SEED, li * per_level + i), lam)
            p = to_bell(x, lam)
            if p.X * p.X + p.Y * p.Y - p.Z * p.Z != QuadExt(lam * lam * HALF):
                bad += 1
    report(
        1,
        f"frame identity X^2+Y^2-Z^2 = lam^2/2 exact on {per_level} singular matrices "
        f"per level across {len(checks._BELL_LEVELS)} levels; zero residual on them, and the "
        f"residual -2 det x certified on an 81-point grid",
        results,
        ok=bad == 0,
    )


def test_criterion_2_section_classification_table():
    results = [checks.check_classifier_agreement(SEED + 2, trials=1200)]
    report(
        2,
        "1200 stratified (a, lam): table verdicts all correct, inertia-based "
        "classifier agreement 100% on the rank>0 cases",
        results,
    )


def test_criterion_3_inverse_set_theorem():
    results = [
        checks.check_inverse_set_theorem(SEED + 3),
        checks.check_membership_equals_triple_products(SEED + 4, trials=10),
    ]
    report(
        3,
        "for 500 rank-1 a, a 3 x 3 grid of chart points certifies axa=a, xax=x "
        "exactly at every (s, t), and one 64-bit point each samples it; membership "
        "tr(ax)=1, det(x)=0 equals the triple-product definition on the "
        "625-point grid for 11 coefficient matrices",
        results,
    )


def test_criterion_4_idempotent_surface():
    lines = [ProjLine(0, 1)] + [ProjLine(1, k) for k in range(-24, 25)]
    assert len(lines) == 50
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
            if x == x.transpose():
                d = x - IDENTITY * HALF
                if inner(d, d) != HALF:
                    circle_bad += 1
    # the exceptional partner of e is unique: its column space must be the
    # perp of e's row space
    partner_bad = 0
    for i in range(50):
        e = rand_idempotent_rank1(rng_for(SEED + 5, i))
        exceptional_col = rowspace(e).perp()
        f0 = idempotent_from_spaces(exceptional_col, exceptional_col)
        if line_meet(generator_line("L1", e), generator_line("L2", f0)) is not None:
            partner_bad += 1
        for k in range(5):
            g = rand_idempotent_rank1(rng_for(SEED + 6, i * 5 + k))
            if colspace(g) != exceptional_col:
                if line_meet(generator_line("L1", e), generator_line("L2", g)) is None:
                    partner_bad += 1
    results = [
        checks.check_generator_lines(SEED + 13, trials=500),
        checks.check_line_combinatorics(SEED + 5, trials=50),
        checks.check_symmetric_slice(SEED + 14, trials=500),
    ]
    report(
        4,
        f"{built} idempotents from the 50x50 space-pair grid all satisfy tr=1, det=0, "
        f"x^2=x ({degenerate} degenerate pairings raised); symmetric ones at squared "
        f"distance 1/2 from I/2; generating-line combinatorics clean on 50 pairs with "
        f"a unique exceptional partner per base",
        results,
        ok=built > 0 and surface_bad == circle_bad == partner_bad == 0,
    )


def test_criterion_5_nilpotent_cone():
    ident_bad = grid_nilpotents = 0
    for x in grid_matrices(grid_values(span=2, dens=(1, 2))):
        if is_nilpotent(x) and not x.is_zero():
            grid_nilpotents += 1
            if not checks.nilpotent_cone_holds(x):
                ident_bad += 1
    results = [
        checks.check_nilpotent_characterization(SEED + 7, trials=10000),
        checks.check_nilpotent_cone_identity(SEED + 7, trials=2000),
    ]
    report(
        5,
        f"x^2=0 iff tr=0 and det=0 on the exhaustive grid, 10000 random matrices and "
        f"the 75-point grid that certifies it on the nilpotent chart k(p,q)^T(q,-p); "
        f"45-degree cone identity (x2-x3)^2 = |x|^2 exact on the {grid_nilpotents} "
        f"nonzero grid nilpotents and 2000 random ones",
        results,
        ok=grid_nilpotents > 0 and ident_bad == 0,
    )


def test_criterion_6_natural_order():
    results = [
        checks.check_natural_order_equivalence(SEED + 8, trials=1000),
        checks.check_order_section_reports(SEED + 9, trials=10),
    ]
    report(
        6,
        "natural order == minus order on 81^2 grid pairs and 1000 sampled pairs, with "
        "e y <= y in both orders certified for every rank-1 idempotent e at 250 sampled "
        "invertible y; "
        "below-a set equals SP(inv(a);1) on 10 reports x 200 trials with zero "
        "counterexamples, and equals the literal SP(a;1) exactly on a = I",
        results,
    )


def _class_plane(rng, i):
    """A basis of the L or R class plane of a `rand_rank1` a, rebased by a
    random invertible 2x2: a plane the polarization test must call contained."""
    b1, b2 = class_plane("L" if i % 2 else "R", rand_rank1(rng))
    while True:
        al, be, ga, de = (rand_rational(rng, 4, 3) for _ in range(4))
        if al * de - be * ga != 0:
            return b1 * al + b2 * be, b1 * ga + b2 * de


def test_criterion_7_punctured_plane_converse():
    results = [checks.check_plane_classification_roundtrip(SEED + 11, trials=500)]
    # every fifth plane is a rebased class plane, the others random pairs,
    # which are almost never contained: both verdicts meet det sampling
    sampling_bad = contained_seen = outside_seen = 0
    i = 0
    while contained_seen < 100 or outside_seen < 500:
        rng = rng_for(SEED + 12, i)
        b1, b2 = _class_plane(rng, i) if i % 5 == 0 else (rand_mat(rng, 4, 3), rand_mat(rng, 4, 3))
        i += 1
        try:
            verdict = classify_plane(b1, b2)
        except DependentBasisError:
            continue
        contained = verdict.kind != "not_contained"
        if contained:
            contained_seen += 1
        else:
            outside_seen += 1
        # polarization verdict vs 100-point sampling, both directions
        sampled_all_zero = True
        for _ in range(100):
            s, t = rand_nonzero_rational(rng, 6, 4), rand_nonzero_rational(rng, 6, 4)
            if (b1 * s + b2 * t).det() != 0:
                sampled_all_zero = False
                break
        if contained != sampled_all_zero:
            sampling_bad += 1
    report(
        7,
        f"500 rebased class planes classify back to their class and representative; "
        f"polarization test agrees with 100-point det sampling on {contained_seen} contained "
        f"and {outside_seen} not contained planes",
        results,
        ok=sampling_bad == 0 and contained_seen >= 100 and outside_seen >= 500,
    )


GOLDEN = pathlib.Path(__file__).resolve().parent / "data"


def test_criterion_8_cli_and_export(tmp_path):
    # the behaviour contract: output pinned byte for byte in tests/data
    run_text = run_gq(["check", "--seed", "42"])
    run_json = run_gq(["check", "--seed", "42", "--json"])
    golden = (
        run_text.returncode == 0
        and run_text.stdout.count("[pass]") > 0
        and run_text.stdout == (GOLDEN / "check_seed42.txt").read_text(encoding="utf-8")
        and run_json.returncode == 0
        and run_json.stdout == (GOLDEN / "check_seed42.json").read_text(encoding="utf-8")
    )

    out = str(tmp_path / "idem.csv")
    export = run_gq(
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
        got = run_gq(args).returncode
        if got != want:
            codes_ok = False
            break

    report(
        8,
        "check --seed 42 byte-identical to tests/data (text and --json); 2000 exported "
        "idempotent samples re-read with |det| <= 1e-12 * max(1, |x|^2); exit codes "
        "0/1/2 conform on the scripted invocation matrix",
        ok=golden and export_ok and det_ok and codes_ok,
    )
