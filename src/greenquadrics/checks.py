"""Seeded property suites behind `gq check`.

Each check re-derives one of the package's structural identities from
scratch (exact arithmetic, no tolerances) and reports a pass/fail line.
This module holds the only copy of each property check: criteria 1-7 of
`tests/test_acceptance.py` call the `check_*` functions below with their
own seeds and trial counts and assert `.ok`, and the test keeps only the
assertions no check makes.  Output is a pure function of (suite
selection, seed, trial counts).

A check is a stream of cases and a predicate `holds(*case) -> bool`, and
`_tally` is the only code that counts: one count per case, one failure per
case at most.  A case is one seeded trial, one point of a trial, or one
point of an exhaustive grid; a redraw inside a trial is not a trial.  The
cases draw from the streams `_streams` keys by (seed, index); the
predicates draw nothing.

Eight checks test polynomial identities, and they certify them on a grid
instead of sampling them.  The degree in each variable sets the grid:

- Cayley-Hamilton: degree 2 in each entry of a, 3^4 = 81 points;
- det(ab) = det a det b with tr(ab) = tr(ba), and inner = trace form:
  degree 1 in each of the 8 entries of the pair, 2^8 = 256 points each;
- the invertible half of the frame identity (`bell_residual(x) ==
  -2 det x`): degree 2 in each entry, 81 points;
- the frame round trip: degree 1 in lam and in each entry of x, 2^5 = 32;
- the Q(sqrt 2) field axioms: degree 2 in each rational part of p (the
  inverse, once the norm of p is cleared) and 1 in each part of q and r,
  3^2 x 2^4 = 144 points;
- the restriction identity: degree 2 in each chart coordinate, 3^3 = 27
  points in each of two charts of each sampled hyperplane;
- the inverse-set chart (a x a = a, x a x = x, tr(a x) = 1, det x = 0 and
  reading s and t back, at x = (d0 + s d1)(q0 + t q1)^T): degree 2 in s and
  in t, 3^2 = 9 points per sampled rank-1 a.

The last two certify every chart point of each sampled hyperplane or a,
not every hyperplane or a: those stay sampled.  By the Combinatorial
Nullstellensatz (Alon, Combin. Probab. Comput. 8, 1999), a polynomial of
degree at most t_i in each variable x_i that vanishes on a grid
S_1 x ... x S_n with |S_i| > t_i is zero.  Each check runs such a grid in
full (`sampling.CERTIFICATE_VALUES`: 3 values per variable of degree 2, 2
per variable of degree 1), then a seeded tail of draws with 64-bit
numerators and denominators, which a fault of low degree d escapes with
probability of order d / 2**63 per draw (Schwartz, J. ACM 27(4), 1980;
DeMillo & Lipton, Inf. Process. Lett. 7(4), 1978).  `_certified` builds
the grid and the tail of all eight.  The certificate covers the formula
the code evaluates on the grid, not the code: the code clears
denominators, takes gcds and branches, so the grid values have distinct
denominators and both signs to run those paths, and the tail covers what
a grid cannot see.  The chart of `restrict_quadric` has constant term 0 on
every hyperplane, so the restriction identity is certified in a second
chart of each plane too, recentred off det = 0, where the constant term
is not 0.  The checks with rank branches (the two orders, membership, the
idempotent and nilpotent characterizations) stay sampled.  Ten of the
predicates are module-level (`cayley_hamilton_holds` and the nine after it
in `__all__`), and the tier-1 tests call them on their own inputs.

Membership in an inverse set or a hyperplane section is always decided by
the shipped predicates (`inverse_membership`, `section_membership`) and
compared with an independent one (`is_inverse_pair`, the idempotent test).
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product, repeat
from math import gcd, prod
from typing import NamedTuple

from greenquadrics import green, quadrics
from greenquadrics.errors import DegeneratePairingError
from greenquadrics.exact import QuadExt, Rational, rational_sign, to_float
from greenquadrics.green import class_plane, classify_plane, green_eq
from greenquadrics.mat2 import IDENTITY, Mat2, inner, inverse_mat, outer
from greenquadrics.sampling import (
    CERTIFICATE_VALUES,
    _rand_int_vector,
    grid_matrices,
    grid_values,
    rand_idempotent_rank1,
    rand_invertible,
    rand_mat,
    rand_nilpotent,
    rand_nonzero_rational,
    rand_rank1,
    rand_rational,
    rand_singular_with_trace,
    rand_wide_mat,
    rand_wide_rational,
    rng_for,
)
from greenquadrics.sections import (
    Hyperplane,
    SectionClass,
    bell_residual,
    chart_pivot,
    classify_affine_quadric,
    classify_section,
    from_bell,
    hyperboloid_metrics,
    quadric_on_chart,
    restrict_quadric,
    section_membership,
    to_bell,
)
from greenquadrics.semigroup import (
    chart_eval,
    generator_line,
    idempotent_from_spaces,
    inverse_chart,
    inverse_membership,
    is_idempotent,
    is_inverse_pair,
    is_nilpotent,
    line_meet,
    minus_le,
    natural_le,
    order_section_report,
)

__all__ = [
    "CheckResult",
    "SUITES",
    "available_suites",
    "run_checks",
    "render_results",
    "cayley_hamilton_holds",
    "det_trace_laws_hold",
    "inner_is_trace_form",
    "quadext_field_holds",
    "restriction_holds",
    "frame_residual_holds",
    "frame_roundtrip_holds",
    "idempotent_characterization_holds",
    "nilpotent_characterization_holds",
    "nilpotent_cone_holds",
]

_HALF = Rational(1, 2)
_TAIL = 200  # default wide tail of a certified check
_BELL_LEVELS = (Rational(0), Rational(1), Rational(-1), Rational(3, 2), Rational(-3, 2), Rational(7, 2))

# The theorem table: (rank a, lam == 0) -> type of the slice of det = 0.
_THEOREM_TABLE = {
    (0, True): SectionClass.FULL_VARIETY,
    (0, False): SectionClass.EMPTY,
    (1, True): SectionClass.TWO_PUNCTURED_PLANES,
    (1, False): SectionClass.HYPERBOLIC_PARABOLOID,
    (2, True): SectionClass.CONE,
    (2, False): SectionClass.HYPERBOLOID_ONE_SHEET,
}

# The classes the theorem table can produce, keyed to the generic classifier.
_SECTION_TO_QUADRIC = {
    SectionClass.HYPERBOLOID_ONE_SHEET: quadrics.QuadricClass.HYPERBOLOID_ONE_SHEET,
    SectionClass.CONE: quadrics.QuadricClass.CONE,
    SectionClass.HYPERBOLIC_PARABOLOID: quadrics.QuadricClass.HYPERBOLIC_PARABOLOID,
    SectionClass.TWO_PUNCTURED_PLANES: quadrics.QuadricClass.INTERSECTING_PLANES,
}


class CheckResult(NamedTuple):
    suite: str
    name: str
    ok: bool
    detail: str
    certified: int = 0  # grid points of a certificate; 0 for a check that only samples

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        return f"[{mark}] {self.suite}/{self.name}: {self.detail}"


def _streams(seed, trials, first=0):
    """(i, the stream keyed (seed, first + i)) for each trial i."""
    return ((i, rng_for(seed, first + i)) for i in range(trials))


def _seeded(seed, trials, first=0):
    """The streams of `_streams`, without their indices."""
    return (rng for _, rng in _streams(seed, trials, first))


def _draws(seed, trials, *samplers, first=0):
    """One case per trial: each sampler's value, drawn in order from the trial's stream."""
    return (tuple(draw(rng) for draw in samplers) for rng in _seeded(seed, trials, first))


def _tally(suite, name, cases, holds, extra="", certified=0) -> CheckResult:
    """The one trial counter: one count per case, one failure per case at
    most.  A check that ran no case fails; a failing one names the index of
    its first failing case.  `certified` is the number of those cases that
    are points of a certificate's grid."""
    total = failures = 0
    first = None
    for case in cases:
        if not holds(*case):
            if not failures:
                first = total
            failures += 1
        total += 1
    detail = f"{total - failures}/{total} trials ok"
    if extra:
        detail += f"; {extra}"
    if failures:
        detail += f"; first failure at case {first}"
    return CheckResult(suite, name, failures == 0 and total > 0, detail, certified)


def _note(points, wide) -> str:
    return f"{points} grid points certify the identity, {wide} sampled at 64 bits"


def _scalar(degree):
    """A rational variable of an identity of `degree` in it: its grid values
    and its 64-bit sampler."""
    return CERTIFICATE_VALUES[degree], rand_wide_rational


def _matrix(degree):
    """A matrix variable of an identity of `degree` in each entry: every
    matrix on its grid values, and its 64-bit sampler."""
    return tuple(grid_matrices(CERTIFICATE_VALUES[degree])), rand_wide_mat


def _grid_size(variables) -> int:
    return prod(len(values) for values, _ in variables)


def _certified(variables, rngs):
    """The cases of a certificate: every point of the grid of `variables`
    (one value per variable), then one 64-bit point drawn from each stream
    of `rngs`."""
    grid = product(*(values for values, _ in variables))
    tail = (tuple(draw(rng) for _, draw in variables) for rng in rngs)
    return chain(grid, tail)


def _identity_check(suite, name, holds, variables, seed, trials):
    """A certificate with one 64-bit point per trial, each from the trial's stream."""
    points = _grid_size(variables)
    cases = _certified(variables, _seeded(seed, trials))
    return _tally(suite, name, cases, holds, _note(points, trials), points)


# a chart parameter (s or t) of the injectivity and generator-line checks
_chart_coord = partial(rand_rational, span=6, max_den=4)


# --- exact ---------------------------------------------------------------


def check_rational_canonical(seed, trials=2000):
    def holds(a, b):
        results = (a + b, a - b, a * b, a / b)
        return all(v.denominator > 0 and gcd(abs(v.numerator), v.denominator) == 1 for v in results)

    cases = _draws(seed, trials, rand_rational, rand_nonzero_rational)
    return _tally("exact", "rational_canonical_form", cases, holds)


def quadext_field_holds(p, q, r) -> bool:
    """(pq)r = p(qr), p(q + r) = pq + pr and p p^-1 = 1 for p != 0: degree
    at most 2 in each rational part of p (p p^-1 = 1 once the norm of p is
    cleared) and 1 in each part of q and r."""
    if (p * q) * r != p * (q * r) or p * (q + r) != p * q + p * r:
        return False
    return not p or p * p.inverse() == QuadExt(1)


def check_quadext_field(seed, trials=_TAIL):
    """The parts of p on the degree-2 values, those of q and r on the
    degree-1 values: 9 x 16 grid points, then `trials` 64-bit triples."""
    variables = (_scalar(2),) * 2 + (_scalar(1),) * 4

    def holds(a, b, c, d, e, f):
        return quadext_field_holds(QuadExt(a, b), QuadExt(c, d), QuadExt(e, f))

    return _identity_check("exact", "quadext_field_axioms", holds, variables, seed, trials)


def _root2_sign(a, b) -> int:
    """Sign of a + b*sqrt2 for rationals a, b, decided on the parts alone."""
    sa, sb = rational_sign(a), rational_sign(b)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs: |a| > |b| sqrt2 exactly when a^2 > 2 b^2 (never equal)
    return sa if a * a > 2 * b * b else sb


def check_quadext_sign(seed, trials=2000):
    """Every trial compares `sign()` with an expected sign: the float's away
    from zero, and an exact decision on the parts within 1e-6 of it (zero
    included, which must give 0)."""

    def holds(a, b):
        p = QuadExt(a, b)
        f = to_float(p)
        expected = (1 if f > 0 else -1) if abs(f) > 1e-6 else _root2_sign(a, b)
        return p.sign() == expected

    cases = _draws(seed, trials, rand_rational, rand_rational)
    return _tally("exact", "quadext_sign_float_bridge", cases, holds)


# --- core ----------------------------------------------------------------


def cayley_hamilton_holds(a) -> bool:
    """a^2 - tr(a) a + det(a) I = 0: degree 2 in each entry."""
    return (a @ a - a * a.trace() + IDENTITY * a.det()).is_zero()


def det_trace_laws_hold(a, b) -> bool:
    """det(ab) = det a det b and tr(ab) = tr(ba): degree 1 in each of the 8 entries."""
    ab = a @ b
    return ab.det() == a.det() * b.det() and ab.trace() == (b @ a).trace()


def inner_is_trace_form(x, y) -> bool:
    """<x, y> = tr(x^T y): degree 1 in each of the 8 entries."""
    return inner(x, y) == (x.transpose() @ y).trace()


def check_cayley_hamilton(seed, trials=_TAIL):
    return _identity_check("core", "cayley_hamilton", cayley_hamilton_holds, (_matrix(2),), seed, trials)


def check_det_trace_laws(seed, trials=_TAIL):
    variables = (_matrix(1),) * 2
    return _identity_check("core", "det_multiplicative_trace_commutes", det_trace_laws_hold, variables, seed, trials)


def check_inner_vs_trace(seed, trials=_TAIL):
    variables = (_matrix(1),) * 2
    return _identity_check("core", "inner_product_equals_trace_form", inner_is_trace_form, variables, seed, trials)


def check_traceless_singular_squares_to_zero(seed, trials=2000):
    def holds(x):
        return x.trace() == 0 and x.det() == 0 and (x @ x).is_zero()

    return _tally("core", "traceless_singular_is_square_zero", _draws(seed, trials, rand_nilpotent), holds)


# --- green ---------------------------------------------------------------


def check_class_plane_membership(seed, trials=1000):
    def cases():
        for _, rng in _streams(seed, trials):
            a = rand_rank1(rng)
            points = []
            for rel in ("L", "R"):
                b1, b2 = class_plane(rel, a)
                # b1, b2 are independent: redraw (s, t) = (0, 0), never skip the test
                while True:
                    s, t = rand_rational(rng), rand_rational(rng)
                    x = b1 * s + b2 * t
                    if not x.is_zero():
                        break
                points.append(x)
            yield a, *points

    def holds(a, x_l, x_r):
        return green_eq("L", x_l, a) and green_eq("R", x_r, a)

    return _tally("green", "class_plane_points_stay_in_class", cases(), holds)


def check_d_is_rank(seed, trials=2000):
    def holds(a, b):
        d = green_eq("D", a, b)
        return d == (a.rank() == b.rank()) and green_eq("J", a, b) == d

    narrow = partial(rand_mat, span=3)
    return _tally("green", "d_class_is_rank_class", _draws(seed, trials, narrow, narrow), holds)


def check_plane_classification_roundtrip(seed, trials=500):
    def cases():
        for i, rng in _streams(seed, trials):
            a = rand_rank1(rng)
            rel = "L" if i % 2 == 0 else "R"
            b1, b2 = class_plane(rel, a)
            # random invertible change of basis inside the plane
            while True:
                al, be, ga, de = (rand_rational(rng, 4, 3) for _ in range(4))
                if al * de - be * ga != 0:
                    break
            yield a, rel, b1 * al + b2 * be, b1 * ga + b2 * de

    def holds(a, rel, v1, v2):
        verdict = classify_plane(v1, v2)
        return verdict.kind == rel and green_eq(rel, verdict.rep, a)

    return _tally("green", "plane_classification_roundtrip", cases(), holds)


def check_h_class_is_punctured_line(seed, trials=500):
    def holds(a, t, b):
        line = green.h_class_line(a)
        return green_eq("H", line.point(t), a) and green_eq("H", b, a) == line.contains(b)

    cases = _draws(seed, trials, rand_rank1, rand_nonzero_rational, rand_rank1)
    return _tally("green", "h_class_is_punctured_line", cases, holds)


# --- sets ----------------------------------------------------------------


def _grid_then_draws(seed, trials):
    """Every matrix of the small grid, then `trials` wider draws: one matrix per case."""
    grid = ((x,) for x in grid_matrices(grid_values(span=2, dens=(1, 2))))
    return chain(grid, _draws(seed, trials, partial(rand_mat, span=4, max_den=4)))


def idempotent_characterization_holds(x) -> bool:
    """x is a rank-1 idempotent exactly when tr x = 1 and det x = 0."""
    return (is_idempotent(x) and x.rank() == 1) == (x.trace() == 1 and x.det() == 0)


def nilpotent_characterization_holds(x) -> bool:
    """x is nilpotent exactly when tr x = 0 and det x = 0."""
    return is_nilpotent(x) == (x.trace() == 0 and x.det() == 0)


def check_rank1_idempotent_characterization(seed, trials=10000):
    cases = _grid_then_draws(seed, trials)
    return _tally("sets", "rank1_idempotent_iff_trace1_det0", cases, idempotent_characterization_holds)


def check_nilpotent_characterization(seed, trials=10000):
    cases = _grid_then_draws(seed, trials)
    return _tally("sets", "nilpotent_iff_trace0_det0", cases, nilpotent_characterization_holds)


def check_inverse_set_theorem(seed, trials=500, points_per=1):
    """`trials` sampled rank-1 a.  Each test of a chart point has degree at
    most 2 in s and in t, so per a the 3 x 3 (s, t) grid certifies it for
    every (s, t); then `points_per` 64-bit points from the stream of a."""
    variables = (_scalar(2),) * 2

    def cases():
        for _, rng in _streams(seed, trials):
            a = rand_rank1(rng)
            chart = inverse_chart(a)
            # (s, t) read back from the point, by the chart's public vectors: x c =
            # d0 + s d1 and r^T x = q0 + t q1 for c = q0 / |q0|^2, r = d0 / |d0|^2,
            # with d1 orthogonal to d0 and q1 to q0, so s = <x, m> / |m|^2 for
            # m = d1 q0^T and t likewise for m = d0 q1^T (|u v^T|^2 = |u|^2 |v|^2)
            read_s, read_t = (m / m.norm_sq() for m in (outer(chart.d1, chart.q0), outer(chart.d0, chart.q1)))
            for s, t in _certified(variables, repeat(rng, points_per)):
                yield a, chart, read_s, read_t, s, t

    def holds(a, chart, read_s, read_t, s, t):
        x = chart_eval(chart, s, t)
        return is_inverse_pair(a, x) and inverse_membership(a, x) and inner(x, read_s) == s and inner(x, read_t) == t

    points = _grid_size(variables) * trials
    note = f"{_note(points, points_per * trials)}; the grid covers every (s, t) of each of {trials} sampled a"
    return _tally("sets", "chart_points_are_inverses", cases(), holds, note, points)


_MEMBERSHIP_CAP = 200


def check_membership_equals_triple_products(seed, trials=20):
    extra = ""
    if trials > _MEMBERSHIP_CAP:  # each trial sweeps the full 5^4 grid
        extra = f"random a capped at {_MEMBERSHIP_CAP} of {trials}"
        trials = _MEMBERSHIP_CAP
    mats = [Mat2(1, 0, 0, 0)] + [rand_rank1(rng) for _, rng in _streams(seed, trials, 10_000)]

    def holds(a, x):
        return inverse_membership(a, x) == is_inverse_pair(a, x)

    cases = product(mats, grid_matrices(grid_values(span=2)))
    return _tally("sets", "section_membership_iff_inverse_pair", cases, holds, extra)


def check_chart_bijectivity(seed, trials=500):
    def holds(a, s1, t1, s2, t2):
        chart = inverse_chart(a)
        same_point = chart_eval(chart, s1, t1) == chart_eval(chart, s2, t2)
        return same_point == ((s1, t1) == (s2, t2))

    cases = _draws(seed, trials, rand_rank1, _chart_coord, _chart_coord, _chart_coord, _chart_coord)
    return _tally("sets", "chart_is_injective", cases, holds)


def check_generator_lines(seed, trials=500):
    def holds(e, t):
        p1, p2 = generator_line("L1", e).point(t), generator_line("L2", e).point(t)
        on_surface = all(is_idempotent(p) and p.rank() == 1 for p in (p1, p2))
        return on_surface and green_eq("L", p1, e) and green_eq("R", p2, e)

    cases = _draws(seed, trials, rand_idempotent_rank1, _chart_coord)
    return _tally("sets", "generator_lines_lie_on_surface", cases, holds)


def check_line_combinatorics(seed, trials=50):
    def cases():
        for _, rng in _streams(seed, trials):
            e = rand_idempotent_rank1(rng)
            f = rand_idempotent_rank1(rng)
            while f == e:  # a redraw, not a skipped trial
                f = rand_idempotent_rank1(rng)
            yield e, f

    def holds(e, f):
        # same family: the lines coincide (e, f in one class) or miss, never a unique meet
        for family in ("L1", "L2"):
            if line_meet(generator_line(family, e), generator_line(family, f)) is not None:
                return False
        # opposite families: unique meet exactly when the pairing is regular
        cross = line_meet(generator_line("L1", e), generator_line("L2", f))
        try:
            expected = idempotent_from_spaces(green.colspace(f), green.rowspace(e))
        except DegeneratePairingError:
            expected = None
        return cross == expected and (cross is None or (is_idempotent(cross) and cross.rank() == 1))

    return _tally("sets", "generator_line_combinatorics", cases(), holds)


def check_natural_order_equivalence(seed, trials=10000):
    def draws():
        for i, rng in _streams(seed, trials):
            mode = i % 4
            if mode == 0:
                yield rand_mat(rng, 3, 2), rand_mat(rng, 3, 2)
            elif mode == 1:
                yield rand_rank1(rng), rand_invertible(rng)
            elif mode == 2:
                y = rand_invertible(rng)
                yield rand_idempotent_rank1(rng) @ y, y
            else:
                y = rand_rank1(rng)
                yield y * rand_rational(rng, 3, 2), y

    def holds(x, y):
        return natural_le(x, y) == minus_le(x, y)

    grid = list(grid_matrices(grid_values(span=1)))
    cases = chain(product(grid, grid), draws())
    return _tally("sets", "natural_order_equals_minus_order", cases, holds)


def nilpotent_cone_holds(x) -> bool:
    """(x2 - x3)^2 = |x|^2 for nilpotent x: the 45-degree cone."""
    return (x.x2 - x.x3) ** 2 == x.norm_sq()


def check_nilpotent_cone_identity(seed, trials=2000):
    cases = _draws(seed, trials, rand_nilpotent)
    return _tally("sets", "nilpotent_cone_45_degree_identity", cases, nilpotent_cone_holds)


def check_order_section_reports(seed, trials=10, per_report=200):
    reports = [
        order_section_report(rand_invertible(rng), per_report, seed + i) for i, rng in _streams(seed, trials, 40_000)
    ]
    identity = order_section_report(IDENTITY, per_report, seed)
    identity_gap = sum(r.agree_le_vs_section != per_report for r in reports)

    def holds(report):
        # below the identity the two sections coincide, so both columns agree
        if report is identity:
            return report.agree_le_vs_section == per_report == report.agree_le_vs_inv_section
        return report.agree_le_vs_inv_section == per_report and not report.counterexamples

    return _tally(
        "sets",
        "order_below_a_is_inverse_section",
        ((r,) for r in [*reports, identity]),
        holds,
        extra=f"literal-section disagreement on {identity_gap}/{trials} generic a (expected)",
    )


# --- sections ------------------------------------------------------------


def frame_residual_holds(x) -> bool:
    """bell_residual(x) = -2 det x: degree 2 in each entry.  Comparing values,
    not zeros, sees a scale slip that the singular slices cannot."""
    return bell_residual(x) == -2 * x.det()


def check_bell_identity(seed, trials=1000):
    """The frame residual certified on its grid, with a wide tail of at most
    the default `_TAIL` draws; and `trials` sampled singular matrices per
    level, each the first draw of the stream keyed (seed, level * trials + i)."""

    def singular():
        for li, lam in enumerate(_BELL_LEVELS):
            for _, rng in _streams(seed, trials, li * trials):
                yield rand_singular_with_trace(rng, lam), lam

    def holds(x, lam=None):
        if lam is None:
            return frame_residual_holds(x)
        return x.trace() == lam and bell_residual(x) == 0

    variables, sampled, tail = (_matrix(2),), len(_BELL_LEVELS) * trials, min(trials, _TAIL)
    points = _grid_size(variables)
    cases = chain(_certified(variables, _seeded(seed, tail, sampled)), singular())
    note = f"{_note(points, tail)}, {sampled} at the default width"
    return _tally("sections", "frame_identity_exact", cases, holds, note, points)


def frame_roundtrip_holds(lam, x) -> bool:
    """x projected onto trace = lam goes to the frame and back unchanged, and
    so does its frame point: degree 1 in lam and in each entry of x."""
    x = x + IDENTITY * ((lam - x.trace()) * _HALF)
    p = to_bell(x, lam)
    back = from_bell(p)
    return back.is_rational() and back.to_mat2() == x and to_bell(back, lam) == p


def check_bell_roundtrip(seed, trials=_TAIL):
    variables = (_scalar(1), _matrix(1))
    return _identity_check("sections", "frame_roundtrip_exact", frame_roundtrip_holds, variables, seed, trials)


def _random_hyperplane(rng, stratum) -> Hyperplane:
    rank = stratum % 3
    zero_level = (stratum // 3) % 2 == 0
    lam = Rational(0) if zero_level else rand_nonzero_rational(rng, 4, 3)
    if rank == 0:
        a = Mat2(0, 0, 0, 0)
    elif rank == 1:
        a = rand_rank1(rng)
    else:
        a = rand_invertible(rng)
    return Hyperplane(a, lam)


def check_classifier_agreement(seed, trials=1000):
    def holds(h, rank):
        verdict = classify_section(h.a, h.lam)
        if verdict.kind != _THEOREM_TABLE[(rank, h.lam == 0)]:
            return False
        return rank == 0 or _SECTION_TO_QUADRIC.get(verdict.kind) == classify_affine_quadric(restrict_quadric(h))

    # the rank comes from the stratum: classify_section reads a.rank() itself
    cases = ((_random_hyperplane(rng, i), i % 3) for i, rng in _streams(seed, trials))
    return _tally("sections", "table_matches_generic_classifier", cases, holds)


def _random_hyperplane_nonzero_a(rng, i) -> Hyperplane:
    # cycle rank 1/2 crossed with zero/nonzero level
    return _random_hyperplane(rng, (1, 2, 4, 5)[i % 4])


def restriction_holds(aq, pivot, t) -> bool:
    """The chart point of t moves the origin's non-pivot entries by t, and
    its det is the restricted quadric at t: degree at most 2 in each chart
    coordinate, since det is a product of two affine forms in each."""
    x = aq.point(t)
    free = tuple(v for k, v in enumerate((x - aq.origin).entries) if k != pivot)
    return free == tuple(t) and x.det() == aq.evaluate(t)


def check_restriction_identity(seed, trials=100, points_per=2):
    """`trials` random hyperplanes, each in two charts.  The chart of
    `restrict_quadric` has constant term 0: its 27-point grid, then
    `points_per` 64-bit points drawn from the plane's stream.  The same basis
    recentred at the first grid point off det = 0 has a nonzero constant
    term, so its 27-point grid certifies that term too."""
    variables = (_scalar(2),) * 3
    grid = tuple(_certified(variables, ()))

    def cases():
        for i, rng in _streams(seed, trials):
            h = _random_hyperplane_nonzero_a(rng, i)
            aq = restrict_quadric(h)
            pivot = chart_pivot(h.a)
            for t in _certified(variables, repeat(rng, points_per)):
                yield aq, pivot, t
            # det vanishes on no hyperplane, so by the certificate it is
            # nonzero at some point of the grid
            origin = next(x for x in map(aq.point, grid) if x.det())
            recentred = quadric_on_chart(origin, aq.basis)
            for t in grid:
                yield recentred, pivot, t

    points = 2 * len(grid) * trials
    note = f"{_note(points, points_per * trials)}; two charts per plane, one with a nonzero constant term"
    return _tally("sections", "restriction_identity", cases(), restriction_holds, note, points)


def check_affine_invariance(seed, trials=200):
    def cases():
        for i, rng in _streams(seed, trials):
            h = _random_hyperplane_nonzero_a(rng, i)
            # rechart: new origin on the plane, new basis an invertible mix
            while True:
                T = [[rand_rational(rng, 2, 2) for _ in range(3)] for _ in range(3)]
                det3 = (
                    T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1])
                    - T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0])
                    + T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0])
                )
                if det3 != 0:
                    break
            yield h, T, [rand_rational(rng, 2, 2) for _ in range(3)]

    def holds(h, T, shift):
        aq = restrict_quadric(h)
        base_class = classify_affine_quadric(aq)
        # the theorem table is the oracle for the class itself
        table_class = _SECTION_TO_QUADRIC[classify_section(h.a, h.lam).kind]
        new_basis = tuple(
            aq.basis[0] * T[0][j] + aq.basis[1] * T[1][j] + aq.basis[2] * T[2][j] for j in range(3)
        )
        recharted = quadric_on_chart(aq.point(shift), new_basis)
        return base_class == table_class and classify_affine_quadric(recharted) == base_class

    return _tally("sections", "affine_invariance_of_class", cases(), holds)


def check_inverse_image_law(seed, trials=500):
    def cases():
        for i, rng in _streams(seed, trials):
            a = rand_invertible(rng)
            mode = i % 3
            if mode == 0:
                x = rand_rank1(rng)
            elif mode == 1:
                x = inverse_mat(a) @ rand_idempotent_rank1(rng)
            else:
                # tr(a x) = 1 with x almost always nonsingular: only det rules x out
                y = rand_mat(rng, 4, 3)
                x = inverse_mat(a) @ (y + IDENTITY * ((1 - y.trace()) * _HALF))
            yield a, x

    def holds(a, x):
        ax = a @ x
        return section_membership(Hyperplane(a, 1), x) == (is_idempotent(ax) and ax.rank() == 1)

    return _tally("sections", "section_is_inverse_image_of_idempotents", cases(), holds)


def check_symmetric_slice(seed, trials=500):
    center = hyperboloid_metrics(Rational(1)).center

    def holds(u):
        x = outer(u, u) / (u[0] * u[0] + u[1] * u[1])
        d = x - center
        return inner(d, d) == _HALF and to_bell(x, Rational(1)).Z == QuadExt(0)

    cases = _draws(seed, trials, partial(_rand_int_vector, span=5))
    return _tally("sections", "symmetric_idempotents_form_radius_circle", cases, holds)


def check_metrics_family(seed, trials=0):
    levels = [Rational(0), Rational(1), Rational(3), Rational(5), Rational(-7, 2)]
    base = hyperboloid_metrics(levels[0]).asymptotic_form

    def holds(lam):
        m = hyperboloid_metrics(lam)
        return m.asymptotic_form == base and m.center == IDENTITY * (lam * _HALF) and m.radius_sq == lam * lam * _HALF

    return _tally("sections", "metrics_family_shares_axis_and_cone", ((lam,) for lam in levels), holds)


SUITES: dict[str, list] = {
    "exact": [check_rational_canonical, check_quadext_field, check_quadext_sign],
    "core": [
        check_cayley_hamilton,
        check_det_trace_laws,
        check_inner_vs_trace,
        check_traceless_singular_squares_to_zero,
    ],
    "green": [
        check_class_plane_membership,
        check_d_is_rank,
        check_plane_classification_roundtrip,
        check_h_class_is_punctured_line,
    ],
    "sets": [
        check_rank1_idempotent_characterization,
        check_nilpotent_characterization,
        check_inverse_set_theorem,
        check_membership_equals_triple_products,
        check_chart_bijectivity,
        check_generator_lines,
        check_line_combinatorics,
        check_natural_order_equivalence,
        check_nilpotent_cone_identity,
        check_order_section_reports,
    ],
    "sections": [
        check_bell_identity,
        check_bell_roundtrip,
        check_classifier_agreement,
        check_restriction_identity,
        check_affine_invariance,
        check_inverse_image_law,
        check_symmetric_slice,
        check_metrics_family,
    ],
}


def available_suites() -> list[str]:
    return list(SUITES)


def run_checks(suites=None, seed: int = 0, trials: int | None = None) -> list[CheckResult]:
    """Run the named suites (all by default) and collect results.

    `trials` overrides each check's default randomized-trial count: for
    a certified check, its 64-bit tail (its hyperplanes for
    `restriction_identity`, its sampled a for `chart_points_are_inverses`).
    Exhaustive grids and certificate grids always run in full.  A check
    that runs no case at all is reported as a failure, never as a vacuous
    pass.
    """
    names = available_suites() if not suites else list(suites)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {available_suites()}")
        for fn in SUITES[name]:
            if trials is None:
                results.append(fn(seed))
            else:
                results.append(fn(seed, trials))
    return results


def render_results(results) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
