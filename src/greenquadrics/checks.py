"""Seeded property suites behind `gq check`.

Each check re-derives one of the package's structural identities from
scratch (exact arithmetic, no tolerances) and reports a pass/fail line.
This module holds the only copy of each property check: criteria 1-7 of
`tests/test_acceptance.py` call the `check_*` functions below with their
own seeds and trial counts and assert `.ok`, and the test keeps only the
assertions no check makes.  Output is a pure function of (suite
selection, seed, trial counts).

A check is a stream of cases and a predicate `holds(*case) -> bool`, and
`_tally` is the only code that counts: one count per case and predicate,
one failure per case at most.  A case is one seeded trial, one point of a
trial, or one point of an exhaustive grid; a redraw inside a trial is not
a trial.  The cases draw from the streams keyed by (seed, index); the
predicates draw nothing.  A trial that draws a fixed tuple of samplers
takes it from `sampling.lane_draws`, which mixes the streams of 512
trials at once and falls back to each trial's own stream when a first
attempt is rejected or a sampler has no lane form.  The stratified
loops, which choose their samplers by trial or redraw inside a trial,
hand `sampling.strata_draws` each stratum's samplers and a `build` from
their values to the case, or to None for a trial to redraw (a zero point
of a class plane, a singular change of basis or of chart, a second
idempotent equal to the first).  Every first attempt comes from one
strided run of lanes per stratum, and a trial that needs any draw after
it is drawn whole on its own stream by the same samplers and `build`, so
each trial is written once.  An exception raised while a case is drawn
or decided fails that check alone, on its own line, and the run goes on;
so a check draws and builds in its case stream, not before it, the
grids, charts and metrics it reads included (the lanes build each
trial's values as it is yielded).

Eleven checks test polynomial identities, and they certify them on a grid
instead of sampling them.  The degree in each variable sets the grid:

- Cayley-Hamilton: degree 2 in each entry of a, 3^4 = 81 points;
- det(ab) = det a det b with tr(ab) = tr(ba), and inner = trace form:
  degree 1 in each of the 8 entries of the pair, 2^8 = 256 points each;
- the invertible half of the frame identity (`bell_residual(x) ==
  -2 det x`): degree 2 in each entry, 81 points;
- the frame round trip: degree 1 in lam and in each entry of x, 2^5 = 32;
- x^2 = 0 with tr x = det x = 0, and the 45-degree cone identity
  (x2 - x3)^2 = |x|^2, on the nilpotent chart x = k (p, q)^T (q, -p)
  (`_NILPOTENT_CHART`): degree 2 in k and 4 in p and in q, 3 x 5^2 = 75
  points each;
- the symmetric slice of the idempotents, x = u u^T / |u|^2 at squared
  distance 1/2 from I/2 with frame coordinate Z = 0: cleared by |u|^4,
  degree 4 in u1 and in u2, 5^2 = 25 points, every one with u != 0;
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
S_1 x ... x S_n with |S_i| > t_i is zero.  A variable is its tuple of
grid values, and a matrix is four variables, its entries row-major.
Each check runs such a grid in full (`sampling.CERTIFICATE_VALUES`: 5
values per variable of degree 4, 3 per variable of degree 2, 2 per
variable of degree 1), then a seeded tail of `rand_wide_rational` draws,
one per variable, with 64-bit numerators and denominators, which a fault of
low degree d escapes with probability of order d / 2**63 per draw (Schwartz, J. ACM 27(4), 1980;
DeMillo & Lipton, Inf. Process. Lett. 7(4), 1978).  `_certified` builds
the grid and the tail of all eleven.  The certificate covers the formula
the code evaluates on the grid, not the code: the code clears
denominators, takes gcds and branches, so the grid values have distinct
denominators and both signs to run those paths, and the tail covers what
a grid cannot see.  Since the grid alone proves each identity, the tail
only has to reach those non-polynomial paths at width, and its size is
measured, not argued: `_TAIL` = 23 points per check (the frame identity's
tail is at most that many), the smallest count that keeps every kill of
the generated mutants of `tests/mutants.py` and of the fault table.  A
tail of n draws is the prefix of a longer one, since its draws are keyed
by (seed, index), and at 200 the latest first failure of a tail was its
point 22 (`mat2._canon` leaving a matrix of content gcd 2 unreduced, in
the frame round trip).  It is never set below 20.  The chart of
`restrict_quadric` has constant term 0 on every hyperplane, so the
restriction identity is certified in a second chart of each plane too,
recentred off det = 0, where the constant term is not 0.  Ten of the predicates are module-level (`cayley_hamilton_holds`
and the nine after it in `__all__`), and the tier-1 tests call them on
their own inputs.

Three checks with rank branches certify only the half of their claim that
lies on a variety, on grids of its polynomial charts (5 values per
variable of degree 4), and sample the other half:

- the rank-1 idempotent characterization, on the two charts of
  `_idempotent_charts`: degree 4 in s and 2 in t, 15 points, and 2 in u,
  3 points;
- the nilpotent characterization, on the 75 points of the nilpotent
  chart;
- the order check's below half, x = e y for every rank-1 idempotent e on
  the same charts, at each sampled invertible y of one stratum: 18 points
  per y.

A grid certifies only the tests that should vanish.  A branch that rests
on something being nonzero (x != 0, rank y = 2, the pivot of `_factor`) is
fixed by construction or reached by the sampled cases, and the docstrings
of `_characterizations` and `check_natural_order_equivalence` name each
one.  The two characterizations share their cases: one pass decides both
predicates on each case, and a `run_checks` call keeps its results for
the second check (`_shared_passes`).  `section_membership_iff_inverse_pair`
stays sampled.

Membership in an inverse set or a hyperplane section is always decided by
the shipped predicates (`inverse_membership`, `section_membership`) and
compared with an independent one (`is_inverse_pair`, the idempotent test).
Those predicates, the trace and det sides of the two characterizations
and the comparisons of the restriction identity, the frame identity and
the read-backs of the two charts call the content comparisons of `mat2`
(`_det_is`, `_trace_is`, `_inner_is`, `_trace_of_product_is`), each
against the value the map under test returns (`evaluate`, `bell_residual`,
a chart parameter): they compare values, not storage, so the chart check
also tests that each chart point is in lowest terms, and the public `det`,
`trace` and `inner` are left to the checks that test them.  The nilpotent
chart's points are built from the ints of k, p and q, and the square-zero
check reads x3 = k q^2 back, since its other tests hold for every multiple.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import partial
from itertools import chain, product
from math import gcd, inf, nextafter, prod
from typing import NamedTuple

from greenquadrics import green, quadrics
from greenquadrics.errors import DegeneratePairingError
from greenquadrics.exact import QuadExt, Rational, _parts, rational_sign, to_float
from greenquadrics.green import class_plane, classify_plane, green_eq
from greenquadrics.mat2 import IDENTITY, Mat2, _canon, _det_is, _inner_is, _trace_is, inner, inverse_mat, outer
from greenquadrics.sampling import (
    CERTIFICATE_VALUES,
    grid_matrices,
    grid_values,
    lane_draws,
    rand_idempotent_rank1,
    rand_invertible,
    rand_mat,
    rand_nonzero_rational,
    rand_rank1,
    rand_rational,
    rand_singular_with_trace,
    rand_wide_rational,
    strata_draws,
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
_TAIL = 23  # default wide tail of a certified check
_CHART_TAIL = 1  # 64-bit chart points per sampled a
_PLANE_TAIL = 2  # 64-bit chart points per sampled hyperplane
_REPORT_TRIALS = 200  # sampled x of each order/section report
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


def _tally(suite, name, cases, holds, extra="", certified=0):
    """The one trial counter: one count per case, one failure per case at
    most.  A check that ran no case fails; a failing one names the index of
    its first failing case.  `certified` is the number of those cases that
    are points of a certificate's grid; `extra` may be a function of no
    argument, called after the last case.  An exception while case i is
    drawn or decided fails the check after i cases, with `case i raised E`
    (one `try` around the loop costs nothing per case).

    Checks that share their cases pass tuples instead, one entry per
    predicate of `name`, `holds`, `extra` and `certified`: every predicate
    is decided on every case of one pass and counted on its own, and a
    tuple of results comes back in the same order."""
    shared = type(holds) is tuple
    if not shared:
        name, holds, extra, certified = (name,), (holds,), (extra,), (certified,)
    counts = tuple([0, 0, -1] for _ in holds)  # failures, index of the first, of the last
    tests = tuple(zip(holds, counts))
    total, raised = 0, ""
    try:
        for case in cases:
            for test, count in tests:
                if not test(*case):
                    if not count[0]:
                        count[1] = total
                    count[0] += 1
                    count[2] = total
            total += 1
    except Exception as exc:
        raised = f"case {total} raised {type(exc).__name__}"
    results = []
    for name_k, (failures, first, last), extra_k, certified_k in zip(name, counts, extra, certified):
        if raised and last == total:  # a predicate that failed on the case that raised
            failures -= 1
        detail = f"{total - failures}/{total} trials ok"
        extra_k = extra_k() if callable(extra_k) else extra_k
        if extra_k:
            detail += f"; {extra_k}"
        if failures:
            detail += f"; first failure at case {first}"
        if raised:
            detail += f"; {raised}"
        results.append(CheckResult(suite, name_k, not (failures or raised) and total > 0, detail, certified_k))
    return tuple(results) if shared else results[0]


def _note(points, wide) -> str:
    return f"{points} grid points certify the identity, {wide} sampled at 64 bits"


def _grid_size(variables) -> int:
    return prod(map(len, variables))


def _certified(variables, tail):
    """The cases of a certificate: every point of the grid of `variables`
    (one grid value per variable), built as its first point is drawn, then
    the 64-bit points of `tail`."""
    yield from product(*variables)
    yield from tail


def _tail_samplers(variables, count):
    """The samplers of `count` 64-bit points of `variables`, in turn."""
    return (rand_wide_rational,) * (len(variables) * count)


def _wide_draws(variables, seed, trials, first=0):
    """One 64-bit point of `variables` per trial, each from the trial's stream."""
    return lane_draws(seed, first, trials, _tail_samplers(variables, 1))


def _tail_points(variables, values):
    """The points of `variables` that the values of `_tail_samplers` make."""
    values = iter(values)
    return zip(*[values] * len(variables))


def _identity_check(suite, name, holds, variables, seed, trials):
    """A certificate with one 64-bit point per trial, each from the trial's stream."""
    points = _grid_size(variables)
    cases = _certified(variables, _wide_draws(variables, seed, trials))
    return _tally(suite, name, cases, holds, _note(points, trials), points)


# a chart parameter (s or t) of the injectivity and generator-line checks
_chart_coord = partial(rand_rational, span=6, max_den=4)


# --- exact ---------------------------------------------------------------


def quadext_field_holds(p, q, r) -> bool:
    """(pq)r = p(qr), p(q + r) = pq + pr and p p^-1 = 1 for p != 0: degree
    at most 2 in each rational part of p (p p^-1 = 1 once the norm of p is
    cleared) and 1 in each part of q and r."""
    if (p * q) * r != p * (q * r) or p * (q + r) != p * q + p * r:
        return False
    return not p or p * p.inverse() == QuadExt(1)


def check_quadext_field(seed, trials=_TAIL):
    """The parts of p on the degree-2 values, those of q and r on the
    degree-1 values: 9 x 16 grid points, then `trials` 64-bit triples.
    Each p and the element a are also compared with rationals: p equals a
    exactly when b = 0, the element a equals a, and neither equals a + 1."""
    variables = (CERTIFICATE_VALUES[2],) * 2 + (CERTIFICATE_VALUES[1],) * 4

    def holds(a, b, c, d, e, f):
        p, r, other = QuadExt(a, b), QuadExt(a), a + 1
        if (p == a) != (b == 0) or p == other or r != a or r == other:
            return False
        return quadext_field_holds(p, QuadExt(c, d), QuadExt(e, f))

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


def _near_root2(v):
    """(a, b) = +-(p/q, -1), of the sign of v, for the convergent p/q of sqrt2
    |v| - 1 steps past 1393/985 (v a `_NEAR_ROOT2` draw, 0 < |v| <= 4, so
    each pair is 1 in 8): on both sides of sqrt2, |a + b sqrt2| < 4e-7."""
    p, q = 1393, 985
    for _ in range(abs(v.numerator) - 1):
        p, q = p + 2 * q, p + q
    return (Rational(p, q), Rational(-1)) if v > 0 else (Rational(-p, q), Rational(1))


_NEAR_ROOT2 = partial(rand_nonzero_rational, span=4, max_den=1)


def check_quadext_sign(seed, trials=2000):
    """Every trial compares `sign()` with an expected sign: the float's away
    from zero, and an exact decision on the parts within 1e-6 of it (zero
    included, which must give 0).  Small parts come that near only at 0, so
    every eighth trial is a near-miss of `_near_root2`, of opposite parts.
    A rational value's float must also be `float` of it, the nearest double,
    and an irrational value must lie strictly between the doubles next to
    its float, decided on the parts."""

    def holds(a, b):
        p = QuadExt(a, b)
        f = to_float(p)
        expected = (1 if f > 0 else -1) if abs(f) > 1e-6 else _root2_sign(a, b)
        if b == 0:
            return p.sign() == expected and f == float(a)
        (an, ad), (bn, bd) = _parts(a), _parts(b)

        def above(g):
            # the sign of a + b sqrt2 - g for a double g = gn / gd, times ad gd bd > 0
            gn, gd = g.as_integer_ratio()
            return _root2_sign((an * gd - gn * ad) * bd, bn * ad * gd)

        return p.sign() == expected and above(nextafter(f, -inf)) == 1 and above(nextafter(f, inf)) == -1

    strata = [((_NEAR_ROOT2,), _near_root2)] + [((rand_rational, rand_rational), lambda a, b: (a, b))] * 7
    return _tally("exact", "quadext_sign_float_bridge", strata_draws(seed, trials, strata), holds)


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
    def holds(*a):
        return cayley_hamilton_holds(Mat2(*a))

    variables = (CERTIFICATE_VALUES[2],) * 4
    return _identity_check("core", "cayley_hamilton", holds, variables, seed, trials)


def check_det_trace_laws(seed, trials=_TAIL):
    def holds(*ab):
        return det_trace_laws_hold(Mat2(*ab[:4]), Mat2(*ab[4:]))

    variables = (CERTIFICATE_VALUES[1],) * 8
    return _identity_check("core", "det_multiplicative_trace_commutes", holds, variables, seed, trials)


def check_inner_vs_trace(seed, trials=_TAIL):
    def holds(*xy):
        return inner_is_trace_form(Mat2(*xy[:4]), Mat2(*xy[4:]))

    variables = (CERTIFICATE_VALUES[1],) * 8
    return _identity_check("core", "inner_product_equals_trace_form", holds, variables, seed, trials)


_E3 = Mat2(0, 0, 1, 0)  # x3 = <x, E3>


def check_traceless_singular_squares_to_zero(seed, trials=_TAIL):
    def holds(k, p, q):
        x = _nilpotent_point(k, p, q)
        # the other tests hold for every multiple of x: x3 = k q^2 pins its scale
        return x.trace() == 0 and x.det() == 0 and (x @ x).is_zero() and _inner_is(x, _E3, *_parts(k * q * q))

    return _identity_check("core", "traceless_singular_is_square_zero", holds, _NILPOTENT_CHART, seed, trials)


# --- green ---------------------------------------------------------------


def check_class_plane_membership(seed, trials=1000):
    def build(a, s_l, t_l, s_r, t_r):
        (l1, l2), (r1, r2) = class_plane("L", a), class_plane("R", a)
        x_l, x_r = l1 * s_l + l2 * t_l, r1 * s_r + r2 * t_r
        # each basis is independent: redraw (s, t) = (0, 0), never skip the test
        return None if x_l.is_zero() or x_r.is_zero() else (a, x_l, x_r)

    def holds(a, x_l, x_r):
        return green_eq("L", x_l, a) and green_eq("R", x_r, a)

    cases = strata_draws(seed, trials, [((rand_rank1,) + (rand_rational,) * 4, build)])
    return _tally("green", "class_plane_points_stay_in_class", cases, holds)


def check_d_is_rank(seed, trials=2000):
    def holds(a, b):
        d = green_eq("D", a, b)
        return d == (a.rank() == b.rank()) and green_eq("J", a, b) == d

    narrow = partial(rand_mat, span=3)
    return _tally("green", "d_class_is_rank_class", lane_draws(seed, 0, trials, (narrow, narrow)), holds)


def check_plane_classification_roundtrip(seed, trials=500):
    def build(rel, a, al, be, ga, de):
        # a random invertible change of basis inside the plane
        if al * de - be * ga == 0:
            return None
        b1, b2 = class_plane(rel, a)
        return a, rel, b1 * al + b2 * be, b1 * ga + b2 * de

    def holds(a, rel, v1, v2):
        verdict = classify_plane(v1, v2)
        return verdict.kind == rel and green_eq(rel, verdict.rep, a)

    samplers = (rand_rank1,) + (partial(rand_rational, span=4, max_den=3),) * 4
    cases = strata_draws(seed, trials, [(samplers, partial(build, rel)) for rel in "LR"])
    return _tally("green", "plane_classification_roundtrip", cases, holds)


def check_h_class_is_punctured_line(seed, trials=500):
    def holds(a, t, b):
        line = green.h_class_line(a)
        return green_eq("H", line.point(t), a) and green_eq("H", b, a) == line.contains(b)

    cases = lane_draws(seed, 0, trials, (rand_rank1, rand_nonzero_rational, rand_rank1))
    return _tally("green", "h_class_is_punctured_line", cases, holds)


# --- sets ----------------------------------------------------------------


def _idempotent_charts() -> tuple:
    """Every rank-1 idempotent lies on one of two charts, each never 0 and
    with trace 1 and det 0 identically: e(s, t) = (1, s)^T (1 - st, t) when
    its column space is not the x2 axis, [[0, 0], [u, 1]] when it is.  The
    entries of e(s, t) have degree at most 2 in s and 1 in t, so the tests
    of a product of two charted factors have degree at most 4 in s and 2
    in t: s runs over the degree-4 values, t and u over the degree-2 ones."""
    quartic, quadratic = CERTIFICATE_VALUES[4], CERTIFICATE_VALUES[2]
    first = (Mat2(1 - s * t, t, s * (1 - s * t), s * t) for s, t in product(quartic, quadratic))
    return (*first, *(Mat2(0, 0, u, 1) for u in quadratic))


# the number of points of `_idempotent_charts`, known before they are built
_IDEMPOTENT_CHART_POINTS = (len(CERTIFICATE_VALUES[4]) + 1) * len(CERTIFICATE_VALUES[2])


# The nilpotent chart: every nonzero nilpotent is k (p, q)^T (q, -p) =
# k [[pq, -p^2], [q^2, -pq]] for some rationals k, p, q.  x^2, tr x, det x
# and the cone identity have degree at most 2 in k and 4 in p and in q.
_NILPOTENT_CHART = (CERTIFICATE_VALUES[2], CERTIFICATE_VALUES[4], CERTIFICATE_VALUES[4])


def _nilpotent_point(k, p, q) -> Mat2:
    """k (pq, -p^2, q^2, -pq) from the ints of k, p and q: with p = a / e and
    q = b / e over e = pd qd, it is k (ab, -a^2, b^2, -ab) / e^2, reduced by
    the one gcd of `_canon`."""
    kn, kd = _parts(k)
    pn, pd = _parts(p)
    qn, qd = _parts(q)
    a, b, e = pn * qd, qn * pd, pd * qd
    kab = kn * a * b
    return _canon(kab, -kn * a * a, kn * b * b, -kab, kd * e * e)


def _nilpotent_chart() -> tuple:
    """The 75 grid points of `_NILPOTENT_CHART`."""
    return tuple(_nilpotent_point(*v) for v in _certified(_NILPOTENT_CHART, ()))


def idempotent_characterization_holds(x) -> bool:
    """x is a rank-1 idempotent exactly when tr x = 1 and det x = 0."""
    return (is_idempotent(x) and x.rank() == 1) == (_trace_is(x, 1, 1) and _det_is(x, 0, 1))


def nilpotent_characterization_holds(x) -> bool:
    """x is nilpotent exactly when tr x = 0 and det x = 0."""
    return is_nilpotent(x) == (_trace_is(x, 0, 1) and _det_is(x, 0, 1))


# The results of a pass that several checks share, kept for the `run_checks`
# call in progress only (None outside one), so that a check of that run
# reads its result instead of repeating the pass.  A module-level cache
# would outlive the call and hand a monkeypatched predicate the result of
# the unpatched one.
_shared_passes: ContextVar[dict | None] = ContextVar("_shared_passes", default=None)


def _characterizations(seed, trials):
    """Both characterizations, decided on every case of one shared pass, one
    matrix per case: every matrix with entries in {-2, ..., 2} / {1, 2},
    `trials` wider draws, then the grids of the idempotent charts and of the
    nilpotent chart.  Off the variety both sides of each characterization
    are false and the sampled cases test that half; on it, every test that
    should hold (x^2 = x with tr x = 1 and det x = 0, or x^2 = 0 with tr x =
    det x = 0) is a polynomial in the chart parameters of the degree the
    charts give, so each chart grid certifies it at every point of its
    chart.  The rank-1 test rests on x != 0 as well, which the idempotent
    charts fix by construction.  Each check's result is the same whether it
    runs alone or after the other in one `run_checks` call."""
    memo = _shared_passes.get()
    if memo is not None and (seed, trials) in memo:
        return memo[seed, trials]

    def cases():
        charts = chain(_idempotent_charts(), _nilpotent_chart())
        yield from ((x,) for x in grid_matrices(grid_values(span=2, dens=(1, 2))))
        yield from lane_draws(seed, 0, trials, (partial(rand_mat, span=4, max_den=4),))
        yield from ((x,) for x in charts)

    idempotents, nilpotents = _IDEMPOTENT_CHART_POINTS, _grid_size(_NILPOTENT_CHART)
    results = _tally(
        "sets",
        ("rank1_idempotent_iff_trace1_det0", "nilpotent_iff_trace0_det0"),
        cases(),
        (idempotent_characterization_holds, nilpotent_characterization_holds),
        (
            f"{idempotents} grid points certify the rank-1 idempotents on two charts",
            f"{nilpotents} grid points certify the nilpotents on one chart",
        ),
        (idempotents, nilpotents),
    )
    if memo is not None:
        memo[seed, trials] = results
    return results


def check_rank1_idempotent_characterization(seed, trials=10000):
    return _characterizations(seed, trials)[0]


def check_nilpotent_characterization(seed, trials=10000):
    return _characterizations(seed, trials)[1]


def check_inverse_set_theorem(seed, trials=500):
    """`trials` sampled rank-1 a.  Each test of a chart point has degree at
    most 2 in s and in t, so per a the 3 x 3 (s, t) grid certifies it for
    every (s, t); then `_CHART_TAIL` 64-bit points from the stream of a."""
    variables = (CERTIFICATE_VALUES[2],) * 2

    def chart_points(a, *tail):
        chart = inverse_chart(a)
        # (s, t) read back from the point, by the chart's public vectors: x c =
        # d0 + s d1 and r^T x = q0 + t q1 for c = q0 / |q0|^2, r = d0 / |d0|^2,
        # with d1 orthogonal to d0 and q1 to q0, so s = <x, m> / |m|^2 for
        # m = d1 q0^T and t likewise for m = d0 q1^T (|u v^T|^2 = |u|^2 |v|^2)
        read_s, read_t = (m / m.norm_sq() for m in (outer(chart.d1, chart.q0), outer(chart.d0, chart.q1)))
        for s, t in _certified(variables, _tail_points(variables, tail)):
            yield a, chart, read_s, read_t, s, t

    def holds(a, chart, read_s, read_t, s, t):
        x = chart_eval(chart, s, t)
        # the predicates decide values on content, so the storage form of
        # the point (lowest terms) is tested here
        if gcd(*x._n, x._d) != 1:
            return False
        return (
            is_inverse_pair(a, x)
            and inverse_membership(a, x)
            and _inner_is(x, read_s, *_parts(s))
            and _inner_is(x, read_t, *_parts(t))
        )

    strata = [((rand_rank1, *_tail_samplers(variables, _CHART_TAIL)), chart_points)]
    cases = chain.from_iterable(strata_draws(seed, trials, strata))
    points = _grid_size(variables) * trials
    note = f"{_note(points, _CHART_TAIL * trials)}; the grid covers every (s, t) of each of {trials} sampled a"
    return _tally("sets", "chart_points_are_inverses", cases, holds, note, points)


_MEMBERSHIP_CAP = 200


def check_membership_equals_triple_products(seed, trials=20):
    extra = ""
    if trials > _MEMBERSHIP_CAP:  # each trial sweeps the full 5^4 grid
        extra = f"random a capped at {_MEMBERSHIP_CAP} of {trials}"
        trials = _MEMBERSHIP_CAP

    def cases():
        grid = tuple(grid_matrices(grid_values(span=2)))
        draws = (a for (a,) in lane_draws(seed, 10_000, trials, (rand_rank1,)))
        for a in chain([Mat2(1, 0, 0, 0)], draws):
            for x in grid:
                yield a, x

    def holds(a, x):
        return inverse_membership(a, x) == is_inverse_pair(a, x)

    return _tally("sets", "section_membership_iff_inverse_pair", cases(), holds, extra)


def check_chart_bijectivity(seed, trials=500):
    def holds(a, s1, t1, s2, t2):
        chart = inverse_chart(a)
        same_point = chart_eval(chart, s1, t1) == chart_eval(chart, s2, t2)
        return same_point == ((s1, t1) == (s2, t2))

    cases = lane_draws(seed, 0, trials, (rand_rank1, _chart_coord, _chart_coord, _chart_coord, _chart_coord))
    return _tally("sets", "chart_is_injective", cases, holds)


def check_generator_lines(seed, trials=500):
    def holds(e, t):
        p1, p2 = generator_line("L1", e).point(t), generator_line("L2", e).point(t)
        on_surface = all(is_idempotent(p) and p.rank() == 1 for p in (p1, p2))
        return on_surface and green_eq("L", p1, e) and green_eq("R", p2, e)

    cases = lane_draws(seed, 0, trials, (rand_idempotent_rank1, _chart_coord))
    return _tally("sets", "generator_lines_lie_on_surface", cases, holds)


def check_line_combinatorics(seed, trials=50):
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

    # f == e is a redraw, not a skipped trial
    strata = [((rand_idempotent_rank1,) * 2, lambda e, f: None if f == e else (e, f))]
    return _tally("sets", "generator_line_combinatorics", strata_draws(seed, trials, strata), holds)


def check_natural_order_equivalence(seed, trials=1000):
    """The natural and minus orders agree on every pair of the 81 matrices
    with entries in {-1, 0, 1}, then on `trials` sampled pairs, one per
    trial in turn from four strata with denominators up to 9:

    0. two matrices with denominators 1 and 2 (mostly of equal rank 2);
    1. a rank-1 x against an invertible y;
    2. lam e y against an invertible y, for a rank-1 idempotent e: below
       y exactly when lam is 0 or 1, so one step off the below half;
    3. lam y against a rank-1 y, below exactly when lam is 0 or 1.

    Each trial of stratum 2 then certifies the below half at its y: for
    every rank-1 idempotent e, x = e y is below y in both orders.  On the
    grids of `_idempotent_charts` the tests that should hold are rank x = 1
    through det x = 0, `natural_le`'s 3x3 augmented determinant and
    `minus_le`'s dx det Y = dy polar(X, Y).  On x = e(s, t) y they have
    degree at most 4 in s and 2 in t, and at most 2 in u on the second
    chart.  The branches that rest on something nonzero are fixed by
    construction or sampled:

    - x != 0 and x != y: the charts are never 0, y is invertible and x
      has rank 1;
    - rank y = 2, the nonzero 2x2 minor of `natural_le`: y is drawn
      invertible;
    - the pivot of `_factor`: the entry x1 = (1 - st) y1 + t y3 on the first
      chart, and the entry x3 = u y1 + y3 on the second, whose first row is
      0, wherever they are nonzero; a pivot in the second column needs a
      zero first column, which the pairs of the small grid and the sampled
      pairs reach.
    """
    narrow, scale = partial(rand_mat, span=3, max_den=2), partial(rand_rational, span=3, max_den=2)

    def cases():
        charts = _idempotent_charts()
        grid = list(grid_matrices(grid_values(span=1)))
        yield from product(grid, grid)

        def below(y, e, lam):
            return chain([(e @ y * lam, y)], ((c @ y, y) for c in charts))

        strata = [
            ((narrow, narrow), lambda x, y: [(x, y)]),
            ((rand_rank1, rand_invertible), lambda x, y: [(x, y)]),
            ((rand_invertible, rand_idempotent_rank1, scale), below),
            ((rand_rank1, scale), lambda y, lam: [(y * lam, y)]),
        ]
        for pairs in strata_draws(seed, trials, strata):
            yield from pairs

    def holds(x, y):
        return natural_le(x, y) == minus_le(x, y)

    below = (trials + 1) // 4  # trials of stratum 2
    points = _IDEMPOTENT_CHART_POINTS * below
    note = f"{points} grid points certify e y <= y for every rank-1 idempotent e at each of {below} sampled invertible y"
    return _tally("sets", "natural_order_equals_minus_order", cases(), holds, note, points)


def nilpotent_cone_holds(x) -> bool:
    """(x2 - x3)^2 = |x|^2 for nilpotent x: the 45-degree cone."""
    return (x.x2 - x.x3) ** 2 == x.norm_sq()


def check_nilpotent_cone_identity(seed, trials=_TAIL):
    def holds(k, p, q):
        return nilpotent_cone_holds(_nilpotent_point(k, p, q))

    return _identity_check("sets", "nilpotent_cone_45_degree_identity", holds, _NILPOTENT_CHART, seed, trials)


def check_order_section_reports(seed, trials=10):
    """`trials` reports at sampled invertible a, then one at a = I, built in
    the case stream."""
    gaps = []  # whether the literal section disagrees, per generic a

    def cases():
        for i, (a,) in enumerate(lane_draws(seed, 40_000, trials, (rand_invertible,))):
            report = order_section_report(a, _REPORT_TRIALS, seed + i)
            gaps.append(report.agree_le_vs_section != _REPORT_TRIALS)
            yield report, False
        yield order_section_report(IDENTITY, _REPORT_TRIALS, seed), True

    def holds(report, identity):
        # below the identity the two sections coincide, so both columns agree
        if identity:
            return report.agree_le_vs_section == _REPORT_TRIALS == report.agree_le_vs_inv_section
        return report.agree_le_vs_inv_section == _REPORT_TRIALS and not report.counterexamples

    def note():
        return f"literal-section disagreement on {sum(gaps)}/{trials} generic a (expected)"

    return _tally("sets", "order_below_a_is_inverse_section", cases(), holds, note)


# --- sections ------------------------------------------------------------


def frame_residual_holds(x) -> bool:
    """bell_residual(x) = -2 det x: degree 2 in each entry.  Comparing values,
    not zeros, sees a scale slip that the singular slices cannot.  With the
    residual r / e, det x is -r / 2e."""
    rn, rd = _parts(bell_residual(x))
    return _det_is(x, -rn, 2 * rd)


def check_bell_identity(seed, trials=1000):
    """The frame residual certified on its grid, with a wide tail of at most
    the default `_TAIL` draws; and `trials` sampled singular matrices per
    level, each the first draw of the stream keyed (seed, level * trials + i)."""

    def singular():
        for li, lam in enumerate(_BELL_LEVELS):
            for (x,) in lane_draws(seed, li * trials, trials, (partial(rand_singular_with_trace, lam=lam),)):
                yield x, lam

    def holds(x, lam=None):
        if lam is None:
            return frame_residual_holds(x)
        return _trace_is(x, *_parts(lam)) and not bell_residual(x)

    variables, sampled, tail = (CERTIFICATE_VALUES[2],) * 4, len(_BELL_LEVELS) * trials, min(trials, _TAIL)
    points = _grid_size(variables)
    certified = ((Mat2(*x),) for x in _certified(variables, _wide_draws(variables, seed, tail, sampled)))
    cases = chain(certified, singular())
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
    def holds(lam, *x):
        return frame_roundtrip_holds(lam, Mat2(*x))

    variables = (CERTIFICATE_VALUES[1],) * 5  # lam, then the entries of x
    return _identity_check("sections", "frame_roundtrip_exact", holds, variables, seed, trials)


# The strata of a random hyperplane are 0 to 5: rank a = stratum % 3, and
# level lam = 0 when stratum // 3 is even.  These four have a != 0.
_NONZERO_A_STRATA = (1, 2, 4, 5)


def _hyperplane_samplers(stratum) -> tuple:
    """The samplers of a hyperplane of `stratum`, in turn: a nonzero level
    unless it is 0, then an a of rank 1 or 2 unless it is 0."""
    level = () if (stratum // 3) % 2 == 0 else (partial(rand_nonzero_rational, span=4, max_den=3),)
    return level + ((), (rand_rank1,), (rand_invertible,))[stratum % 3]


def _hyperplane(stratum, values) -> Hyperplane:
    """The hyperplane of `stratum` from the next values of the iterator
    `values`, drawn by `_hyperplane_samplers(stratum)`."""
    lam = Rational(0) if (stratum // 3) % 2 == 0 else next(values)
    return Hyperplane(next(values) if stratum % 3 else Mat2(0, 0, 0, 0), lam)


def check_classifier_agreement(seed, trials=1000):
    def holds(h, rank):
        verdict = classify_section(h.a, h.lam)
        if verdict.kind != _THEOREM_TABLE[(rank, h.lam == 0)]:
            return False
        return rank == 0 or _SECTION_TO_QUADRIC.get(verdict.kind) == classify_affine_quadric(restrict_quadric(h))

    # the rank comes from the stratum: classify_section reads a.rank() itself
    def build(stratum, *values):
        return _hyperplane(stratum, iter(values)), stratum % 3

    strata = [(_hyperplane_samplers(k), partial(build, k)) for k in range(6)]
    return _tally("sections", "table_matches_generic_classifier", strata_draws(seed, trials, strata), holds)


def restriction_holds(aq, pivot, t) -> bool:
    """The chart point of t moves the origin's non-pivot entries by t, and
    its det is the restricted quadric at t: degree at most 2 in each chart
    coordinate, since det is a product of two affine forms in each."""
    x = aq.point(t)
    origin = aq.origin
    # entry k of x - origin over dx do, cross-multiplied against t_i = tn / td
    dx, do = x._d, origin._d
    free = (xk * do - ok * dx for k, (xk, ok) in enumerate(zip(x._n, origin._n)) if k != pivot)
    moved = all(v * td == tn * dx * do for v, (tn, td) in zip(free, map(_parts, t)))
    return moved and _det_is(x, *_parts(aq.evaluate(t)))


def check_restriction_identity(seed, trials=100):
    """`trials` random hyperplanes, each in two charts.  The chart of
    `restrict_quadric` has constant term 0: its 27-point grid, then
    `_PLANE_TAIL` 64-bit points drawn from the plane's stream.  The same basis
    recentred at the first grid point off det = 0 has a nonzero constant
    term, so its 27-point grid certifies that term too."""
    variables = (CERTIFICATE_VALUES[2],) * 3

    def plane(stratum, *values):
        values = iter(values)
        h = _hyperplane(stratum, values)
        aq = restrict_quadric(h)
        pivot = chart_pivot(h.a)
        for t in _certified(variables, _tail_points(variables, values)):
            yield aq, pivot, t
        # det vanishes on no hyperplane, so by the certificate it is
        # nonzero at some point of the grid
        origin = next(x for x in map(aq.point, _certified(variables, ())) if x.det())
        recentred = quadric_on_chart(origin, aq.basis)
        for t in _certified(variables, ()):
            yield recentred, pivot, t

    tail = _tail_samplers(variables, _PLANE_TAIL)
    strata = [(_hyperplane_samplers(k) + tail, partial(plane, k)) for k in _NONZERO_A_STRATA]
    points = 2 * _grid_size(variables) * trials
    note = f"{_note(points, _PLANE_TAIL * trials)}; two charts per plane, one with a nonzero constant term"
    cases = chain.from_iterable(strata_draws(seed, trials, strata))
    return _tally("sections", "restriction_identity", cases, restriction_holds, note, points)


def _det3(T):
    """det of the 3x3 matrix T, a list of rows."""
    return (
        T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1])
        - T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0])
        + T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0])
    )


def check_affine_invariance(seed, trials=200):
    def build(stratum, *values):
        # rechart: new origin on the plane, new basis an invertible mix T
        values = iter(values)
        h = _hyperplane(stratum, values)
        T = [[next(values) for _ in range(3)] for _ in range(3)]
        return None if _det3(T) == 0 else (h, T, list(values))

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

    mix = (partial(rand_rational, span=2, max_den=2),) * 12  # T, then the shift
    strata = [(_hyperplane_samplers(k) + mix, partial(build, k)) for k in _NONZERO_A_STRATA]
    return _tally("sections", "affine_invariance_of_class", strata_draws(seed, trials, strata), holds)


def check_inverse_image_law(seed, trials=500):
    # the two built strata are x = inv(a) y for a known y; the check also
    # asks a x == y, so an inverse that is off by a factor cannot move them
    # off the section unseen
    def built(a, y):
        return a, inverse_mat(a) @ y, y

    def traced(a, y):
        # tr(a x) = 1 with x almost always nonsingular: only det rules x out
        return built(a, y + IDENTITY * ((1 - y.trace()) * _HALF))

    strata = [
        ((rand_invertible, rand_rank1), lambda a, x: (a, x, None)),
        ((rand_invertible, rand_idempotent_rank1), built),
        ((rand_invertible, partial(rand_mat, span=4, max_den=3)), traced),
    ]

    def holds(a, x, y):
        ax = a @ x
        if y is not None and ax != y:
            return False
        return section_membership(Hyperplane(a, 1), x) == (is_idempotent(ax) and ax.rank() == 1)

    return _tally("sections", "section_is_inverse_image_of_idempotents", strata_draws(seed, trials, strata), holds)


def check_symmetric_slice(seed, trials=_TAIL):
    """u u^T / |u|^2 for u on the degree-4 values, all nonzero and with mixed
    denominators, then `trials` 64-bit u."""
    variables = (CERTIFICATE_VALUES[4],) * 2

    def cases():
        center = hyperboloid_metrics(Rational(1)).center
        for u in _certified(variables, _wide_draws(variables, seed, trials)):
            yield *u, center

    def holds(u1, u2, center):
        x = outer((u1, u2), (u1, u2)) / (u1 * u1 + u2 * u2)
        d = x - center
        return inner(d, d) == _HALF and to_bell(x, Rational(1)).Z == QuadExt(0)

    points = _grid_size(variables)
    note = _note(points, trials)
    return _tally("sections", "symmetric_idempotents_form_radius_circle", cases(), holds, note, points)


def check_metrics_family(seed, trials=0):
    levels = [Rational(0), Rational(1), Rational(3), Rational(5), Rational(-7, 2)]

    def cases():
        base = hyperboloid_metrics(levels[0]).asymptotic_form
        for lam in levels:
            yield lam, base

    def holds(lam, base):
        m = hyperboloid_metrics(lam)
        return m.asymptotic_form == base and m.center == IDENTITY * (lam * _HALF) and m.radius_sq == lam * lam * _HALF

    return _tally("sections", "metrics_family_shares_axis_and_cone", cases(), holds)


SUITES: dict[str, list] = {
    "exact": [check_quadext_field, check_quadext_sign],
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
    `restriction_identity`, its sampled a for `chart_points_are_inverses`),
    and for `natural_order_equals_minus_order` its sampled pairs, a
    quarter of which carry a certificate grid at their invertible y.
    Exhaustive grids and certificate grids always run in full.  A check
    that runs no case at all is reported as a failure, never as a vacuous
    pass, and so is a check that raises, on its own line.  Checks that
    share a pass (the two characterizations) run it once per call.
    """
    names = available_suites() if not suites else list(suites)
    results = []
    token = _shared_passes.set({})
    try:
        for name in names:
            if name not in SUITES:
                raise ValueError(f"unknown suite {name!r}; choose from {available_suites()}")
            results.extend(fn(seed) if trials is None else fn(seed, trials) for fn in SUITES[name])
    finally:
        _shared_passes.reset(token)
    return results


def render_results(results) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
