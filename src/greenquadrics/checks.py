"""Seeded property suites behind `gq check`.

Each check re-derives one of the package's structural identities from
scratch (exact arithmetic, no tolerances) and reports a pass/fail line.
This module holds the only copy of each property check: criteria 1-7 of
`tests/test_acceptance.py` call the `check_*` functions below with their
own seeds and trial counts and assert `.ok`, and the test keeps only the
assertions no check makes.  Output is a pure function of (suite
selection, seed, trial counts).

Membership in an inverse set or a hyperplane section is always decided by
the shipped predicates (`inverse_membership`, `section_membership`) and
compared with an independent one (`is_inverse_pair`, the idempotent test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from greenquadrics import green, quadrics
from greenquadrics.errors import DegeneratePairingError
from greenquadrics.exact import QuadExt, Rational, rational_sign, to_float
from greenquadrics.green import class_plane, classify_plane, green_eq
from greenquadrics.mat2 import IDENTITY, Mat2, inner, inverse_mat, outer
from greenquadrics.sampling import (
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
    rng_for,
)
from greenquadrics.sections import (
    Hyperplane,
    SectionClass,
    bell_residual,
    classify_affine_quadric,
    classify_section,
    from_bell,
    hyperboloid_metrics,
    quadric_on_chart,
    restrict_quadric,
    section_membership,
    to_bell,
    trace_functional,
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

__all__ = ["CheckResult", "SUITES", "available_suites", "run_checks", "render_results"]

_HALF = Rational(1, 2)
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


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        return f"[{mark}] {self.suite}/{self.name}: {self.detail}"


def _result(suite, name, failures, total, extra="") -> CheckResult:
    ok = failures == 0 and total > 0
    detail = f"{total - failures}/{total} trials ok"
    if extra:
        detail += f"; {extra}"
    return CheckResult(suite, name, ok, detail)


# --- exact ---------------------------------------------------------------


def check_rational_canonical(seed, trials=2000):
    from math import gcd

    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        a = rand_rational(rng)
        b = rand_nonzero_rational(rng)
        for v in (a + b, a - b, a * b, a / b):
            if v.denominator <= 0 or gcd(abs(v.numerator), v.denominator) != 1:
                failures += 1
    return _result("exact", "rational_canonical_form", failures, trials)


def check_quadext_field(seed, trials=2000):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        p = QuadExt(rand_rational(rng), rand_rational(rng))
        q = QuadExt(rand_rational(rng), rand_rational(rng))
        r = QuadExt(rand_rational(rng), rand_rational(rng))
        ok = (p * q) * r == p * (q * r)
        ok = ok and p * (q + r) == p * q + p * r
        if p:
            ok = ok and p * p.inverse() == QuadExt(1)
        if not ok:
            failures += 1
    return _result("exact", "quadext_field_axioms", failures, trials)


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
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        a, b = rand_rational(rng), rand_rational(rng)
        p = QuadExt(a, b)
        f = to_float(p)
        if abs(f) > 1e-6:
            expected = 1 if f > 0 else -1
        else:
            expected = _root2_sign(a, b)
        if p.sign() != expected:
            failures += 1
    return _result("exact", "quadext_sign_float_bridge", failures, trials)


# --- core ----------------------------------------------------------------


def check_cayley_hamilton(seed, trials=10000):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        a = rand_mat(rng)
        ch = a @ a - a * a.trace() + IDENTITY * a.det()
        if not ch.is_zero():
            failures += 1
    return _result("core", "cayley_hamilton", failures, trials)


def check_det_trace_laws(seed, trials=2000):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        a, b = rand_mat(rng), rand_mat(rng)
        if (a @ b).det() != a.det() * b.det():
            failures += 1
        elif (a @ b).trace() != (b @ a).trace():
            failures += 1
    return _result("core", "det_multiplicative_trace_commutes", failures, trials)


def check_inner_vs_trace(seed, trials=2000):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        x, y = rand_mat(rng), rand_mat(rng)
        if inner(x, y) != (x.transpose() @ y).trace():
            failures += 1
    return _result("core", "inner_product_equals_trace_form", failures, trials)


def check_traceless_singular_squares_to_zero(seed, trials=2000):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        x = rand_nilpotent(rng)
        if x.trace() != 0 or x.det() != 0 or not (x @ x).is_zero():
            failures += 1
    return _result("core", "traceless_singular_is_square_zero", failures, trials)


# --- green ---------------------------------------------------------------


def check_class_plane_membership(seed, trials=1000):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        a = rand_rank1(rng)
        for rel in ("L", "R"):
            b1, b2 = class_plane(rel, a)
            # b1, b2 are independent: redraw (s, t) = (0, 0), never skip the test
            while True:
                s, t = rand_rational(rng), rand_rational(rng)
                x = b1 * s + b2 * t
                if not x.is_zero():
                    break
            if not green_eq(rel, x, a):
                failures += 1
    return _result("green", "class_plane_points_stay_in_class", failures, trials)


def check_d_is_rank(seed, trials=2000):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        a, b = rand_mat(rng, span=3), rand_mat(rng, span=3)
        d = green_eq("D", a, b)
        if d != (a.rank() == b.rank()) or green_eq("J", a, b) != d:
            failures += 1
    return _result("green", "d_class_is_rank_class", failures, trials)


def check_plane_classification_roundtrip(seed, trials=500):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        a = rand_rank1(rng)
        rel = "L" if i % 2 == 0 else "R"
        b1, b2 = class_plane(rel, a)
        # random invertible change of basis inside the plane
        while True:
            al, be, ga, de = (rand_rational(rng, 4, 3) for _ in range(4))
            if al * de - be * ga != 0:
                break
        v1 = b1 * al + b2 * be
        v2 = b1 * ga + b2 * de
        verdict = classify_plane(v1, v2)
        if verdict.kind != rel or not green_eq(rel, verdict.rep, a):
            failures += 1
    return _result("green", "plane_classification_roundtrip", failures, trials)


def check_h_class_is_punctured_line(seed, trials=500):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        a = rand_rank1(rng)
        line = green.h_class_line(a)
        t = rand_nonzero_rational(rng)
        if not green_eq("H", line.point(t), a):
            failures += 1
            continue
        b = rand_rank1(rng)
        if green_eq("H", b, a) != line.contains(b):
            failures += 1
    return _result("green", "h_class_is_punctured_line", failures, trials)


# --- sets ----------------------------------------------------------------


def _rank1_idem_grid_values():
    return grid_values(span=2, dens=(1, 2))


def check_rank1_idempotent_characterization(seed, trials=10000):
    failures = 0
    total = 0
    for x in grid_matrices(_rank1_idem_grid_values()):
        total += 1
        lhs = is_idempotent(x) and x.rank() == 1
        rhs = x.trace() == 1 and x.det() == 0
        if lhs != rhs:
            failures += 1
    for i in range(trials):
        rng = rng_for(seed, i)
        x = rand_mat(rng, span=4, max_den=4)
        lhs = is_idempotent(x) and x.rank() == 1
        rhs = x.trace() == 1 and x.det() == 0
        if lhs != rhs:
            failures += 1
    return _result("sets", "rank1_idempotent_iff_trace1_det0", failures, total + trials)


def check_nilpotent_characterization(seed, trials=10000):
    failures = 0
    total = 0
    for x in grid_matrices(_rank1_idem_grid_values()):
        total += 1
        if is_nilpotent(x) != (x.trace() == 0 and x.det() == 0):
            failures += 1
    for i in range(trials):
        rng = rng_for(seed, i)
        x = rand_mat(rng, span=4, max_den=4)
        if is_nilpotent(x) != (x.trace() == 0 and x.det() == 0):
            failures += 1
    return _result("sets", "nilpotent_iff_trace0_det0", failures, total + trials)


def check_inverse_set_theorem(seed, trials=500, points_per=20):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        a = rand_rank1(rng)
        chart = inverse_chart(a)
        # (s, t) read back from the point, by the chart's public vectors: x c =
        # d0 + s d1 and r^T x = q0 + t q1 for c = q0 / |q0|^2, r = d0 / |d0|^2,
        # with d1 orthogonal to d0 and q1 to q0, so s = <x, m> / |m|^2 for
        # m = d1 q0^T and t likewise for m = d0 q1^T (|u v^T|^2 = |u|^2 |v|^2)
        read_s, read_t = (m / m.norm_sq() for m in (outer(chart.d1, chart.q0), outer(chart.d0, chart.q1)))
        for _ in range(points_per):
            s, t = rand_rational(rng, 6, 4), rand_rational(rng, 6, 4)
            x = chart_eval(chart, s, t)
            # one count per point, so a bad chart cannot read below 0/N
            if not (
                is_inverse_pair(a, x)
                and inverse_membership(a, x)
                and inner(x, read_s) == s
                and inner(x, read_t) == t
            ):
                failures += 1
    return _result("sets", "chart_points_are_inverses", failures, trials * points_per)


_MEMBERSHIP_CAP = 200


def check_membership_equals_triple_products(seed, trials=20):
    failures = 0
    total = 0
    extra = ""
    if trials > _MEMBERSHIP_CAP:  # each trial sweeps the full 5^4 grid
        extra = f"random a capped at {_MEMBERSHIP_CAP} of {trials}"
        trials = _MEMBERSHIP_CAP
    grid = grid_values(span=2)
    mats = [Mat2(1, 0, 0, 0)] + [rand_rank1(rng_for(seed, 10_000 + i)) for i in range(trials)]
    for a in mats:
        for x in grid_matrices(grid):
            total += 1
            if inverse_membership(a, x) != is_inverse_pair(a, x):
                failures += 1
    return _result("sets", "section_membership_iff_inverse_pair", failures, total, extra)


def check_chart_bijectivity(seed, trials=500):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        a = rand_rank1(rng)
        chart = inverse_chart(a)
        s1, t1 = rand_rational(rng, 6, 4), rand_rational(rng, 6, 4)
        s2, t2 = rand_rational(rng, 6, 4), rand_rational(rng, 6, 4)
        same_params = (s1, t1) == (s2, t2)
        same_point = chart_eval(chart, s1, t1) == chart_eval(chart, s2, t2)
        if same_point != same_params:
            failures += 1
    return _result("sets", "chart_is_injective", failures, trials)


def check_generator_lines(seed, trials=500):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        e = rand_idempotent_rank1(rng)
        t = rand_rational(rng, 6, 4)
        g1 = generator_line("L1", e)
        g2 = generator_line("L2", e)
        p1, p2 = g1.point(t), g2.point(t)
        on_surface = all(is_idempotent(p) and p.rank() == 1 for p in (p1, p2))
        if not (on_surface and green_eq("L", p1, e) and green_eq("R", p2, e)):
            failures += 1
    return _result("sets", "generator_lines_lie_on_surface", failures, trials)


def check_line_combinatorics(seed, trials=50):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        e = rand_idempotent_rank1(rng)
        f = rand_idempotent_rank1(rng)
        while f == e:  # a redraw, not a skipped trial
            f = rand_idempotent_rank1(rng)
        same_family_l = line_meet(generator_line("L1", e), generator_line("L1", f))
        same_family_r = line_meet(generator_line("L2", e), generator_line("L2", f))
        if green_eq("L", e, f):
            # same L-class: the L1 lines coincide, no unique meet
            if same_family_l is not None:
                failures += 1
        elif same_family_l is not None:
            failures += 1
        if green_eq("R", e, f):
            if same_family_r is not None:
                failures += 1
        elif same_family_r is not None:
            failures += 1
        # opposite families: unique meet exactly when the pairing is regular
        cross = line_meet(generator_line("L1", e), generator_line("L2", f))
        try:
            expected = idempotent_from_spaces(green.colspace(f), green.rowspace(e))
        except DegeneratePairingError:
            expected = None
        if cross != expected:
            failures += 1
        elif cross is not None and not (is_idempotent(cross) and cross.rank() == 1):
            failures += 1
    return _result("sets", "generator_line_combinatorics", failures, trials)


def check_natural_order_equivalence(seed, trials=10000):
    failures = 0
    total = 0
    grid = list(grid_matrices(grid_values(span=1)))
    for x in grid:
        for y in grid:
            total += 1
            if natural_le(x, y) != minus_le(x, y):
                failures += 1
    for i in range(trials):
        rng = rng_for(seed, i)
        mode = i % 4
        if mode == 0:
            x, y = rand_mat(rng, 3, 2), rand_mat(rng, 3, 2)
        elif mode == 1:
            x, y = rand_rank1(rng), rand_invertible(rng)
        elif mode == 2:
            y = rand_invertible(rng)
            f = rand_idempotent_rank1(rng)
            x = f @ y
        else:
            y = rand_rank1(rng)
            x = y * rand_rational(rng, 3, 2)
        if natural_le(x, y) != minus_le(x, y):
            failures += 1
    return _result("sets", "natural_order_equals_minus_order", failures, total + trials)


def check_nilpotent_cone_identity(seed, trials=2000):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        x = rand_nilpotent(rng)
        lhs = (x.x2 - x.x3) ** 2
        if lhs != x.norm_sq():
            failures += 1
    return _result("sets", "nilpotent_cone_45_degree_identity", failures, trials)


def check_order_section_reports(seed, trials=10, per_report=200):
    failures = 0
    identity_gap = 0
    for i in range(trials):
        rng = rng_for(seed, 40_000 + i)
        a = rand_invertible(rng)
        report = order_section_report(a, per_report, seed + i)
        if report.agree_le_vs_inv_section != per_report or report.counterexamples:
            failures += 1
        if report.agree_le_vs_section != per_report:
            identity_gap += 1
    report_i = order_section_report(IDENTITY, per_report, seed)
    if report_i.agree_le_vs_section != per_report or report_i.agree_le_vs_inv_section != per_report:
        failures += 1
    return _result(
        "sets",
        "order_below_a_is_inverse_section",
        failures,
        trials + 1,
        extra=f"literal-section disagreement on {identity_gap}/{trials} generic a (expected)",
    )


# --- sections ------------------------------------------------------------


def check_bell_identity(seed, trials=1000):
    failures = 0
    total = 0
    for li, lam in enumerate(_BELL_LEVELS):
        for i in range(trials):
            rng = rng_for(seed, li * trials + i)
            x = rand_singular_with_trace(rng, lam)
            total += 1
            if x.trace() != lam or bell_residual(x) != 0:
                failures += 1
            y = rand_invertible(rng)
            total += 1
            # the frame residual is -2 det everywhere: comparing values, not zeros, sees a scale slip
            if bell_residual(y) != -2 * y.det():
                failures += 1
    return _result("sections", "frame_identity_exact", failures, total)


def check_bell_roundtrip(seed, trials=1000):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        lam = rand_rational(rng, 4, 3)
        x = rand_mat(rng, 4, 3)
        # project onto the hyperplane trace = lam
        shift = (lam - x.trace()) * _HALF
        x = x + IDENTITY * shift
        p = to_bell(x, lam)
        back = from_bell(p)
        if not back.is_rational() or back.to_mat2() != x or to_bell(back, lam) != p:
            failures += 1
    return _result("sections", "frame_roundtrip_exact", failures, trials)


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
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        h = _random_hyperplane(rng, i)
        verdict = classify_section(h.a, h.lam)
        # the rank comes from the stratum: classify_section reads a.rank() itself
        rank = i % 3
        if verdict.kind != _THEOREM_TABLE[(rank, h.lam == 0)]:
            failures += 1
            continue
        if rank == 0:
            continue
        generic = classify_affine_quadric(restrict_quadric(h))
        if _SECTION_TO_QUADRIC.get(verdict.kind) != generic:
            failures += 1
    return _result("sections", "table_matches_generic_classifier", failures, trials)


def _random_hyperplane_nonzero_a(rng, i) -> Hyperplane:
    # cycle rank 1/2 crossed with zero/nonzero level
    return _random_hyperplane(rng, (1, 2, 4, 5)[i % 4])


def check_restriction_identity(seed, trials=100, points_per=100):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        h = _random_hyperplane_nonzero_a(rng, i)
        aq = restrict_quadric(h)
        pivot = next(k for k, w in enumerate(trace_functional(h.a)) if w)
        for _ in range(points_per):
            t = [rand_rational(rng, 4, 3) for _ in range(3)]
            x = aq.point(t)
            # the chart keeps the non-pivot coordinates: read t back from the entries
            free = [v for k, v in enumerate(x.entries) if k != pivot]
            if free != t or x.det() != aq.evaluate(t):
                failures += 1
    return _result("sections", "restriction_identity", failures, trials * points_per)


def check_affine_invariance(seed, trials=200):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
        h = _random_hyperplane_nonzero_a(rng, i)
        aq = restrict_quadric(h)
        base_class = classify_affine_quadric(aq)
        # the theorem table is the oracle for the class itself
        table_class = _SECTION_TO_QUADRIC[classify_section(h.a, h.lam).kind]
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
        shift = [rand_rational(rng, 2, 2) for _ in range(3)]
        new_origin = aq.point(shift)
        new_basis = tuple(
            aq.basis[0] * T[0][j] + aq.basis[1] * T[1][j] + aq.basis[2] * T[2][j]
            for j in range(3)
        )
        Q, b, c = quadric_on_chart(new_origin, new_basis)
        if base_class != table_class or quadrics.classify_quadric(Q, b, c) != base_class:
            failures += 1
    return _result("sections", "affine_invariance_of_class", failures, trials)


def check_inverse_image_law(seed, trials=500):
    failures = 0
    for i in range(trials):
        rng = rng_for(seed, i)
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
        lhs = section_membership(Hyperplane(a, 1), x)
        ax = a @ x
        rhs = is_idempotent(ax) and ax.rank() == 1
        if lhs != rhs:
            failures += 1
    return _result("sections", "section_is_inverse_image_of_idempotents", failures, trials)


def check_symmetric_slice(seed, trials=500):
    center = hyperboloid_metrics(Rational(1)).center
    failures = 0
    for i in range(trials):
        u = _rand_int_vector(rng_for(seed, i), 5)
        x = outer(u, u) / (u[0] * u[0] + u[1] * u[1])
        d = x - center
        if inner(d, d) != _HALF or to_bell(x, Rational(1)).Z != QuadExt(0):
            failures += 1
    return _result("sections", "symmetric_idempotents_form_radius_circle", failures, trials)


def check_metrics_family(seed, trials=0):
    failures = 0
    levels = [Rational(0), Rational(1), Rational(3), Rational(5), Rational(-7, 2)]
    base = hyperboloid_metrics(levels[0]).asymptotic_form
    for lam in levels:
        m = hyperboloid_metrics(lam)
        if (
            m.asymptotic_form != base
            or m.center != IDENTITY * (lam * _HALF)
            or m.radius_sq != lam * lam * _HALF
        ):
            failures += 1
    return _result("sections", "metrics_family_shares_axis_and_cone", failures, len(levels))


SUITES: dict[str, list[Callable]] = {
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

    `trials` overrides each check's default randomized-trial count.
    Exhaustive grid components always run in full.  A check that runs no
    trials at all is reported as a failure, never as a vacuous pass.
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
