import inspect
import textwrap
from math import lcm

import pytest

from greenquadrics import checks, mat2, quadrics, sections, semigroup
from greenquadrics.exact import QuadExt, _parts
from greenquadrics.mat2 import Mat2
from greenquadrics.sampling import CERTIFICATE_VALUES, grid_matrices, grid_values


@pytest.mark.parametrize("suite", checks.available_suites())
def test_suite_passes_at_reduced_scale(suite):
    # full-scale runs live in the acceptance module; here a fast smoke pass
    results = checks.run_checks([suite], seed=123, trials=60)
    assert results, suite
    for r in results:
        assert r.ok, r.line()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        checks.run_checks(["bogus"], seed=0)


def test_results_render_deterministically():
    a = checks.render_results(checks.run_checks(["exact"], seed=7, trials=40))
    b = checks.render_results(checks.run_checks(["exact"], seed=7, trials=40))
    assert a == b
    c = checks.render_results(checks.run_checks(["exact"], seed=8, trials=40))
    assert a.count("[pass]") == c.count("[pass]")


def test_zero_trials_is_not_a_pass():
    # a certificate's grid runs in full at any trial count; a sampled check runs nothing
    results = checks.run_checks(["exact"], seed=0, trials=0)
    assert any(not r.certified for r in results)
    for r in results:
        if r.certified:
            assert r.ok and r.detail.startswith(f"{r.certified}/{r.certified} trials ok;"), r.line()
        else:
            assert not r.ok and r.detail == "0/0 trials ok", r.line()


def test_membership_cap_is_reported():
    cap = checks._MEMBERSHIP_CAP
    r = checks.check_membership_equals_triple_products(5, cap + 1)
    assert r.ok
    assert r.detail == f"{(cap + 1) * 625}/{(cap + 1) * 625} trials ok; random a capped at {cap} of {cap + 1}"
    r = checks.check_membership_equals_triple_products(5, 3)
    assert r.detail == f"{4 * 625}/{4 * 625} trials ok"


def test_sign_check_tests_zero(monkeypatch):
    # a sign() that calls zero positive must fail the check
    sign = QuadExt.sign
    monkeypatch.setattr(QuadExt, "sign", lambda self: sign(self) if self else 1)
    r = checks.check_quadext_sign(42)
    passed, total = map(int, r.detail.split(" ")[0].split("/"))
    assert not r.ok and total == 2000 and passed < total


def test_bell_check_sees_a_scale_slip(monkeypatch):
    # a residual over 2d instead of 2d^2 is still zero on the variety
    residual = checks.bell_residual
    monkeypatch.setattr(checks, "bell_residual", lambda x: residual(x) * x._d)
    r = checks.check_bell_identity(42, trials=50)
    assert r.ok is False, r.line()


def test_restriction_check_sees_a_chart_clearing_slip(monkeypatch):
    # scaling u2 by lcm/e3 instead of lcm/e2 moves `point` and `evaluate` alike
    def clear(t):
        (u1, e1), (u2, e2), (u3, e3) = (_parts(v) for v in t)
        if e1 == e2 == e3:
            return u1, u2, u3, e1
        dd = lcm(e1, e2, e3)
        return u1 * (dd // e1), u2 * (dd // e3), u3 * (dd // e3), dd

    monkeypatch.setattr(sections, "_clear", clear)
    r = checks.check_restriction_identity(42, trials=8, points_per=25)
    assert r.ok is False, r.line()


def _mutant(func, old, new):
    """`func` recompiled from its source with the one text `old` replaced by
    `new`, in a copy of its module's namespace (the module is untouched)."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, f"{old!r} is not in {func.__name__} exactly once"
    namespace = dict(func.__globals__)
    exec(compile(src.replace(old, new), f"<mutant of {func.__name__}>", "exec"), namespace)
    return namespace[func.__name__]


def test_order_check_sees_a_dropped_denominator(monkeypatch):
    # solving Y^T w = R instead of dy R is still exact on integer y
    mutant = _mutant(semigroup.natural_le, "b1, b2, b3 = y._d * r0, y._d * r1, ", "b1, b2, b3 = r0, r1, ")
    monkeypatch.setattr(checks, "natural_le", mutant)
    r = checks.check_natural_order_equivalence(42)
    assert r.ok is False, r.line()


@pytest.mark.parametrize(
    "old,new",
    [
        ("- b2 * (y1 * c1 - y3 * c0)", "+ b2 * (y1 * c1 - y3 * c0)"),
        ("return u * b3 == b1 * w and v * b3 == b2 * w", "return True"),
        ("if c0 * y3 != c1 * y1 or c0 * y4 != c1 * y2:", "if False:"),
    ],
    ids=["cofactor-sign", "no-proportionality", "no-column-minors"],
)
def test_order_check_sees_a_minor_slip(monkeypatch, old, new):
    # one branch of the decision by minors: invertible y, rank-1 y right-hand
    # side, rank-1 y column spaces
    mutant = _mutant(semigroup.natural_le, old, new)
    monkeypatch.setattr(checks, "natural_le", mutant)
    r = checks.check_natural_order_equivalence(42)
    assert r.ok is False, r.line()


@pytest.mark.parametrize(
    "old,new",
    [
        ("return k == 0 and x == y", "return k == 0"),
        ("return x._d * (y1 * y4", "return (y1 * y4"),
        ("- x2 * y3 - y2 * x3)", "+ x2 * y3 - y2 * x3)"),
        ("if rx == 0:", "if False:"),
    ],
    ids=["equal-rank-not-equal", "dropped-denominator", "polar-sign", "no-zero-case"],
)
def test_order_check_sees_a_minus_order_slip(monkeypatch, old, new):
    # one branch of the minus order by rank cases: equal ranks, the
    # determinant identity (its scale and its polar form) and a zero x
    mutant = _mutant(semigroup.minus_le, old, new)
    monkeypatch.setattr(checks, "minus_le", mutant)
    r = checks.check_natural_order_equivalence(42)
    assert r.ok is False, r.line()


_CHARACTERIZATIONS = ("rank1_idempotent_iff_trace1_det0", "nilpotent_iff_trace0_det0")


def _characterizations_in_a_run():
    return [r for r in checks.run_checks(["sets"], seed=42, trials=300) if r.name in _CHARACTERIZATIONS]


def _characterizations_alone():
    return [
        checks.check_rank1_idempotent_characterization(42, 300),
        checks.check_nilpotent_characterization(42, 300),
    ]


def test_shared_pass_equals_each_check_alone(monkeypatch):
    fused = _characterizations_in_a_run()
    assert fused == _characterizations_alone() and all(r.ok for r in fused), fused
    # the pass lives for one run: a predicate patched after it is seen by the next run
    monkeypatch.setattr(checks, "is_nilpotent", lambda x: x.det() == 0)
    fused = _characterizations_in_a_run()
    assert fused == _characterizations_alone(), fused
    assert fused[0].ok and not fused[1].ok, fused
    assert checks._shared_passes.get() is None


def test_chart_grids_lie_on_their_varieties():
    idempotents, nilpotents = checks._idempotent_charts(), checks._nilpotent_chart()
    assert len(idempotents) == 5 * 3 + 3 and len(nilpotents) == 3 * 5 * 5
    assert all(semigroup.is_idempotent(e) and e.rank() == 1 for e in idempotents)
    # the second chart holds the idempotents whose column space is the x2 axis
    assert [e.x1 == e.x2 == 0 for e in idempotents].count(True) == 3
    assert all(semigroup.is_nilpotent(x) and not x.is_zero() for x in nilpotents)


@pytest.mark.parametrize(
    "name,func,old,new",
    [
        ("is_idempotent", semigroup.is_idempotent, "return x @ x == x", "return (x @ x).trace() == x.trace()"),
        ("is_idempotent", semigroup.is_idempotent, "return x @ x == x", "return x @ x == x * x.trace()"),
        ("is_nilpotent", semigroup.is_nilpotent, "return (x @ x).is_zero()", "return (x @ x).trace() == 0"),
        ("is_nilpotent", semigroup.is_nilpotent, "return (x @ x).is_zero()", "return x.det() == 0"),
        ("idempotent_characterization_holds", checks.idempotent_characterization_holds, "x.rank() == 1", "x.rank() <= 1"),
        ("idempotent_characterization_holds", checks.idempotent_characterization_holds, " and x.rank() == 1", ""),
    ],
    ids=["idempotent-trace-only", "idempotent-times-trace", "nilpotent-trace-only", "nilpotent-det-only", "rank-at-most-1", "no-rank-test"],
)
def test_characterization_checks_see_a_predicate_slip(monkeypatch, name, func, old, new):
    # each slip is patched at the binding the check reads, and fails the check of its predicate
    monkeypatch.setattr(checks, name, _mutant(func, old, new))
    check = checks.check_nilpotent_characterization if "nilpotent" in name else checks.check_rank1_idempotent_characterization
    r = check(42)
    assert r.ok is False, r.line()


def test_chart_check_sees_swapped_denominators(monkeypatch):
    # the swapped point (d0 + sn/td d1)(q0 + tn/sd q1)^T is still an inverse
    mutant = _mutant(
        semigroup.chart_eval,
        "sn, sd = _parts(s)\n    tn, td = _parts(t)",
        "sn, td = _parts(s)\n    tn, sd = _parts(t)",
    )
    monkeypatch.setattr(checks, "chart_eval", mutant)
    r = checks.check_inverse_set_theorem(42, trials=20)
    assert r.ok is False, r.line()


def test_chart_check_counts_each_point_once(monkeypatch):
    # a scaled point fails every test of the point; the count stays 0/N, not below
    chart_eval = checks.chart_eval
    monkeypatch.setattr(checks, "chart_eval", lambda chart, s, t: chart_eval(chart, s, t) * 2)
    r = checks.check_inverse_set_theorem(42, trials=20)
    note = "180 grid points certify the identity, 20 sampled at 64 bits; the grid covers every (s, t) of each of 20 sampled a"
    assert r.detail == f"0/200 trials ok; {note}; first failure at case 0", r.line()


def test_line_check_counts_each_trial_once(monkeypatch):
    # a doubled line point fails both idempotence tests; the count stays 0/N, not below
    generator_line = checks.generator_line

    class Doubled:
        def __init__(self, family, e):
            self.line = generator_line(family, e)

        def point(self, t):
            return self.line.point(t) * 2

    monkeypatch.setattr(checks, "generator_line", Doubled)
    r = checks.check_generator_lines(42, trials=50)
    assert r.detail == "0/50 trials ok; first failure at case 0", r.line()


def test_line_combinatorics_counts_each_trial_once(monkeypatch):
    # a meet on every pair fails all three line tests; the count stays 0/N, not below
    monkeypatch.setattr(checks, "line_meet", lambda g1, g2: Mat2(1, 0, 0, 0))
    r = checks.check_line_combinatorics(42)
    assert r.detail == "0/50 trials ok; first failure at case 0", r.line()


def test_rational_check_counts_each_trial_once(monkeypatch):
    # a value whose every result is 2/4 fails all four tests of a trial; the count stays 0/N
    class Unreduced:
        numerator, denominator = 2, 4

        def __add__(self, other):
            return self

        __sub__ = __mul__ = __truediv__ = __add__

    monkeypatch.setattr(checks, "rand_rational", lambda rng: Unreduced())
    r = checks.check_rational_canonical(42, trials=100)
    assert r.detail == "0/100 trials ok; first failure at case 0", r.line()


@pytest.mark.parametrize(
    "old,new",
    [
        ("if p1 * (q2 * r3", "if False and p1 * (q2 * r3"),
        ("(r1 * q2 - r2 * q1)", "(r1 * q2 + r2 * q1)"),
        ("m * diff._d", "m"),
    ],
    ids=["no-minor-test", "cramer-numerator", "dropped-denominator"],
)
def test_line_check_sees_a_meet_slip(monkeypatch, old, new):
    # one branch of the meet by minors: the consistency test, the Cramer
    # numerator of s and the denominator of b2 - b1 it is scaled by
    mutant = _mutant(semigroup.line_meet, old, new)
    monkeypatch.setattr(checks, "line_meet", mutant)
    r = checks.check_line_combinatorics(42)
    assert r.ok is False, r.line()


def _section_checks_with(monkeypatch, mutant):
    monkeypatch.setattr(quadrics, "classify_content", mutant)
    monkeypatch.setattr(sections, "classify_content", mutant)
    return (
        checks.check_classifier_agreement(42, trials=60),
        checks.check_affine_invariance(42),
    )


def test_section_checks_see_a_flipped_centre_sign(monkeypatch):
    # the sign of the border residue swaps one sheet for two and ellipsoids
    # for empty sets; the relabelling is consistent, so the invariance check
    # sees it only through the theorem table
    mutant = _mutant(quadrics.classify_content, "k = work[3][3]", "k = -work[3][3]")
    table, invariance = _section_checks_with(monkeypatch, mutant)
    assert table.ok is False, table.line()
    assert invariance.ok is False, invariance.line()


def test_section_checks_see_a_dropped_centre_test(monkeypatch):
    # without the non-central test a paraboloid reads as a centred quadric
    mutant = _mutant(quadrics.classify_content, "if any(work[i][3] for i in rest):", "if False:")
    table, invariance = _section_checks_with(monkeypatch, mutant)
    assert table.ok is False, table.line()
    assert invariance.ok is False, invariance.line()


# --- the certified checks at their default plan ----------------------------

# subtracting over unequal denominators scales each side by its own
# denominator: only entries with mixed denominators reach the slip
_SUB_SLIP = ("sa, sb = db // g, da // g", "sa, sb = da // g, db // g")


def test_cayley_hamilton_check_sees_a_subtraction_clearing_slip(monkeypatch):
    monkeypatch.setattr(Mat2, "__sub__", _mutant(Mat2.__sub__, *_SUB_SLIP))
    # an integer grid has one denominator per matrix and misses the slip
    assert all(checks.cayley_hamilton_holds(a) for a in grid_matrices(grid_values(span=1)))
    r = checks.check_cayley_hamilton(42)
    assert r.ok is False, r.line()


def test_det_trace_check_sees_swapped_product_terms(monkeypatch):
    # the (1,1) and (1,2) entries of a @ b take each other's a2 term
    mutant = _mutant(
        Mat2.__matmul__,
        "a1 * b1 + a2 * b3,\n        a1 * b2 + a2 * b4,",
        "a1 * b1 + a2 * b4,\n        a1 * b2 + a2 * b3,",
    )
    monkeypatch.setattr(Mat2, "__matmul__", mutant)
    r = checks.check_det_trace_laws(42)
    assert r.ok is False, r.line()


def test_inner_check_sees_a_denominator_slip(monkeypatch):
    # x's denominator squared in place of x's times y's: equal denominators hide it
    monkeypatch.setattr(checks, "inner", _mutant(mat2.inner, "x._d * y._d", "x._d * x._d"))
    r = checks.check_inner_vs_trace(42)
    assert r.ok is False, r.line()


def test_restriction_check_sees_an_evaluation_clearing_slip(monkeypatch):
    # the linear term over D^2 instead of D: integer chart points hide it
    mutant = _mutant(sections.AffineQuadric3.evaluate, "+ dd * (b1 * u1", "+ (b1 * u1")
    monkeypatch.setattr(sections.AffineQuadric3, "evaluate", mutant)
    r = checks.check_restriction_identity(42)
    assert r.ok is False, r.line()


def test_restriction_check_sees_a_constant_term_slip(monkeypatch):
    # the constant term over D instead of D^2: the chart of every plane has
    # constant term 0, and only the recentred one reaches the slip
    mutant = _mutant(sections.AffineQuadric3.evaluate, "c * dd * dd", "c * dd")
    monkeypatch.setattr(sections.AffineQuadric3, "evaluate", mutant)
    r = checks.check_restriction_identity(42)
    assert r.ok is False, r.line()
    # 26 of the 27 recentred grid points of each plane have a denominator
    assert r.detail.startswith("3000/5600 trials ok"), r.line()


def test_frame_check_sees_a_dropped_half(monkeypatch):
    # twice the residual is still zero on every singular slice: only the
    # certified -2 det identity sees it
    monkeypatch.setattr(checks, "bell_residual", _mutant(sections.bell_residual, "2 * x._d * x._d", "x._d * x._d"))
    r = checks.check_bell_identity(42)
    assert r.ok is False, r.line()


def test_quadext_check_sees_a_sum_over_one_denominator(monkeypatch):
    # a sum over d1 instead of d1 d2 is right whenever d2 = 1
    monkeypatch.setattr(QuadExt, "__add__", _mutant(QuadExt.__add__, "o._q * d1, d1 * d2)", "o._q * d1, d1)"))
    r = checks.check_quadext_field(42)
    assert r.ok is False, r.line()


def test_frame_roundtrip_check_sees_a_swapped_coordinate(monkeypatch):
    # Y from x2 - x3 is still rational, and right whenever x3 = 0
    monkeypatch.setattr(checks, "to_bell", _mutant(sections.to_bell, "Y=_quadext(0, n2 + n3", "Y=_quadext(0, n2 - n3"))
    r = checks.check_bell_roundtrip(42)
    assert r.ok is False, r.line()


def test_chart_check_sees_one_denominator_twice(monkeypatch):
    # s's denominator in place of t's: right whenever the two are equal, as
    # on the diagonal of the grid
    monkeypatch.setattr(checks, "chart_eval", _mutant(semigroup.chart_eval, "f * td)", "f * sd)"))
    r = checks.check_inverse_set_theorem(42)
    assert r.ok is False, r.line()


def test_inverse_image_check_sees_an_inverse_off_by_its_content(monkeypatch):
    # adj(a / c) d / det(a / c) is c inv(a): still an inverse's direction, and
    # a x stays on the same line as the idempotent or trace-1 y it was built from
    monkeypatch.setattr(checks, "inverse_mat", _mutant(mat2.inverse_mat, "c * det)", "det)"))
    r = checks.check_inverse_image_law(42)
    assert r.ok is False, r.line()


def test_det_checks_see_a_skipped_second_gcd(monkeypatch):
    # without h = gcd(num / g, d) a determinant such as 4 / 4 stays 2 / 2
    monkeypatch.setattr(Mat2, "det", _mutant(Mat2.det, "h = gcd(num, g)", "h = 1"))
    r = checks.check_det_trace_laws(42)
    assert r.ok is False, r.line()


@pytest.mark.parametrize("factor", ["x0, x1", "y0, y1"], ids=["row-factor", "column-factor"])
def test_chart_check_sees_a_dropped_factor_gcd(monkeypatch, factor):
    # a point reduced by one factor's gcd only has the right value in the
    # wrong storage form, so it compares unequal to the same inverse
    mutant = _mutant(semigroup.chart_eval, f"g = gcd({factor}, den)", "g = 1")
    monkeypatch.setattr(checks, "chart_eval", mutant)
    r = checks.check_inverse_set_theorem(42)
    assert r.ok is False, r.line()


def test_newly_certified_checks_pass_across_seeds():
    for seed in range(6):
        for check in (checks.check_quadext_field, checks.check_inverse_set_theorem, checks.check_bell_roundtrip):
            r = check(seed)
            assert r.ok and r.certified, r.line()


def test_a_fail_line_names_its_first_failing_case(monkeypatch):
    monkeypatch.setattr(Mat2, "__sub__", _mutant(Mat2.__sub__, *_SUB_SLIP))
    r = checks.check_cayley_hamilton(42)
    first = next(i for i, a in enumerate(grid_matrices(CERTIFICATE_VALUES[2])) if not checks.cayley_hamilton_holds(a))
    assert r.line().endswith(f"; first failure at case {first}"), r.line()
    assert r.detail.count("first failure") == 1
    monkeypatch.undo()
    assert "first failure" not in checks.check_cayley_hamilton(42).line()
