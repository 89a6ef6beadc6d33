from math import lcm

import pytest

from greenquadrics import checks, sections
from greenquadrics.exact import QuadExt, _parts


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
    results = checks.run_checks(["exact"], seed=0, trials=0)
    assert results
    for r in results:
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
