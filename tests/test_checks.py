import inspect
import sys
import tracemalloc
from functools import partial

import pytest
from faults import BY_ID, FAULTS, _resolve, install

from greenquadrics import checks, cli, semigroup
from greenquadrics.exact import rational_sign
from greenquadrics.mat2 import Mat2
from greenquadrics.sampling import (
    CERTIFICATE_VALUES,
    grid_matrices,
    grid_values,
    rand_mat,
    rand_nonzero_rational,
    rand_rational,
)


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


def _draws_peak(trials, samplers) -> int:
    """Peak traced bytes of consuming the cases of `_draws` one at a time."""
    tracemalloc.start()
    try:
        for _ in checks._draws(1, trials, *samplers):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "samplers",
    [(partial(rand_mat, span=4, max_den=4),), (rand_rational, rand_nonzero_rational)],
    ids=["characterization", "rational-pair"],
)
def test_draws_memory_does_not_grow_with_trials(samplers):
    # the lanes hold one block of offsets at a time, whatever the trial
    # count.  Samplers that reject are left out: the scalar redraws of
    # their rejected indices fill CPython's free lists by a few KB per
    # thousand trials until a collection empties them, which is bounded
    # but not flat
    small = _draws_peak(2_000, samplers)
    large = _draws_peak(20_000, samplers)
    assert large - small < 64 * 1024, (small, large)


# --- the fault table --------------------------------------------------------


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.id)
def test_fault_is_killed(monkeypatch, fault):
    calls = install(monkeypatch, fault)
    results = [getattr(checks, name)(42, *(() if trials is None else (trials,))) for name, trials in fault.runs]
    assert calls[0], f"{fault.id}: the mutant never ran, so no binding of it is read"
    assert {r.name for r in results if not r.ok} == set(fault.fails), [r.line() for r in results]


def test_fault_table_names_checks_and_results_of_the_suites():
    functions = {fn.__name__ for fns in checks.SUITES.values() for fn in fns}
    names = {r.name for r in checks.run_checks(seed=0, trials=1)}
    assert len(BY_ID) == len(FAULTS)
    for fault in FAULTS:
        assert {name for name, _ in fault.runs} <= functions, fault.id
        assert fault.fails and set(fault.fails) <= names, fault.id


def test_install_leaves_no_binding_of_its_target(monkeypatch):
    # each `from ... import` copy and each class alias such as
    # `QuadExt.__radd__ = __add__` holds the mutant, read here by `getattr`
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("greenquadrics.")]
    classes = [c for m in modules for _, c in inspect.getmembers(m, inspect.isclass) if c.__module__ == m.__name__]
    for fault in {fault.target: fault for fault in FAULTS}.values():
        target = getattr(*_resolve(fault.target))
        install(monkeypatch, fault)
        left = [(owner, name) for owner in modules + classes for name in dir(owner) if getattr(owner, name) is target]
        assert not left, (fault.target, left)
        monkeypatch.undo()


def test_sign_check_decides_opposite_parts_exactly(monkeypatch):
    # small parts come within 1e-6 of 0 only at 0; the near-misses of
    # `_near_root2` reach the a^2 vs 2 b^2 branch
    root2_sign, opposite = checks._root2_sign, []

    def counted(a, b):
        opposite.append(rational_sign(a) * rational_sign(b) < 0)
        return root2_sign(a, b)

    monkeypatch.setattr(checks, "_root2_sign", counted)
    assert checks.check_quadext_sign(42).ok
    assert sum(opposite) == 2000 // 8


def test_every_check_takes_a_seed_and_a_trial_count():
    # one signature for every check: no third knob that only one check reads
    for fn in (fn for fns in checks.SUITES.values() for fn in fns):
        seed, trials = inspect.signature(fn).parameters.values()  # exactly two
        assert (seed.name, seed.default, trials.name) == ("seed", inspect.Parameter.empty, "trials"), fn.__name__
        assert type(trials.default) is int, fn.__name__


def test_cayley_hamilton_check_sees_a_subtraction_clearing_slip(monkeypatch):
    # an integer grid has one denominator per matrix and misses the slip
    # that the certificate's grid kills (row `sub-clearing-slip`)
    install(monkeypatch, BY_ID["sub-clearing-slip"])
    assert all(checks.cayley_hamilton_holds(a) for a in grid_matrices(grid_values(span=1)))


def test_restriction_check_sees_a_constant_term_slip(monkeypatch):
    # 26 of the 27 recentred grid points of each plane have a denominator
    install(monkeypatch, BY_ID["evaluate-constant-term"])
    r = checks.check_restriction_identity(42)
    assert r.detail.startswith("3000/5600 trials ok"), r.line()


def test_newly_certified_checks_pass_across_seeds():
    for seed in range(6):
        for check in (checks.check_quadext_field, checks.check_inverse_set_theorem, checks.check_bell_roundtrip):
            r = check(seed)
            assert r.ok and r.certified, r.line()


def test_a_fail_line_names_its_first_failing_case(monkeypatch):
    install(monkeypatch, BY_ID["sub-clearing-slip"])
    r = checks.check_cayley_hamilton(42)
    first = next(i for i, a in enumerate(grid_matrices(CERTIFICATE_VALUES[2])) if not checks.cayley_hamilton_holds(a))
    assert r.line().endswith(f"; first failure at case {first}"), r.line()
    assert r.detail.count("first failure") == 1
    monkeypatch.undo()
    assert "first failure" not in checks.check_cayley_hamilton(42).line()


def test_a_check_that_raises_is_its_own_fail_line(monkeypatch):
    # an unreduced zero determinant lets a singular draw through
    # `rand_invertible`, and `inverse_mat` raises on it; the other checks
    # that see the fault still print their lines
    install(monkeypatch, BY_ID["det-skipped-second-gcd"])
    code, text = cli.run(["check", "--seed", "42"])
    lines = text.splitlines()
    assert code == 2 and len(lines) == 30 and lines[-1] == "18/29 checks passed", text
    (line,) = (line for line in lines if "/section_is_inverse_image_of_idempotents:" in line)
    assert line.startswith("[FAIL]") and line.endswith("; case 4 raised SingularMatrixError"), line


def test_a_report_that_raises_fails_its_own_check(monkeypatch):
    # the reports are built in the case stream, so a singular a is this
    # check's failure at case 0, not an error of the run
    monkeypatch.setattr(checks, "rand_invertible", lambda rng: Mat2(1, 0, 0, 0))
    r = checks.check_order_section_reports(42)
    assert r.name == "order_below_a_is_inverse_section" and not r.ok
    note = "literal-section disagreement on 0/10 generic a (expected)"
    assert r.detail == f"0/0 trials ok; {note}; case 0 raised SingularMatrixError", r.line()


def test_a_raise_uncounts_the_failures_of_its_case():
    # the shared pass: the first predicate fails case 1, the second raises on it
    def second(x):
        if x == 1:
            raise ZeroDivisionError
        return True

    cases = ((x,) for x in range(3))
    fails, raises = checks._tally("s", ("a", "b"), cases, (lambda x: x != 1, second), ("", ""), (0, 0))
    assert fails.line() == "[FAIL] s/a: 1/1 trials ok; case 1 raised ZeroDivisionError"
    assert raises.line() == "[FAIL] s/b: 1/1 trials ok; case 1 raised ZeroDivisionError"
