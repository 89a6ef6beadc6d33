import inspect
import sys
import tracemalloc
from functools import partial
from itertools import product

import pytest
from draws import wide
from faults import BY_ID, FAULTS, _resolve, install

from greenquadrics import checks, cli, mat2, sampling, sections, semigroup
from greenquadrics.exact import Rational, _parts, rational_sign
from greenquadrics.mat2 import Mat2, inner
from greenquadrics.sampling import (
    CERTIFICATE_VALUES,
    grid_matrices,
    grid_values,
    lane_draws,
    rand_idempotent_rank1,
    rand_mat,
    rand_nonzero_rational,
    rand_rank1,
    rand_rational,
    rand_wide_rational,
    rng_for,
)
from greenquadrics.sections import Hyperplane, bell_residual, restrict_quadric


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
    assert len(idempotents) == 5 * 3 + 3 == checks._IDEMPOTENT_CHART_POINTS
    assert len(nilpotents) == 3 * 5 * 5
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


def _draws_peak(trials, samplers) -> int:
    """Peak traced bytes of consuming the cases of `lane_draws` one at a time."""
    tracemalloc.start()
    try:
        for _ in lane_draws(1, 0, trials, samplers):
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
    # `_near_root2` reach the a^2 vs 2 b^2 branch.  Only the decisions on a
    # trial's own parts count, not those on the doubles next to its float.
    root2_sign, to_float, parts, opposite = checks._root2_sign, checks.to_float, [], []

    def read(p):
        parts.append((p.rat_part, p.root2_part))
        return to_float(p)

    def counted(a, b):
        if (a, b) == parts[-1]:
            opposite.append(rational_sign(a) * rational_sign(b) < 0)
        return root2_sign(a, b)

    monkeypatch.setattr(checks, "to_float", read)
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


def restriction_holds_by_difference(aq, pivot, t):
    """`restriction_holds` with the moved entries read as the `Fraction`s of x - origin."""
    x = aq.point(t)
    free = tuple(v for k, v in enumerate((x - aq.origin).entries) if k != pivot)
    return free == tuple(t) and x.det() == aq.evaluate(t)


def test_restriction_holds_matches_the_difference():
    # every pivot, so the wrong ones give False cases; small and 64-bit t
    seen = set()
    for i in range(40):
        rng = rng_for(271, i)
        stratum = checks._NONZERO_A_STRATA[i % 4]
        aq = restrict_quadric(checks._hyperplane(stratum, (draw(rng) for draw in checks._hyperplane_samplers(stratum))))
        wide = tuple(rand_wide_rational(rng) for _ in range(3))
        for t in (*product(CERTIFICATE_VALUES[2][:2], repeat=3), (0, 1, -2), wide):
            for pivot in range(4):
                got = checks.restriction_holds(aq, pivot, t)
                assert got == restriction_holds_by_difference(aq, pivot, t), (i, pivot, t)
                seen.add(got)
    assert seen == {True, False}


# --- the content comparisons of the certified identities --------------------

_THIRD = Rational(1, 3)


def _near_misses(x):
    """`x` with one entry moved by +-1/3, for each of its four entries."""
    e = x.entries
    return [Mat2(*(v + s if j == k else v for j, v in enumerate(e))) for k in range(4) for s in (_THIRD, -_THIRD)]


def _comparison_bases():
    """The 81 matrices of the degree-2 certificate grid, 20 matrices of four
    `rand_wide_rational` draws at 64 bits and 5 of `draws.wide` at 256 bits."""
    wide64 = [Mat2(*(rand_wide_rational(rng) for _ in range(4))) for rng in (rng_for(337, i) for i in range(20))]
    wide256 = [Mat2(*(wide(rng) for _ in range(4))) for rng in (rng_for(347, i) for i in range(5))]
    return [*grid_matrices(CERTIFICATE_VALUES[2]), *wide64, *wide256]


# name -> (the comparison on content, its `Fraction` definition, the value
# of the definition at (x, m)); each is asked about x against the value at x,
# at each one-entry near miss of x and at each of `_LEVELS`.  The sections
# are P(m; v), so `membership` and `section_membership` run at the levels
# 0, 1, -3/2 and one 64-bit level too
_COMPARISONS = {
    "det": (
        lambda x, m, v: mat2._det_is(x, *_parts(v)),
        lambda x, m, v: x.det() == v,
        lambda x, m: x.det(),
    ),
    "trace": (
        lambda x, m, v: mat2._trace_is(x, *_parts(v)),
        lambda x, m, v: x.trace() == v,
        lambda x, m: x.trace(),
    ),
    "inner": (
        lambda x, m, v: mat2._inner_is(x, m, *_parts(v)),
        lambda x, m, v: inner(x, m) == v,
        lambda x, m: inner(x, m),
    ),
    "trace of product": (
        lambda x, m, v: mat2._trace_of_product_is(m, x, *_parts(v)),
        lambda x, m, v: (m @ x).trace() == v,
        lambda x, m: (m @ x).trace(),
    ),
    "membership": (
        lambda x, m, v: sections.membership(Hyperplane(m, v), x),
        lambda x, m, v: (m @ x).trace() == v,
        lambda x, m: (m @ x).trace(),
    ),
    "section membership": (
        lambda x, m, v: sections.section_membership(Hyperplane(m, v), x),
        lambda x, m, v: (m @ x).trace() == v and x.det() == 0,
        lambda x, m: (m @ x).trace(),
    ),
}
_LEVELS = (Rational(0), Rational(1), Rational(-3, 2), rand_wide_rational(rng_for(359, 0)))


def _nilpotent_points():
    """(k, p, q) on the grid of the nilpotent chart, with a zero k, p or q,
    then 20 triples at 64 bits and 5 of `draws.wide` at 256 bits."""
    yield from checks._certified(checks._NILPOTENT_CHART, ())
    yield from ((0, _THIRD, 2), (Rational(5, 7), 0, _THIRD), (-2, Rational(6, 5), 0), (3, 2, -1))
    for i in range(20):
        rng = rng_for(349, i)
        yield tuple(rand_wide_rational(rng) for _ in range(3))
    for i in range(5):
        rng = rng_for(353, i)
        yield tuple(wide(rng) for _ in range(3))


def _disagreements():
    """(the comparisons that differ from their definition at some case, the
    (name, outcome) pairs seen)."""
    differ, seen = set(), set()
    bases = _comparison_bases()
    for i, base in enumerate(bases):
        m = bases[(i + 1) % len(bases)]
        moved = _near_misses(base)
        for name, (content, definition, value) in _COMPARISONS.items():
            for x in (base, *moved):
                for v in (value(x, m), *(value(y, m) for y in moved[::3]), *_LEVELS):
                    want = definition(x, m, v)
                    if content(x, m, v) != want:
                        differ.add(name)
                    seen.add((name, want))
        for x in (base, *moved):
            if checks.frame_residual_holds(x) != (bell_residual(x) == -2 * x.det()):
                differ.add("frame")
    for k, p, q in _nilpotent_points():
        if checks._nilpotent_point(k, p, q) != Mat2(k * p * q, -k * p * p, k * q * q, -k * p * q):
            differ.add("nilpotent point")
    return differ, seen


def test_content_comparisons_equal_their_definitions():
    differ, seen = _disagreements()
    assert not differ, differ
    assert seen == {(name, outcome) for name in _COMPARISONS for outcome in (True, False)}


# each row of the fault table aimed at a content comparison, and the
# comparison of `_disagreements` it moves
_COMPARISON_ROWS = {
    "det-is-one-denominator": "det",
    "trace-is-one-denominator": "trace",
    "chart-read-one-denominator": "inner",
    "membership-one-denominator": "trace of product",
    "section-membership-no-det": "section membership",
    "frame-residual-no-factor-two": "frame",
    "nilpotent-point-one-pd": "nilpotent point",
    "nilpotent-point-scaled": "nilpotent point",
}


@pytest.mark.parametrize("row", _COMPARISON_ROWS)
def test_content_comparison_rows_are_caught(monkeypatch, row):
    install(monkeypatch, BY_ID[row])
    assert _COMPARISON_ROWS[row] in _disagreements()[0]


def test_newly_certified_checks_pass_across_seeds():
    for seed in range(6):
        for check in (
            checks.check_quadext_field,
            checks.check_inverse_set_theorem,
            checks.check_bell_roundtrip,
            checks.check_traceless_singular_squares_to_zero,
            checks.check_nilpotent_cone_identity,
            checks.check_symmetric_slice,
        ):
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
    # that see the fault still print their lines (the semigroup predicates
    # and the certified identities' comparisons decide on content and call
    # no `det`, so 5 checks see it)
    install(monkeypatch, BY_ID["det-skipped-second-gcd"])
    code, text = cli.run(["check", "--seed", "42"])
    lines = text.splitlines()
    assert code == 2 and len(lines) == 29 and lines[-1] == "23/28 checks passed", text
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


# --- the lanes of the stratified loops ----------------------------------------

# the checks whose trials pick their samplers by stratum or redraw inside a
# trial, and draw their first attempts through `sampling.strata_draws`
STRATIFIED = [
    "check_quadext_sign",
    "check_class_plane_membership",
    "check_plane_classification_roundtrip",
    "check_line_combinatorics",
    "check_natural_order_equivalence",
    "check_classifier_agreement",
    "check_restriction_identity",
    "check_affine_invariance",
    "check_inverse_image_law",
    "check_inverse_set_theorem",
]


def _plain(x):
    """`x` with each `AffineQuadric3`, which has no `==`, read as its content."""
    if isinstance(x, sections.AffineQuadric3):
        return x._poly, x._chart
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    return x


def _cases(monkeypatch, check, seed, trials, lanes=True):
    """Every case that `check(seed, trials)` hands to `_tally`; with `lanes`
    False no sampler has a lane form, so every trial is drawn whole on its
    own stream by the scalar path."""
    got = []
    with monkeypatch.context() as m:
        m.setattr(checks, "_tally", lambda suite, name, cases, *rest: got.extend(map(_plain, cases)))
        if not lanes:
            m.setattr(sampling, "_lane_form", lambda sampler: None)
        getattr(checks, check)(seed, trials)
    return got


@pytest.mark.parametrize("seed", [0, 42, 2026])
@pytest.mark.parametrize("check", STRATIFIED)
def test_lane_cases_are_the_scalar_trials(monkeypatch, check, seed):
    lane = _cases(monkeypatch, check, seed, 1300)
    assert lane and None not in lane
    assert lane == _cases(monkeypatch, check, seed, 1300, lanes=False)


@pytest.mark.parametrize("seed", [0, 42, 2026])
def test_report_lanes_are_the_scalar_trials(monkeypatch, seed):
    a = Mat2(2, 1, 1, 1)
    lane = semigroup.order_section_report(a, 1300, seed)
    monkeypatch.setattr(sampling, "_lane_form", lambda sampler: None)
    assert lane == semigroup.order_section_report(a, 1300, seed)


# The first attempt of a trial that the check's own loop redraws, read on
# the trial's stream: a zero point of a class plane, a singular change of
# basis inside a plane, a singular mix of a hyperplane's chart, and a second
# idempotent equal to the first.
def _zero_plane_point(rng, i):
    rand_rank1(rng)
    s_l, t_l, s_r, t_r = (rand_rational(rng) for _ in range(4))
    return not (s_l or t_l) or not (s_r or t_r)


def _singular_basis_change(rng, i):
    rand_rank1(rng)
    al, be, ga, de = (rand_rational(rng, 4, 3) for _ in range(4))
    return al * de == be * ga


def _singular_mix(rng, i):
    for draw in checks._hyperplane_samplers(checks._NONZERO_A_STRATA[i % 4]):
        draw(rng)
    return checks._det3([[rand_rational(rng, 2, 2) for _ in range(3)] for _ in range(3)]) == 0


def _equal_idempotents(rng, i):
    return rand_idempotent_rank1(rng) == rand_idempotent_rank1(rng)


REDRAWS = {
    "check_class_plane_membership": _zero_plane_point,
    "check_plane_classification_roundtrip": _singular_basis_change,
    "check_affine_invariance": _singular_mix,
    "check_line_combinatorics": _equal_idempotents,
}


@pytest.mark.parametrize("check", REDRAWS)
def test_each_composite_redraw_fires(monkeypatch, check):
    # the first trial whose first attempt the check's loop redraws is drawn
    # whole on its own stream, and its case is the scalar one
    index = next(i for i in range(100_000) if REDRAWS[check](rng_for(42, i), i))
    redrawn, keyed = [], sampling.rng_for

    def recorded(seed, i):
        redrawn.append(i)
        return keyed(seed, i)

    with monkeypatch.context() as m:
        m.setattr(sampling, "rng_for", recorded)
        lane = _cases(monkeypatch, check, 42, index + 1)
    assert index in redrawn and None not in lane
    assert lane == _cases(monkeypatch, check, 42, index + 1, lanes=False)


def test_a_check_run_draws_on_scalar_streams_only_to_redraw(monkeypatch):
    # every first attempt of a seed-42 run comes from the lanes, so a trial
    # gets a stream of its own only to be redrawn, and every scalar
    # `Stream.offsets` call is made on the stream of such a trial
    streams, keyed, offsets = [], sampling.rng_for, sampling.Stream.offsets
    on_redrawn = []  # per scalar call, whether its stream is a redrawn trial's

    def recorded(seed, i):
        streams.append(keyed(seed, i))
        return streams[-1]

    def counted(self, *sizes):
        on_redrawn.append(any(self is rng for rng in streams))
        return offsets(self, *sizes)

    monkeypatch.setattr(sampling, "rng_for", recorded)
    monkeypatch.setattr(sampling.Stream, "offsets", counted)
    assert all(r.ok for r in checks.run_checks(seed=42))
    assert len(streams) == 799
    assert on_redrawn and all(on_redrawn)


@pytest.mark.parametrize(
    "builder,affected",
    [
        ("hyperboloid_metrics", ("symmetric_idempotents_form_radius_circle", "metrics_family_shares_axis_and_cone")),
        (
            "_idempotent_charts",
            ("rank1_idempotent_iff_trace1_det0", "nilpotent_iff_trace0_det0", "natural_order_equals_minus_order"),
        ),
        ("_nilpotent_chart", ("rank1_idempotent_iff_trace1_det0", "nilpotent_iff_trace0_det0")),
        (
            "grid_matrices",
            (
                "rank1_idempotent_iff_trace1_det0",
                "nilpotent_iff_trace0_det0",
                "section_membership_iff_inverse_pair",
                "natural_order_equals_minus_order",
            ),
        ),
    ],
)
def test_a_builder_that_raises_fails_only_the_checks_that_read_it(monkeypatch, builder, affected):
    # each check builds what it reads in its case stream, so a raise there is
    # that check's own line at case 0, and the run goes on
    def raising(*args):
        raise ArithmeticError

    monkeypatch.setattr(checks, builder, raising)
    results = checks.run_checks(seed=42)
    assert len(results) == 28
    assert {r.name for r in results if not r.ok} == set(affected)
    for r in results:
        assert r.ok or r.detail.endswith("; case 0 raised ArithmeticError"), r.line()
