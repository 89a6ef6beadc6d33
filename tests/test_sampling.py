import math
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from greenquadrics import checks, sampling
from greenquadrics.checks import _BELL_LEVELS
from greenquadrics.mat2 import Mat2
from greenquadrics.sampling import (
    CERTIFICATE_VALUES,
    _LANES,
    Stream,
    _lane_form,
    _lane_offsets,
    _wide_pair,
    grid_matrices,
    lane_draws,
    rand_idempotent_rank1,
    rand_invertible,
    rand_mat,
    rand_nonzero_rational,
    rand_rank1,
    rand_rational,
    rand_singular_with_trace,
    rand_wide_rational,
    rng_for,
    strata_draws,
    uniform_columns,
)


@pytest.mark.parametrize("lam", _BELL_LEVELS, ids=str)
def test_singular_with_trace_is_exact(lam):
    for i in range(200):
        x = rand_singular_with_trace(rng_for(31, i), lam)
        assert not x.is_zero()
        assert x.det() == 0
        assert x.trace() == lam


def test_nonzero_rational_takes_every_value_and_never_zero():
    want = {Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)}
    assert {rand_nonzero_rational(rng_for(41, i), 3, 2) for i in range(1000)} == want


def _decode_mat(rng, span, max_den):
    w = 2 * span + 1
    draws = rng.offsets(w, max_den, w, max_den, w, max_den, w, max_den)
    return Mat2(*(Fraction(n - span, d + 1) for n, d in zip(draws[::2], draws[1::2])))


@pytest.mark.parametrize("span,max_den", [(9, 9), (4, 3), (3, 2), (1, 1), (4, 4), (10**6, 10**6)])
def test_rand_mat_is_one_batch_of_offsets(span, max_den):
    for i in range(300):
        rng = rng_for(37, i)
        twin = rng_for(37, i)
        got = rand_mat(rng, span, max_den)
        want = _decode_mat(twin, span, max_den)
        assert got == want and (got._n, got._d) == (want._n, want._d)
        # the same outputs were consumed
        assert rng.offsets(1 << 64) == twin.offsets(1 << 64)


@pytest.mark.parametrize(
    "key,want",
    [
        (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
        (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423]),
    ],
)
def test_stream_matches_splitmix64_reference(key, want):
    rng = Stream(key)
    assert [rng.offsets(1 << 64)[0] for _ in want] == want
    rng = Stream(key)
    assert rng.offsets(*[1 << 64] * len(want)) == want


def test_offsets_stay_in_range_and_hit_every_value():
    sizes = (19, 9) * 4
    rng = rng_for(3, 0)
    seen = [set() for _ in sizes]
    for _ in range(3000):
        for k, x in enumerate(rng.offsets(*sizes)):
            seen[k].add(x)
    assert seen == [set(range(n)) for n in sizes]


@pytest.mark.parametrize(
    "sizes",
    [(19, 9) * 4, (1 << 32, 1 << 32), (3, 5, 7, 11, 13), ((1 << 64) // 9, 9), (1 << 64,), (1, 1, 1)],
    ids=["mat", "two-words", "primes", "floor", "whole", "ones"],
)
def test_offsets_of_one_output_are_one_multiply_high_draw(sizes):
    # a product up to 2**64 takes one output z, and the offsets, read as a
    # mixed-radix number, are z * product >> 64
    product = math.prod(sizes)
    for i in range(200):
        rng, twin = rng_for(13, i), rng_for(13, i)
        got = rng.offsets(*sizes)
        (z,) = twin.offsets(1 << 64)
        index = 0
        for n, x in zip(sizes, got):
            index = index * n + x
        assert index == (z * product) >> 64
        assert rng.offsets(1 << 64) == twin.offsets(1 << 64)


@pytest.mark.parametrize(
    "sizes,outputs",
    [
        ((1 << 32, 1 << 32), 1),
        ((274177, 67280421310721), 2),
        ((1 << 64, 1), 1),
        ((1 << 64, 2), 2),
        ((2, 1 << 63, 2), 2),
        ((10**6, 10**6, 10**6, 10**6), 2),
    ],
    ids=["exactly-2**64", "2**64+1", "2**64-then-1", "2**65", "carry-then-fresh", "wide-dens"],
)
def test_offsets_take_a_fresh_output_past_two_to_the_64(sizes, outputs):
    # 274177 * 67280421310721 == 2**64 + 1
    rng, twin = rng_for(17, 0), rng_for(17, 0)
    rng.offsets(*sizes)
    twin.offsets(*[1 << 64] * outputs)
    assert rng.offsets(1 << 64) == twin.offsets(1 << 64)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-3.0, 3.0), (2.5, 2.75)])
def test_uniform_stays_in_half_open_range(a, b):
    rng = rng_for(5, 0)
    for _ in range(5000):
        assert a <= rng.uniform(a, b) < b


def test_trial_draws_do_not_depend_on_other_trials():
    def draws(rng):
        return [rng.offsets(19, 9, 19), rng.uniform(-3.0, 3.0), rng.offsets(1 << 64), rng.offsets(1 << 40, 1 << 40)]

    alone = draws(rng_for(11, 5))
    for before in ([], [0, 1, 2], [9, 4, 6, 5]):
        for j in before:
            draws(rng_for(11, j))
        assert draws(rng_for(11, 5)) == alone
    assert draws(rng_for(11, 6)) != alone and draws(rng_for(12, 5)) != alone


# Row counts on both sides of one and two blocks of lanes.  Keys wrap past
# 2**63 about every 6.4 rows (_MIX_B is about 0.16 * 2**63); the start
# 2**64 - 5 also runs the index itself past 2**64 inside the first block.
ROW_COUNTS = (0, 1, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 3)


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3, -7, 2**64 + 3])
@pytest.mark.parametrize("start", [0, 25_000, 2**64 - 5])
@pytest.mark.parametrize(
    "bounds",
    [
        ((0, 2 * math.pi), (-1.5, 2.5)),
        ((-3, 3),),
        ((-0.25, 0.25),),
        ((0, 2 * math.pi), (0, 2 * math.pi), (-3.0, 3.0)),
    ],
    ids=["angle-and-span", "three", "quarter", "two-angles-and-scale"],
)
def test_uniform_rows_are_the_per_index_stream_draws(seed, start, bounds):
    # the rows of `uniform_columns`: its blocks flattened back into one
    # tuple of draws per index
    want = []
    for i in range(start, start + max(ROW_COUNTS)):
        rng = rng_for(seed, i)
        want.append(tuple(rng.uniform(lo, hi) for lo, hi in bounds))
    for n in ROW_COUNTS:
        blocks = list(uniform_columns(seed, start, n, bounds))
        # one column per bound, all of one block's length, and every block
        # but the last a full one of `_LANES` indices
        assert all(len(columns) == len(bounds) for columns in blocks), n
        assert all(len(column) == len(columns[0]) for columns in blocks for column in columns), n
        assert all(len(columns[0]) == _LANES for columns in blocks[:-1]), n
        assert [row for columns in blocks for row in zip(*columns)] == want[:n], n


def test_uniform_rows_of_no_indices_is_empty():
    assert list(uniform_columns(5, 0, 0, ((-3.0, 3.0),))) == []


def test_wide_parts_have_exact_widths_and_both_signs():
    parts = [_wide_pair(*rng_for(19, i).offsets(1 << 64, 1 << 64)) for i in range(300)]
    assert all(abs(n).bit_length() == 64 and d.bit_length() == 64 for n, d in parts)
    assert {n > 0 for n, _ in parts} == {True, False}


def test_wide_parts_take_one_getrandbits_per_integer():
    # one 64-bit output per integer, the numerator's first
    rng, twin = rng_for(23, 4), rng_for(23, 4)
    value = rand_wide_rational(rng)
    raw_n, raw_d = twin.offsets(1 << 64, 1 << 64)
    top = 1 << 63
    n, d = _wide_pair(raw_n, raw_d)
    assert abs(n) == raw_n | top and (n > 0) == bool(raw_n & top) and d == raw_d | top
    assert value == Fraction(n, d)
    assert rng.offsets(1 << 64) == twin.offsets(1 << 64)


def test_wide_draws_replay_from_seed_and_index():
    def draws(seed, i):
        rng = rng_for(seed, i)
        return tuple(rand_wide_rational(rng) for _ in range(5))

    alone = draws(42, 7)
    for j in (0, 6, 8):
        draws(42, j)
    assert draws(42, 7) == alone
    assert draws(42, 8) != alone and draws(43, 7) != alone
    # each draw is the pair of the next two outputs of the stream
    raw = rng_for(42, 7).offsets(*(1 << 64,) * 10)
    assert alone == tuple(Fraction(*_wide_pair(*raw[k : k + 2])) for k in range(0, 10, 2))


@pytest.mark.parametrize("degree,count", [(1, 1), (1, 2), (2, 1), (4, 1)])
def test_certificate_grids_are_complete_and_mix_denominators(degree, count):
    values = CERTIFICATE_VALUES[degree]
    assert len(values) == degree + 1
    assert len({v.denominator for v in values}) == len(values) and min(values) < 0 < max(values)
    points = list(product(grid_matrices(values), repeat=count))
    assert len(points) == len(set(points)) == len(values) ** (4 * count)
    assert all(len(p) == count and set(x for m in p for x in m.entries) <= set(values) for p in points)


# --- lane draws ---------------------------------------------------------------

_COORD = checks._chart_coord
# each sampler with a lane form alone, then the tuples the checks draw
LANE_CASES = {
    "rand_rational": (rand_rational,),
    "rand_nonzero_rational": (rand_nonzero_rational,),
    "rand_mat": (rand_mat,),
    "rand_mat(4, 4)": (partial(rand_mat, span=4, max_den=4),),
    "rand_invertible": (rand_invertible,),
    "rand_rank1": (rand_rank1,),
    "rand_idempotent_rank1": (rand_idempotent_rank1,),
    # the nilpotent draw, at a span other than the default
    "rand_nilpotent": (partial(rand_singular_with_trace, lam=Fraction(0), span=3),),
    "rand_singular_with_trace(0)": (partial(rand_singular_with_trace, lam=Fraction(0)),),
    "rand_singular_with_trace(-3/2)": (partial(rand_singular_with_trace, lam=Fraction(-3, 2)),),
    "rand_wide_rational": (rand_wide_rational,),
    # a matrix of a certified check: its four entries, row-major
    "rand_wide_mat": (rand_wide_rational,) * 4,
    "rational_canonical_form": (rand_rational, rand_nonzero_rational),
    "d_class_is_rank_class": (partial(rand_mat, span=3),) * 2,
    "h_class_is_punctured_line": (rand_rank1, rand_nonzero_rational, rand_rank1),
    "chart_is_injective": (rand_rank1, _COORD, _COORD, _COORD, _COORD),
    "generator_lines_lie_on_surface": (rand_idempotent_rank1, _COORD),
    "quadext_field_axioms": (rand_wide_rational,) * 6,
    "det_multiplicative_trace_commutes": (rand_wide_rational,) * 8,
    "frame_roundtrip_exact": (rand_wide_rational,) * (1 + 4),
    # the near-miss stratum of `check_quadext_sign`: a nonzero integer in [-4, 4]
    "quadext_sign_near_root2": (checks._NEAR_ROOT2, rand_rational),
    # no lane form: every index takes the scalar path
    "lambda": (lambda rng: rand_mat(rng, 4, 3),),
    "lambda-in-a-tuple": (rand_rank1, lambda rng: rand_rational(rng, 2, 2)),
}
LANE_COUNTS = (1, _LANES - 1, _LANES, _LANES + 1, 1300)


def _scalar_draws(seed, first, n, samplers):
    """The reference: each sampler in turn on the one stream of each index."""
    cases = []
    for index in range(first, first + n):
        rng = rng_for(seed, index)
        cases.append(tuple(s(rng) for s in samplers))
    return cases


@pytest.mark.parametrize("first", [0, 10_000, 40_000])
@pytest.mark.parametrize("name", LANE_CASES)
def test_lane_draws_are_the_scalar_draws(name, first):
    samplers = LANE_CASES[name]
    want = _scalar_draws(3, first, max(LANE_COUNTS), samplers)
    for n in LANE_COUNTS:
        got = list(lane_draws(3, first, n, samplers))
        assert got == want[:n], n
        # the same integer content, not only equal values
        assert [str(c) for c in got] == [str(c) for c in want[:n]], n


def test_every_lane_form_is_tested():
    lane = {s.func if isinstance(s, partial) else s for case in LANE_CASES.values() for s in case}
    assert {s for s in sampling._FORMS} <= lane
    assert [_lane_form(s) for s in LANE_CASES["lambda"]] == [None]


_REJECTING = ("rand_invertible", "rand_rank1", "rand_idempotent_rank1", "rand_singular_with_trace(0)")


@pytest.mark.parametrize("sampler", [LANE_CASES[name][0] for name in _REJECTING], ids=_REJECTING)
def test_lane_draws_redraw_a_rejected_first_attempt(sampler):
    # the whole tuple of an index whose first attempt the builder rejects is
    # drawn by the samplers on its own stream: the rational after it then
    # comes from the outputs after the second attempt, not the lanes'
    sizes, build = _lane_form(sampler)
    index = next(i for i in range(1, 100_000) if build(rng_for(5, i).offsets(*sizes)) is None)
    samplers = (sampler, rand_rational)
    assert list(lane_draws(5, index - 1, 3, samplers)) == _scalar_draws(5, index - 1, 3, samplers)


def test_lane_draws_follow_a_replaced_sampler():
    calls = []

    def replaced(rng):
        calls.append(rng)
        return "x"

    assert list(lane_draws(9, 4, 3, (rand_rank1, replaced))) == [(rand_rank1(rng_for(9, i)), "x") for i in (4, 5, 6)]
    assert len(calls) == 3


def test_lane_draws_of_no_indices_are_empty():
    assert list(lane_draws(5, 0, 0, (rand_mat,))) == []


# --- strided lanes and strata -------------------------------------------------

# one call inside one output, one of two whole outputs, one that takes a
# fresh output partway through
STRIDED_CALLS = [(19, 9) * 4, (1 << 64, 1 << 64), (274177, 67280421310721, 5)]


@pytest.mark.parametrize("stride", range(2, 9))
@pytest.mark.parametrize("first", [3, 40_001, 2**64 - 5])
def test_strided_lane_offsets_are_the_scalar_offsets(stride, first):
    n_max = max(LANE_COUNTS)
    want = []
    for i in range(n_max):
        rng = rng_for(7, first + stride * i)
        want.append(tuple(x for sizes in STRIDED_CALLS for x in rng.offsets(*sizes)))
    for n in LANE_COUNTS:
        got = [case for columns in _lane_offsets(7, first, n, STRIDED_CALLS, stride) for case in zip(*columns)]
        assert got == want[:n], (stride, n)


def _pack(*values):
    return values


# stratum by stratum: rejecting samplers, the near-miss sampler, and a
# stratum without a lane form, whose trials all take the scalar path
STRATA = [
    ((rand_rank1, rand_rational), _pack),
    ((rand_invertible,), _pack),
    ((checks._NEAR_ROOT2,), _pack),
    ((rand_idempotent_rank1, partial(rand_singular_with_trace, lam=Fraction(0))), _pack),
    ((lambda rng: rand_mat(rng, 4, 3),), _pack),
    ((partial(rand_mat, span=3, max_den=2),) * 2, _pack),
    ((rand_wide_rational,), _pack),
    ((rand_nonzero_rational, rand_rank1), _pack),
]


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_strata_draws_are_the_scalar_draws(k):
    strata = STRATA[:k]
    trials = max(LANE_COUNTS) + 3
    want = _scalar_draws_by_stratum(11, trials, strata)
    for n in (0, 1, k - 1, k + 1, *LANE_COUNTS, trials):
        assert list(strata_draws(11, n, strata)) == want[:n], n


def test_a_stratum_without_samplers_draws_every_one_of_its_trials(monkeypatch):
    # its first attempts are empty tuples, not no attempts: a run whose
    # longest stratum draws nothing keeps its count, and draws no stream
    strata = [((), lambda: "fixed"), ((rand_rational,), lambda a: a)]
    keyed = []
    monkeypatch.setattr(sampling, "rng_for", lambda seed, i: keyed.append(i) or rng_for(seed, i))
    for trials in (1, 3, 7, 2 * _LANES + 1):
        got = list(strata_draws(11, trials, strata))
        assert got == _scalar_draws_by_stratum(11, trials, strata) and len(got) == trials, trials
    assert keyed == []


def _scalar_draws_by_stratum(seed, trials, strata):
    """The reference loop: each trial drawn whole on its own stream, the
    stratum's samplers in turn and then its build, until the build accepts."""
    cases = []
    for i in range(trials):
        rng = rng_for(seed, i)
        samplers, build = strata[i % len(strata)]
        while (case := build(*(s(rng) for s in samplers))) is None:
            pass
        cases.append(case)
    return cases


def _rounds(rng, samplers, build):
    """How many times the reference loop draws the samplers on `rng`."""
    rounds = 1
    while build(*(s(rng) for s in samplers)) is None:
        rounds += 1
    return rounds


def test_strata_draws_redraw_a_trial_whole_until_its_build_accepts(monkeypatch):
    # a rejected first attempt, and a build that asks for a redraw, both draw
    # the trial whole again on its own stream: samplers, then build
    sizes, build = _lane_form(rand_rank1)
    rejected = next(i for i in range(0, 100_000, 2) if build(rng_for(5, i).offsets(*sizes)) is None)
    trials = rejected + 40
    ordered = ((rand_rational, rand_rational), lambda r, s: None if r >= s else (r, s))
    strata = [((rand_rank1,), lambda a: (a,)), ordered]
    redrawn = []

    def recorded(seed, i):
        redrawn.append(i)
        return rng_for(seed, i)

    with monkeypatch.context() as m:
        m.setattr(sampling, "rng_for", recorded)
        got = list(strata_draws(5, trials, strata))
    assert got == _scalar_draws_by_stratum(5, trials, strata)
    rounds = {i: _rounds(rng_for(5, i), *ordered) for i in range(1, trials, 2)}
    assert redrawn == sorted([rejected, *(i for i, n in rounds.items() if n > 1)])
    # some trial's build rejects its first redraw too
    assert max(rounds.values()) > 2
