import math

import pytest

from greenquadrics.checks import _BELL_LEVELS
from greenquadrics.mat2 import Mat2
from greenquadrics.sampling import (
    Stream,
    rand_mat,
    rand_rational,
    rand_singular_with_trace,
    rng_for,
    uniform_rows,
)


@pytest.mark.parametrize("lam", _BELL_LEVELS, ids=str)
def test_singular_with_trace_is_exact(lam):
    for i in range(200):
        x = rand_singular_with_trace(rng_for(31, i), lam)
        assert not x.is_zero()
        assert x.det() == 0
        assert x.trace() == lam


@pytest.mark.parametrize("span,max_den", [(9, 9), (4, 3), (3, 2), (1, 1), (4, 4), (10**6, 10**6)])
def test_rand_mat_is_four_rand_rational_draws(span, max_den):
    for i in range(300):
        rng = rng_for(37, i)
        twin = rng_for(37, i)
        got = rand_mat(rng, span, max_den)
        want = Mat2(*(rand_rational(twin, span, max_den) for _ in range(4)))
        assert got == want and (got._n, got._d) == (want._n, want._d)
        # the same draws were consumed
        assert rng.getrandbits(64) == twin.getrandbits(64)


@pytest.mark.parametrize(
    "key,want",
    [
        (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
        (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423]),
    ],
)
def test_stream_matches_splitmix64_reference(key, want):
    rng = Stream(key)
    assert [rng.getrandbits(64) for _ in want] == want


def test_randint_stays_in_range_and_hits_every_value():
    rng = rng_for(3, 0)
    seen = {rng.randint(-9, 9) for _ in range(2000)}
    assert seen == set(range(-9, 10))


def test_choice_hits_every_element():
    rng = rng_for(3, 1)
    assert {rng.choice((1, -1)) for _ in range(200)} == {1, -1}


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-3.0, 3.0), (2.5, 2.75)])
def test_uniform_stays_in_half_open_range(a, b):
    rng = rng_for(5, 0)
    for _ in range(5000):
        assert a <= rng.uniform(a, b) < b


def test_random_is_on_the_53_bit_grid():
    rng = rng_for(5, 1)
    for _ in range(1000):
        u = rng.random()
        assert 0.0 <= u < 1.0 and (u * 2**53).is_integer()


@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 128, 256])
def test_getrandbits_width(k):
    rng = rng_for(7, k)
    draws = [rng.getrandbits(k) for _ in range(200)]
    assert all(0 <= x and x.bit_length() <= k for x in draws)
    if k >= 64:
        # the top bit is set on some draw, so no word is lost at the front
        assert any(x.bit_length() == k for x in draws)


def test_trial_draws_do_not_depend_on_other_trials():
    def draws(rng):
        return [rng.randint(-9, 9), rng.uniform(-3.0, 3.0), rng.getrandbits(100), rng.choice("abc")]

    alone = draws(rng_for(11, 5))
    for before in ([], [0, 1, 2], [9, 4, 6, 5]):
        for j in before:
            draws(rng_for(11, j))
        assert draws(rng_for(11, 5)) == alone
    assert draws(rng_for(11, 6)) != alone and draws(rng_for(12, 5)) != alone


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
@pytest.mark.parametrize("start", [0, 25_000])
@pytest.mark.parametrize(
    "bounds",
    [((0, 2 * math.pi), (-1.5, 2.5)), ((-3, 3),), ((-0.25, 0.25),)],
    ids=["angle-and-span", "three", "quarter"],
)
def test_uniform_rows_are_the_per_index_stream_draws(seed, start, bounds):
    want = []
    for i in range(start, start + 200):
        rng = rng_for(seed, i)
        want.append(tuple(rng.uniform(lo, hi) for lo, hi in bounds))
    assert list(uniform_rows(seed, start, 200, bounds)) == want


def test_uniform_rows_of_no_indices_is_empty():
    assert list(uniform_rows(5, 0, 0, ((-3.0, 3.0),))) == []
