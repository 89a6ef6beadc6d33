import random

import pytest

from greenquadrics.checks import _BELL_LEVELS
from greenquadrics.mat2 import Mat2
from greenquadrics.sampling import rand_mat, rand_rational, rand_singular_with_trace, rng_for


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
        twin = random.Random()
        twin.setstate(rng.getstate())
        got = rand_mat(rng, span, max_den)
        want = Mat2(*(rand_rational(twin, span, max_den) for _ in range(4)))
        assert got == want and (got._n, got._d) == (want._n, want._d)
        # the same draws were consumed
        assert rng.getrandbits(64) == twin.getrandbits(64)
