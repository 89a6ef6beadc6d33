import pytest

from greenquadrics.checks import _BELL_LEVELS
from greenquadrics.sampling import rand_singular_with_trace, rng_for


@pytest.mark.parametrize("lam", _BELL_LEVELS, ids=str)
def test_singular_with_trace_is_exact(lam):
    for i in range(200):
        x = rand_singular_with_trace(rng_for(31, i), lam)
        assert not x.is_zero()
        assert x.det() == 0
        assert x.trace() == lam
