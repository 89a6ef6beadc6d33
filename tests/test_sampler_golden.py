"""Sampler outputs pinned by hash.

tests/data/sampler_golden.sha256 holds one line `sampler → sha256` per
public sampler: the hash of its first 500 outputs at seed 0, output i
drawn from `rng_for(0, i)` and written as one line of exact entries.  A
change to a sampler's draw order or decoding changes the values every
check and `gq order --report` see for a given seed, so it fails here and
has to be disclosed with the new hashes.  The same 500 outputs drawn through
the lanes of `sampling.lane_draws` hash to the same line: every sampler here
has a lane form, and the lane path is pinned to the scalar one.
"""

import hashlib
import pathlib
from functools import partial

import pytest

from greenquadrics import sampling
from greenquadrics.exact import Rational
from greenquadrics.mat2 import Mat2
from greenquadrics.sampling import (
    _lane_form,
    lane_draws,
    rand_idempotent_rank1,
    rand_invertible,
    rand_mat,
    rand_nonzero_rational,
    rand_rank1,
    rand_rational,
    rand_singular_with_trace,
    rand_wide_mat,
    rand_wide_rational,
    rng_for,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "sampler_golden.sha256"
SAMPLERS = {
    "rand_rational": rand_rational,
    "rand_nonzero_rational": rand_nonzero_rational,
    "rand_mat": rand_mat,
    "rand_mat(span=4, max_den=3)": partial(rand_mat, span=4, max_den=3),
    "rand_invertible": rand_invertible,
    "rand_rank1": rand_rank1,
    "rand_idempotent_rank1": rand_idempotent_rank1,
    "rand_singular_with_trace(lam=0)": partial(rand_singular_with_trace, lam=Rational(0)),
    "rand_singular_with_trace(lam=3/2)": partial(rand_singular_with_trace, lam=Rational(3, 2)),
    "rand_wide_rational": rand_wide_rational,
    "rand_wide_mat": rand_wide_mat,
}
CASES = dict(line.split(" → ") for line in GOLDEN.read_text(encoding="utf-8").splitlines())


def _digest(values) -> str:
    lines = [" ".join(map(str, x.entries)) if isinstance(x, Mat2) else str(x) for x in values]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_every_public_sampler_is_pinned():
    public = {name for name in sampling.__all__ if name.startswith("rand_")}
    assert {name.split("(")[0] for name in SAMPLERS} == public
    assert set(CASES) == set(SAMPLERS)


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_outputs_match_golden(name):
    assert _digest(SAMPLERS[name](rng_for(0, i)) for i in range(500)) == CASES[name]


@pytest.mark.parametrize("name", SAMPLERS)
def test_lane_outputs_match_golden(name):
    sampler = SAMPLERS[name]
    assert _lane_form(sampler) is not None, f"{name} has no lane form"
    assert _digest(x for (x,) in lane_draws(0, 0, 500, [sampler])) == CASES[name]
