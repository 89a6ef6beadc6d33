"""Sampler outputs pinned by hash.

tests/data/sampler_golden.sha256 holds one line `sampler → sha256` per
public sampler: the hash of its first 500 outputs at seed 0, output i
drawn from `rng_for(0, i)` and written as one line of exact entries.  A
change to a sampler's draw order or decoding changes the values every
check and `gq order --report` see for a given seed, so it fails here and
has to be disclosed with the new hashes.
"""

import hashlib
import pathlib

import pytest

from greenquadrics import sampling
from greenquadrics.exact import Rational
from greenquadrics.mat2 import Mat2
from greenquadrics.sampling import (
    rand_idempotent_rank1,
    rand_invertible,
    rand_mat,
    rand_nilpotent,
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
    "rand_mat(span=4, max_den=3)": lambda rng: rand_mat(rng, 4, 3),
    "rand_invertible": rand_invertible,
    "rand_rank1": rand_rank1,
    "rand_idempotent_rank1": rand_idempotent_rank1,
    "rand_nilpotent": rand_nilpotent,
    "rand_singular_with_trace(lam=3/2)": lambda rng: rand_singular_with_trace(rng, Rational(3, 2)),
    "rand_wide_rational": rand_wide_rational,
    "rand_wide_mat": rand_wide_mat,
}
CASES = dict(line.split(" → ") for line in GOLDEN.read_text(encoding="utf-8").splitlines())


def _digest(sampler) -> str:
    lines = []
    for i in range(500):
        x = sampler(rng_for(0, i))
        lines.append(" ".join(map(str, x.entries)) if isinstance(x, Mat2) else str(x))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_every_public_sampler_is_pinned():
    public = {name for name in sampling.__all__ if name.startswith("rand_")}
    assert {name.split("(")[0] for name in SAMPLERS} == public
    assert set(CASES) == set(SAMPLERS)


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_outputs_match_golden(name):
    assert _digest(SAMPLERS[name]) == CASES[name]
