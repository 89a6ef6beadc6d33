"""Sampler outputs pinned by hash.

tests/data/sampler_golden.sha256 holds one line `sampler → sha256` per
public sampler: the hash of its first 500 outputs at seed 0, output i
drawn from `rng_for(0, i)` and written as one line of exact entries.  A
change to a sampler's draw order or decoding changes the values every
check and `gq order --report` see for a given seed, so it fails here and
has to be disclosed with the new hashes.  The same 500 outputs drawn through
the lanes of `sampling.lane_draws` hash to the same line: every sampler here
has a lane form, and the lane path is pinned to the scalar one.

One more line pins the 64-bit matrix of the certified checks: four
`rand_wide_rational` draws on one stream, its entries row-major.  It keeps
the name `rand_wide_mat` of the sampler that drew such a matrix whole, and
its hash, so the tails of those checks draw the matrices they drew then.
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
    rand_wide_rational,
    rng_for,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "sampler_golden.sha256"
WIDE_MATRIX = "rand_wide_mat"
# name -> the samplers of one output, drawn in turn on its stream
SAMPLERS = {
    "rand_rational": (rand_rational,),
    "rand_nonzero_rational": (rand_nonzero_rational,),
    "rand_mat": (rand_mat,),
    "rand_mat(span=4, max_den=3)": (partial(rand_mat, span=4, max_den=3),),
    "rand_invertible": (rand_invertible,),
    "rand_rank1": (rand_rank1,),
    "rand_idempotent_rank1": (rand_idempotent_rank1,),
    "rand_singular_with_trace(lam=0)": (partial(rand_singular_with_trace, lam=Rational(0)),),
    "rand_singular_with_trace(lam=3/2)": (partial(rand_singular_with_trace, lam=Rational(3, 2)),),
    "rand_wide_rational": (rand_wide_rational,),
    WIDE_MATRIX: (rand_wide_rational,) * 4,
}
CASES = dict(line.split(" → ") for line in GOLDEN.read_text(encoding="utf-8").splitlines())


def _digest(outputs) -> str:
    """One line per output: the exact entries of its values, space-separated."""
    entries = ((e for x in values for e in (x.entries if isinstance(x, Mat2) else (x,))) for values in outputs)
    return hashlib.sha256("\n".join(" ".join(map(str, e)) for e in entries).encode("utf-8")).hexdigest()


def test_every_public_sampler_is_pinned():
    public = {name for name in sampling.__all__ if name.startswith("rand_")}
    assert {name.split("(")[0] for name, samplers in SAMPLERS.items() if len(samplers) == 1} == public
    assert {name for name, samplers in SAMPLERS.items() if len(samplers) > 1} == {WIDE_MATRIX}
    assert set(CASES) == set(SAMPLERS)


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_outputs_match_golden(name):
    outputs = (tuple(s(rng) for s in SAMPLERS[name]) for rng in (rng_for(0, i) for i in range(500)))
    assert _digest(outputs) == CASES[name]


@pytest.mark.parametrize("name", SAMPLERS)
def test_lane_outputs_match_golden(name):
    samplers = SAMPLERS[name]
    assert None not in map(_lane_form, samplers), f"{name} has no lane form"
    assert _digest(lane_draws(0, 0, 500, samplers)) == CASES[name]
