"""Seeded random generation of exact matrices and the small exhaustive grids.

Everything is driven by `random.Random` instances; `derive_seed` gives each
trial/point index its own child seed so batched work is reproducible (and
order-independent) for a fixed master seed.  `rand_mat` and `outer` build a
`Mat2` straight from integer content with one gcd; `rand_mat` makes the
same `randint` calls, in the same order, as four `rand_rational` draws.
"""

from __future__ import annotations

import random
from itertools import product

from greenquadrics.exact import Rational, _as_rational
from greenquadrics.mat2 import Mat2, _canon, outer

__all__ = [
    "derive_seed",
    "rng_for",
    "rand_rational",
    "rand_nonzero_rational",
    "rand_mat",
    "rand_invertible",
    "rand_rank1",
    "rand_idempotent_rank1",
    "rand_nilpotent",
    "rand_singular_with_trace",
    "grid_values",
    "grid_matrices",
]

_MIX_A = 6364136223846793005
_MIX_B = 1442695040888963407
_MASK = (1 << 63) - 1


def derive_seed(seed: int, index: int) -> int:
    return (seed * _MIX_A + (index + 1) * _MIX_B) & _MASK


def rng_for(seed: int, index: int) -> random.Random:
    return random.Random(derive_seed(seed, index))


def rand_rational(rng: random.Random, span: int = 9, max_den: int = 9) -> Rational:
    return Rational(rng.randint(-span, span), rng.randint(1, max_den))


def rand_nonzero_rational(rng: random.Random, span: int = 9, max_den: int = 9) -> Rational:
    num = rng.randint(1, span) * rng.choice((1, -1))
    return Rational(num, rng.randint(1, max_den))


def rand_mat(rng: random.Random, span: int = 9, max_den: int = 9) -> Mat2:
    """Four `rand_rational` entries, drawn in the same order, as integer content."""
    r = rng.randint
    n1, d1 = r(-span, span), r(1, max_den)
    n2, d2 = r(-span, span), r(1, max_den)
    n3, d3 = r(-span, span), r(1, max_den)
    n4, d4 = r(-span, span), r(1, max_den)
    d12, d34 = d1 * d2, d3 * d4
    return _canon(n1 * d2 * d34, n2 * d1 * d34, n3 * d4 * d12, n4 * d3 * d12, d12 * d34)


def rand_invertible(rng: random.Random, span: int = 9, max_den: int = 9) -> Mat2:
    while True:
        m = rand_mat(rng, span, max_den)
        if m.det() != 0:
            return m


def _rand_int_vector(rng: random.Random, span: int) -> tuple[int, int]:
    while True:
        v = (rng.randint(-span, span), rng.randint(-span, span))
        if v != (0, 0):
            return v


def rand_rank1(rng: random.Random, span: int = 5) -> Mat2:
    """Random rank-1 matrix: integer c . r^T scaled by a nonzero rational."""
    c = _rand_int_vector(rng, span)
    r = _rand_int_vector(rng, span)
    return outer(c, r) * rand_nonzero_rational(rng, span, span)


def rand_idempotent_rank1(rng: random.Random, span: int = 5) -> Mat2:
    """Random rank-1 idempotent u . v^T / (v . u) with non-orthogonal u, v."""
    while True:
        u = _rand_int_vector(rng, span)
        v = _rand_int_vector(rng, span)
        pairing = u[0] * v[0] + u[1] * v[1]
        if pairing:
            return outer(u, v) / pairing


def rand_nilpotent(rng: random.Random, span: int = 5) -> Mat2:
    """Random nonzero square-zero matrix c . r^T with r . c = 0."""
    c = _rand_int_vector(rng, span)
    r = (-c[1], c[0])
    return outer(c, r) * rand_nonzero_rational(rng, span, span)


def rand_singular_with_trace(rng: random.Random, lam, span: int = 5) -> Mat2:
    """Random nonzero singular matrix with trace exactly `lam`: a nilpotent
    at level zero, otherwise `lam` times a rank-1 idempotent."""
    lam = _as_rational(lam)
    if lam == 0:
        return rand_nilpotent(rng, span)
    return rand_idempotent_rank1(rng, span) * lam


def grid_values(span: int = 2, dens: tuple[int, ...] = (1,)) -> list[Rational]:
    """All fractions num/den with |num| <= span and den in `dens`, deduplicated."""
    vals = {Rational(n, d) for n in range(-span, span + 1) for d in dens}
    return sorted(vals)


def grid_matrices(values):
    """Every Mat2 with entries drawn from `values` (use on small sets only)."""
    return (Mat2(*combo) for combo in product(values, repeat=4))
