"""Seeded random generation of exact matrices and the small exhaustive grids.

Every trial or sample point draws from its own `Stream`: a counter-based
SplitMix64 generator (Steele, Lea & Flood, OOPSLA 2014) keyed by
`derive_seed(seed, index)`.  Building one is a single int store, not a
624-word Mersenne Twister seeding, and each trial is replayable from its
`(seed, index)` alone, whatever else was drawn before it.  `rand_mat` and
`outer` build a `Mat2` straight from integer content with one gcd;
`rand_mat` makes the same `randint` calls, in the same order, as four
`rand_rational` draws.
"""

from __future__ import annotations

from itertools import product

from greenquadrics.exact import Rational, _as_rational
from greenquadrics.mat2 import Mat2, _canon, outer

__all__ = [
    "Stream",
    "derive_seed",
    "rng_for",
    "uniform_rows",
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

_GAMMA = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB


def derive_seed(seed: int, index: int) -> int:
    return (seed * _MIX_A + (index + 1) * _MIX_B) & _MASK


class Stream:
    """SplitMix64 stream: draw j is the finaliser of key + j*gamma (mod 2**64).

    Each method inlines the mix (a second method call per draw would cost
    as much as the draw).  `randint` and `choice` map one 64-bit output onto
    n values by multiply-high, a + (z*n >> 64), for n up to 2**64; `random`
    keeps the top 53 bits.
    """

    __slots__ = ("_s",)

    def __init__(self, key: int):
        self._s = key & _M64

    def randint(self, a: int, b: int) -> int:
        """Uniform int in [a, b]; needs a <= b."""
        s = self._s = (self._s + _GAMMA) & _M64
        z = ((s ^ (s >> 30)) * _C1) & _M64
        z = ((z ^ (z >> 27)) * _C2) & _M64
        return a + (((z ^ (z >> 31)) * (b - a + 1)) >> 64)

    def choice(self, seq):
        s = self._s = (self._s + _GAMMA) & _M64
        z = ((s ^ (s >> 30)) * _C1) & _M64
        z = ((z ^ (z >> 27)) * _C2) & _M64
        return seq[((z ^ (z >> 31)) * len(seq)) >> 64]

    def random(self) -> float:
        """Float in [0, 1) on the 2**-53 grid."""
        s = self._s = (self._s + _GAMMA) & _M64
        z = ((s ^ (s >> 30)) * _C1) & _M64
        z = ((z ^ (z >> 27)) * _C2) & _M64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53

    def uniform(self, a: float, b: float) -> float:
        s = self._s = (self._s + _GAMMA) & _M64
        z = ((s ^ (s >> 30)) * _C1) & _M64
        z = ((z ^ (z >> 27)) * _C2) & _M64
        return a + (b - a) * (((z ^ (z >> 31)) >> 11) * 2.0**-53)

    def getrandbits(self, k: int) -> int:
        """k random bits: ceil(k/64) outputs, the first most significant."""
        words = -(-k // 64)
        s, x = self._s, 0
        for _ in range(words):
            s = (s + _GAMMA) & _M64
            z = ((s ^ (s >> 30)) * _C1) & _M64
            z = ((z ^ (z >> 27)) * _C2) & _M64
            x = (x << 64) | (z ^ (z >> 31))
        self._s = s
        return x >> (64 * words - k)


def rng_for(seed: int, index: int) -> Stream:
    return Stream(derive_seed(seed, index))


def uniform_rows(seed: int, start: int, n: int, bounds):
    """Yield, for each index in [start, start + n), the tuple of draws
    `rng_for(seed, index).uniform(lo, hi)` for each (lo, hi) in `bounds`.

    One loop instead of a `Stream` per index: the key of index + 1 is the
    key of index plus _MIX_B (mod 2**63), and the mix is inlined.  Each
    draw keeps `Stream.uniform`'s expression a + (b - a) * (k * 2**-53).
    """
    spans = [(lo, hi - lo) for lo, hi in bounds]
    key = derive_seed(seed, start)
    for _ in range(n):
        s = key
        row = []
        for lo, width in spans:
            s = (s + _GAMMA) & _M64
            z = ((s ^ (s >> 30)) * _C1) & _M64
            z = ((z ^ (z >> 27)) * _C2) & _M64
            row.append(lo + width * (((z ^ (z >> 31)) >> 11) * 2.0**-53))
        yield tuple(row)
        key = (key + _MIX_B) & _MASK


def rand_rational(rng: Stream, span: int = 9, max_den: int = 9) -> Rational:
    return Rational(rng.randint(-span, span), rng.randint(1, max_den))


def rand_nonzero_rational(rng: Stream, span: int = 9, max_den: int = 9) -> Rational:
    num = rng.randint(1, span) * rng.choice((1, -1))
    return Rational(num, rng.randint(1, max_den))


def rand_mat(rng: Stream, span: int = 9, max_den: int = 9) -> Mat2:
    """Four `rand_rational` entries, drawn in the same order, as integer content."""
    r = rng.randint
    n1, d1 = r(-span, span), r(1, max_den)
    n2, d2 = r(-span, span), r(1, max_den)
    n3, d3 = r(-span, span), r(1, max_den)
    n4, d4 = r(-span, span), r(1, max_den)
    d12, d34 = d1 * d2, d3 * d4
    return _canon(n1 * d2 * d34, n2 * d1 * d34, n3 * d4 * d12, n4 * d3 * d12, d12 * d34)


def rand_invertible(rng: Stream, span: int = 9, max_den: int = 9) -> Mat2:
    while True:
        m = rand_mat(rng, span, max_den)
        if m.det() != 0:
            return m


def _rand_int_vector(rng: Stream, span: int) -> tuple[int, int]:
    while True:
        v = (rng.randint(-span, span), rng.randint(-span, span))
        if v != (0, 0):
            return v


def rand_rank1(rng: Stream, span: int = 5) -> Mat2:
    """Random rank-1 matrix: integer c . r^T scaled by a nonzero rational."""
    c = _rand_int_vector(rng, span)
    r = _rand_int_vector(rng, span)
    return outer(c, r) * rand_nonzero_rational(rng, span, span)


def rand_idempotent_rank1(rng: Stream, span: int = 5) -> Mat2:
    """Random rank-1 idempotent u . v^T / (v . u) with non-orthogonal u, v."""
    while True:
        u = _rand_int_vector(rng, span)
        v = _rand_int_vector(rng, span)
        pairing = u[0] * v[0] + u[1] * v[1]
        if pairing:
            return outer(u, v) / pairing


def rand_nilpotent(rng: Stream, span: int = 5) -> Mat2:
    """Random nonzero square-zero matrix c . r^T with r . c = 0."""
    c = _rand_int_vector(rng, span)
    r = (-c[1], c[0])
    return outer(c, r) * rand_nonzero_rational(rng, span, span)


def rand_singular_with_trace(rng: Stream, lam, span: int = 5) -> Mat2:
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
