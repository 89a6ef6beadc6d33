"""Seeded random generation of exact matrices and the small exhaustive grids.

Every trial or sample point draws from its own `Stream`: a counter-based
SplitMix64 generator (Steele, Lea & Flood, OOPSLA 2014) keyed by
`derive_seed(seed, index)`.  Building one is a single int store, not a
624-word Mersenne Twister seeding, and each trial is replayable from its
`(seed, index)` alone, whatever else was drawn before it.  Each sampler
takes all the bounded draws of one attempt from one `Stream.offsets`
batch (one 64-bit output at the default spans) and builds its `Mat2`
straight from integer content with one gcd.  A rejected attempt (a zero
vector, a zero pairing) redraws the whole batch, which keeps the result
uniform over the accepted draws.  The mix is written in `Stream.offsets`
and `uniform_rows` only: every scalar draw goes through `offsets`.

`uniform_rows` draws the float rows of export from the same streams
without building one: the keys of up to `_LANES` consecutive indices sit
in the 128-bit lanes of one int (a SWAR layout; Lamport, CACM 18(8),
1975), and each step of SplitMix64 is one big-int operation over all the
lanes.  A lane value and both multipliers are below 2**64, so no product
carries into the next lane; the words are read back little-endian, and
the draws are bit-identical to `Stream.uniform`.

The wide samplers (`rand_wide_rational`, `rand_wide_mat`) draw the tail
trials of the certified checks: numerators of a random sign and
denominators of exactly 64 bits each, one output per integer.
`CERTIFICATE_VALUES` holds the values per variable of those checks'
exhaustive grids, sized by the degree of the identity in each variable.
"""

from __future__ import annotations

import sys
from array import array
from itertools import product

from greenquadrics.exact import Rational, _as_rational, _from_ints
from greenquadrics.mat2 import Mat2, _canon

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
    "rand_wide_rational",
    "rand_wide_mat",
    "grid_values",
    "grid_matrices",
    "CERTIFICATE_VALUES",
]

_MIX_A = 6364136223846793005
_MIX_B = 1442695040888963407
_MASK = (1 << 63) - 1

_GAMMA = 0x9E3779B97F4A7C15
_TWO64 = 1 << 64
_M64 = _TWO64 - 1
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB


def derive_seed(seed: int, index: int) -> int:
    return (seed * _MIX_A + (index + 1) * _MIX_B) & _MASK


class Stream:
    """SplitMix64 stream: output j is the finaliser of key + j*gamma (mod 2**64).

    `offsets` holds the only scalar copy of the mix: it splits one output
    into several bounded draws, `offsets(2**64)` is the output itself, and
    `uniform` keeps the top 53 bits of one output as `offsets(2**53)`.
    """

    __slots__ = ("_s",)

    def __init__(self, key: int):
        self._s = key & _M64

    def offsets(self, *sizes: int) -> list[int]:
        """One offset in [0, n) for each size n >= 1, several from one output.

        Batched ranged draws (Brackett-Rozinsky & Lemire, Softw. Pract. Exper.
        2024): an output z gives the offset z*n >> 64 and carries the low
        word z*n mod 2**64 on to the next size.  A fresh output is taken
        whenever the product of the sizes drawn from the current one would
        pass 2**64, so every span is valid and `offsets(1 << 64)` is the
        output itself.  The offsets drawn from one output, read as one
        mixed-radix number, are exactly the multiply-high draw z*P >> 64
        of their product P, so the bias is at most P/2**64 per output:
        each tuple has probability within a factor 1 +- P/2**64 of 1/P.
        """
        s = self._s
        out = []
        room = 0  # 2**64 // (product of the sizes drawn from z)
        for n in sizes:
            if n > room:
                s = (s + _GAMMA) & _M64
                z = ((s ^ (s >> 30)) * _C1) & _M64
                z = ((z ^ (z >> 27)) * _C2) & _M64
                z ^= z >> 31
                room = _TWO64
            room //= n
            z *= n
            out.append(z >> 64)
            z &= _M64
        self._s = s
        return out

    def uniform(self, a: float, b: float) -> float:
        # z * 2**53 >> 64 is z >> 11, the top 53 bits of one output
        return a + (b - a) * (self.offsets(1 << 53)[0] * 2.0**-53)


def rng_for(seed: int, index: int) -> Stream:
    return Stream(derive_seed(seed, index))


_LANES = 512  # rows whose keys `uniform_rows` mixes in one pass
_LANE_BITS = 128
_BIG_ENDIAN = sys.byteorder == "big"


def _lanes(words) -> int:
    """One int holding each word in its own 128-bit lane, the first lowest."""
    lanes = array("Q", bytes(16 * len(words)))
    lanes[::2] = array("Q", words)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


_ONES = _lanes([1] * _LANES)
_RAMP = _lanes(range(_LANES))


def uniform_rows(seed: int, start: int, n: int, bounds):
    """Yield, for each index in [start, start + n), the tuple of draws
    `rng_for(seed, index).uniform(lo, hi)` for each of the one or more
    (lo, hi) in `bounds`.

    Lane i of one int (bits 128i to 128i + 127) holds the key of index
    start + i, which is the key of start plus i*_MIX_B (mod 2**63), below
    2**72 before its mask; a call mixes min(n, `_LANES`) lanes at a time.
    Every lane value is masked below 2**64 before it is multiplied by `_C1`
    or `_C2` (both below 2**64), so a product fits its lane.  That mask
    also drops the bits that each xor-shift brought down from the lane
    above.  After the last xor-shift, bits 64 to 96 of a lane are zero, so
    the low word of `>> 11` is the top 53 bits of the lane's output.  The
    words are read back through `int.to_bytes(..., "little")` into an
    `array("Q")`, byte-swapped on a big-endian machine, and each draw
    keeps `Stream.uniform`'s expression a + (b - a) * (k * 2**-53).
    """
    spans = [(lo, hi - lo) for lo, hi in bounds]
    key = derive_seed(seed, start)
    while n > 0:
        m = min(n, _LANES)
        ones = _ONES >> (_LANE_BITS * (_LANES - m))
        m64 = _M64 * ones
        keys = (key * ones + _MIX_B * (_RAMP & m64)) & (_MASK * ones)
        gamma = _GAMMA * ones
        columns = []
        for j, (lo, width) in enumerate(spans, 1):
            s = (keys + j * gamma) & m64
            z = ((s ^ (s >> 30)) & m64) * _C1 & m64
            z = ((z ^ (z >> 27)) & m64) * _C2 & m64
            words = array("Q", ((z ^ (z >> 31)) >> 11).to_bytes(16 * m, "little"))
            if _BIG_ENDIAN:
                words.byteswap()
            columns.append([lo + width * (k * 2.0**-53) for k in words[::2]])
        yield from zip(*columns)
        key = (key + m * _MIX_B) & _MASK
        n -= m


def rand_rational(rng: Stream, span: int = 9, max_den: int = 9) -> Rational:
    """num/den with num in [-span, span] and den in [1, max_den]."""
    n, d = rng.offsets(2 * span + 1, max_den)
    return _from_ints(n - span, d + 1)


def rand_nonzero_rational(rng: Stream, span: int = 9, max_den: int = 9) -> Rational:
    """num/den with 0 < |num| <= span and den in [1, max_den]."""
    k, d = rng.offsets(2 * span, max_den)
    return _from_ints(k + 1 if k < span else span - 1 - k, d + 1)


def rand_mat(rng: Stream, span: int = 9, max_den: int = 9) -> Mat2:
    """Four entries with the law of `rand_rational`, row-major, drawn as
    (num, den) offset pairs from one batch."""
    w = 2 * span + 1
    n1, d1, n2, d2, n3, d3, n4, d4 = rng.offsets(w, max_den, w, max_den, w, max_den, w, max_den)
    d1, d2, d3, d4 = d1 + 1, d2 + 1, d3 + 1, d4 + 1
    d12, d34 = d1 * d2, d3 * d4
    return _canon(
        (n1 - span) * d2 * d34,
        (n2 - span) * d1 * d34,
        (n3 - span) * d4 * d12,
        (n4 - span) * d3 * d12,
        d12 * d34,
    )


def rand_invertible(rng: Stream, span: int = 9, max_den: int = 9) -> Mat2:
    while True:
        m = rand_mat(rng, span, max_den)
        if m.det() != 0:
            return m


def rand_rank1(rng: Stream, span: int = 5) -> Mat2:
    """Random rank-1 matrix c . r^T * n/d: nonzero integer vectors c, r with
    entries in [-span, span], 0 < |n| <= span, d in [1, span]."""
    w = 2 * span + 1
    while True:
        c1, c2, r1, r2, k, d = rng.offsets(w, w, w, w, 2 * span, span)
        c1, c2, r1, r2 = c1 - span, c2 - span, r1 - span, r2 - span
        if (c1 or c2) and (r1 or r2):
            n = k + 1 if k < span else span - 1 - k
            return _canon(c1 * r1 * n, c1 * r2 * n, c2 * r1 * n, c2 * r2 * n, d + 1)


def rand_idempotent_rank1(rng: Stream, span: int = 5) -> Mat2:
    """Random rank-1 idempotent u . v^T / (v . u): integer vectors with
    entries in [-span, span] and a nonzero pairing."""
    w = 2 * span + 1
    while True:
        u1, u2, v1, v2 = rng.offsets(w, w, w, w)
        u1, u2, v1, v2 = u1 - span, u2 - span, v1 - span, v2 - span
        p = u1 * v1 + u2 * v2
        if p:
            if p < 0:
                u1, u2, p = -u1, -u2, -p
            return _canon(u1 * v1, u1 * v2, u2 * v1, u2 * v2, p)


def rand_nilpotent(rng: Stream, span: int = 5) -> Mat2:
    """Random nonzero square-zero matrix c . r^T * n/d with r = (-c2, c1):
    c a nonzero integer vector in [-span, span]^2, 0 < |n| <= span and
    d in [1, span]."""
    w = 2 * span + 1
    while True:
        c1, c2, k, d = rng.offsets(w, w, 2 * span, span)
        c1, c2 = c1 - span, c2 - span
        if c1 or c2:
            n = k + 1 if k < span else span - 1 - k
            return _canon(-c1 * c2 * n, c1 * c1 * n, -c2 * c2 * n, c2 * c1 * n, d + 1)


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


_WIDE_TOP = 1 << 63  # the top bit of one output


def _wide_parts(rng: Stream) -> tuple[int, int]:
    """(numerator, denominator), each of exactly 64 bits and one output: the
    top bit of the first output is the sign and is then set, and the
    denominator's top bit is set."""
    n, d = rng.offsets(_TWO64, _TWO64)
    return (n if n & _WIDE_TOP else -(n | _WIDE_TOP)), d | _WIDE_TOP


def rand_wide_rational(rng: Stream) -> Rational:
    """A random-sign numerator over a denominator, each of exactly 64 bits, reduced."""
    return _from_ints(*_wide_parts(rng))


def rand_wide_mat(rng: Stream) -> Mat2:
    """Four entries with the law of `rand_wide_rational`, row-major."""
    (n1, d1), (n2, d2), (n3, d3), (n4, d4) = (_wide_parts(rng) for _ in range(4))
    d12, d34 = d1 * d2, d3 * d4
    return _canon(n1 * d2 * d34, n2 * d1 * d34, n3 * d4 * d12, n4 * d3 * d12, d12 * d34)


# Values per variable of a certificate grid, by the degree of the identity in
# that variable: one more value than the degree, distinct denominators and
# both signs, so that the grid runs the clearing code and not only the formula.
CERTIFICATE_VALUES = {
    1: (Rational(-3, 2), Rational(5, 7)),
    2: (Rational(-2), Rational(1, 3), Rational(5, 7)),
    4: (Rational(-2), Rational(1, 3), Rational(5, 7), Rational(-3, 4), Rational(6, 5)),
}
