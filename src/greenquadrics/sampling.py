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
uniform over the accepted draws.  That batch is the sampler's lane form:
the sizes of its one `offsets` call, and a builder from those offsets to
the value (None for a rejected attempt).  Each public sampler is that
form drawn on a `Stream`, so the scalar call and the lanes decode a batch
with one builder.  The forms stay inside this module, built where they are
asked for: a caller passes samplers, or `partial`s of them, and shapes
their values itself.

The mix is written twice: in `Stream.offsets`, for scalar draws, and in
`_lane_offsets`, which draws the same outputs without building a
`Stream`.  There the keys of up to `_LANES` indices of one stride sit in
the 128-bit lanes of one int (a SWAR layout; Lamport, CACM 18(8), 1975),
each step of SplitMix64 is one big-int operation over all the lanes, and
each offset a lane-wise multiply-high.  Every lane value and multiplier
is below 2**64, so no product carries into the next lane, and the
offsets are bit-identical to those of `Stream.offsets`.  Three readers
share it: `uniform_columns` draws the float columns of export, one list
per bound for each block of indices, `lane_draws` the tuples of samplers
that most checks draw per trial, and
`strata_draws` the first attempts of the checks whose trials pick their
samplers by stratum, one strided run per stratum.  An index whose first
attempt some builder rejects, whose case the caller's `build` of
`strata_draws` rejects, or whose tuple has a sampler without a lane form
(a lambda, a replaced sampler) is drawn whole on its own `Stream`: the
samplers in turn, each redrawing its own rejected attempts, and in
`strata_draws` the samplers and `build` again until `build` accepts.  So
a case is the one of its index's stream either way.

The wide sampler `rand_wide_rational` draws the tail trials of the
certified checks: a numerator of a random sign and a denominator of
exactly 64 bits, one output per integer.  Those checks draw a matrix as
its four entries in turn, row-major.  `CERTIFICATE_VALUES` holds the
values per variable of their exhaustive grids, sized by the degree of
the identity in each variable.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial
from itertools import accumulate, chain, product, repeat, zip_longest

from greenquadrics.exact import Rational, _as_rational, _from_ints
from greenquadrics.mat2 import Mat2, _canon

__all__ = [
    "Stream",
    "derive_seed",
    "rng_for",
    "uniform_columns",
    "lane_draws",
    "strata_draws",
    "rand_rational",
    "rand_nonzero_rational",
    "rand_mat",
    "rand_invertible",
    "rand_rank1",
    "rand_idempotent_rank1",
    "rand_singular_with_trace",
    "rand_wide_rational",
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


_LANES = 512  # streams whose outputs `_lane_offsets` mixes in one pass
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


def _low_words(lanes: int, m: int) -> array:
    """The low 64-bit word of each of the first `m` lanes of `lanes`."""
    words = array("Q", lanes.to_bytes(16 * m, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words[::2]


def _lane_offsets(seed: int, first: int, n: int, calls, stride: int = 1):
    """Yield, for each block of up to `_LANES` of the `n` indices `first`,
    `first + stride`, `first + 2*stride`, ..., the offsets that
    `rng_for(seed, index)` returns for the calls `offsets(*sizes)`, one per
    `sizes` of `calls`, in turn: one array per offset, item i for index i
    of the block.

    The outputs follow `Stream.offsets`' rule, which depends on the sizes
    alone: each call starts a fresh output, and so does a size whose
    product with the sizes already drawn from the current output would
    pass 2**64.  Lane i of one int (bits 128i to 128i + 127) holds the key
    of index i of the block, which is the key of its first index plus
    i*step for step = stride*_MIX_B mod 2**63 (`derive_seed` is affine in
    the index), below 2**73 before its mask.  Each lane value is
    masked below 2**64 before it is multiplied by `_C1` or `_C2` (both
    below 2**64) or by a size (at most 2**64), so a product fits its lane;
    that mask also drops the bits that each xor-shift brought down from
    the lane above.  An offset is the high word of z*n, read as the low
    word of each lane of z*n >> 64, and the low word z*n mod 2**64 carries
    on to the next size, as in `offsets`.  The words are read back
    through `int.to_bytes(..., "little")` into an `array("Q")`,
    byte-swapped on a big-endian machine.
    """
    plan = []  # (number of the output, the sizes drawn from it)
    for sizes in calls:
        room = 0
        for size in sizes:
            if size > room:
                plan.append((len(plan) + 1, []))
                room = _TWO64
            room //= size
            plan[-1][1].append(size)
    key = derive_seed(seed, first)
    step = stride * _MIX_B & _MASK
    while n > 0:
        m = min(n, _LANES)
        ones = _ONES >> (_LANE_BITS * (_LANES - m))
        m64 = _M64 * ones
        keys = (key * ones + step * (_RAMP & m64)) & (_MASK * ones)
        gamma = _GAMMA * ones
        columns = []
        for j, sizes in plan:
            s = (keys + j * gamma) & m64
            z = ((s ^ (s >> 30)) & m64) * _C1 & m64
            z = ((z ^ (z >> 27)) & m64) * _C2 & m64
            z ^= z >> 31
            for size in sizes:
                z = (z & m64) * size
                columns.append(_low_words(z >> 64, m))
        yield columns
        key = (key + m * step) & _MASK
        n -= m


def uniform_columns(seed: int, start: int, n: int, bounds):
    """Yield, for each block of up to `_LANES` indices of [start, start + n),
    one list per (lo, hi) of `bounds` (one or more): item i of a list is
    the draw `rng_for(seed, index).uniform(lo, hi)` of index i of the
    block, one offset of 2**53 per draw from the lanes of `_lane_offsets`,
    keeping `Stream.uniform`'s expression a + (b - a) * (k * 2**-53)."""
    spans = [(lo, hi - lo) for lo, hi in bounds]
    for columns in _lane_offsets(seed, start, n, [(1 << 53,)] * len(spans)):
        yield [[lo + width * (k * 2.0**-53) for k in ks] for (lo, width), ks in zip(spans, columns)]


# The lane form of a sampler is (sizes, build): the sizes of the one
# `offsets` call of an attempt, and a function from those offsets to the
# value, or None when the attempt is rejected.  Each factory below takes
# its sampler's parameters after `rng`, with the same defaults, and the
# scalar sampler is `_draw` of its form, so both paths share one decoding.


def _draw(rng: Stream, form):
    """The value of the first attempt on `rng` that the builder of `form`
    accepts, each attempt one `offsets` call."""
    sizes, build = form
    while (value := build(rng.offsets(*sizes))) is None:
        pass
    return value


def _rational_form(span: int = 9, max_den: int = 9):
    def build(offsets):
        n, d = offsets
        return _from_ints(n - span, d + 1)

    return (2 * span + 1, max_den), build


def _nonzero_rational_form(span: int = 9, max_den: int = 9):
    def build(offsets):
        k, d = offsets
        return _from_ints(k + 1 if k < span else span - 1 - k, d + 1)

    return (2 * span, max_den), build


def _mat_form(span: int = 9, max_den: int = 9):
    def build(offsets):
        n1, d1, n2, d2, n3, d3, n4, d4 = offsets
        d1, d2, d3, d4 = d1 + 1, d2 + 1, d3 + 1, d4 + 1
        d12, d34 = d1 * d2, d3 * d4
        return _canon(
            (n1 - span) * d2 * d34,
            (n2 - span) * d1 * d34,
            (n3 - span) * d4 * d12,
            (n4 - span) * d3 * d12,
            d12 * d34,
        )

    w = 2 * span + 1
    return (w, max_den) * 4, build


def _invertible_form(span: int = 9, max_den: int = 9):
    sizes, mat = _mat_form(span, max_den)

    def build(offsets):
        m = mat(offsets)
        return m if m.det() != 0 else None

    return sizes, build


def _rank1_form(span: int = 5):
    def build(offsets):
        c1, c2, r1, r2, k, d = offsets
        c1, c2, r1, r2 = c1 - span, c2 - span, r1 - span, r2 - span
        if (c1 or c2) and (r1 or r2):
            n = k + 1 if k < span else span - 1 - k
            return _canon(c1 * r1 * n, c1 * r2 * n, c2 * r1 * n, c2 * r2 * n, d + 1)
        return None

    w = 2 * span + 1
    return (w, w, w, w, 2 * span, span), build


def _idempotent_rank1_form(span: int = 5):
    def build(offsets):
        u1, u2, v1, v2 = offsets
        u1, u2, v1, v2 = u1 - span, u2 - span, v1 - span, v2 - span
        p = u1 * v1 + u2 * v2
        if not p:
            return None
        if p < 0:
            u1, u2, p = -u1, -u2, -p
        return _canon(u1 * v1, u1 * v2, u2 * v1, u2 * v2, p)

    return (2 * span + 1,) * 4, build


def _nilpotent_form(span: int = 5):
    def build(offsets):
        c1, c2, k, d = offsets
        c1, c2 = c1 - span, c2 - span
        if c1 or c2:
            n = k + 1 if k < span else span - 1 - k
            return _canon(-c1 * c2 * n, c1 * c1 * n, -c2 * c2 * n, c2 * c1 * n, d + 1)
        return None

    w = 2 * span + 1
    return (w, w, 2 * span, span), build


def _singular_with_trace_form(lam, span: int = 5):
    lam = _as_rational(lam)
    if lam == 0:
        return _nilpotent_form(span)
    sizes, idempotent = _idempotent_rank1_form(span)

    def build(offsets):
        e = idempotent(offsets)
        return None if e is None else e * lam

    return sizes, build


_WIDE_TOP = 1 << 63  # the top bit of one output


def _wide_pair(n: int, d: int) -> tuple[int, int]:
    """(numerator, denominator) of exactly 64 bits each from two outputs:
    the top bit of the first is the sign and is then set, and the top bit
    of the second is set."""
    return (n if n & _WIDE_TOP else -(n | _WIDE_TOP)), d | _WIDE_TOP


def _wide_rational_form():
    # a size of 2**64 takes a whole output
    return (_TWO64, _TWO64), lambda offsets: _from_ints(*_wide_pair(*offsets))


def rand_rational(rng: Stream, span: int = 9, max_den: int = 9) -> Rational:
    """num/den with num in [-span, span] and den in [1, max_den]."""
    return _draw(rng, _rational_form(span, max_den))


def rand_nonzero_rational(rng: Stream, span: int = 9, max_den: int = 9) -> Rational:
    """num/den with 0 < |num| <= span and den in [1, max_den]."""
    return _draw(rng, _nonzero_rational_form(span, max_den))


def rand_mat(rng: Stream, span: int = 9, max_den: int = 9) -> Mat2:
    """Four entries with the law of `rand_rational`, row-major, drawn as
    (num, den) offset pairs from one batch."""
    return _draw(rng, _mat_form(span, max_den))


def rand_invertible(rng: Stream, span: int = 9, max_den: int = 9) -> Mat2:
    """The law of `rand_mat`, an attempt with det 0 redrawn."""
    return _draw(rng, _invertible_form(span, max_den))


def rand_rank1(rng: Stream, span: int = 5) -> Mat2:
    """Random rank-1 matrix c . r^T * n/d: nonzero integer vectors c, r with
    entries in [-span, span], 0 < |n| <= span, d in [1, span]."""
    return _draw(rng, _rank1_form(span))


def rand_idempotent_rank1(rng: Stream, span: int = 5) -> Mat2:
    """Random rank-1 idempotent u . v^T / (v . u): integer vectors with
    entries in [-span, span] and a nonzero pairing."""
    return _draw(rng, _idempotent_rank1_form(span))


def rand_singular_with_trace(rng: Stream, lam, span: int = 5) -> Mat2:
    """Random nonzero singular matrix with trace exactly `lam`: `lam` times a
    rank-1 idempotent, or at lam = 0 the nilpotent c . r^T * n/d with
    r = (-c2, c1), c a nonzero integer vector in [-span, span]^2,
    0 < |n| <= span and d in [1, span]."""
    return _draw(rng, _singular_with_trace_form(lam, span))


def rand_wide_rational(rng: Stream) -> Rational:
    """A random-sign numerator over a denominator, each of exactly 64 bits, reduced."""
    return _draw(rng, _wide_rational_form())


def grid_values(span: int = 2, dens: tuple[int, ...] = (1,)) -> list[Rational]:
    """All fractions num/den with |num| <= span and den in `dens`, deduplicated."""
    vals = {Rational(n, d) for n in range(-span, span + 1) for d in dens}
    return sorted(vals)


def grid_matrices(values):
    """Every Mat2 with entries drawn from `values` (use on small sets only)."""
    return (Mat2(*combo) for combo in product(values, repeat=4))


_FORMS = {
    rand_rational: _rational_form,
    rand_nonzero_rational: _nonzero_rational_form,
    rand_mat: _mat_form,
    rand_invertible: _invertible_form,
    rand_rank1: _rank1_form,
    rand_idempotent_rank1: _idempotent_rank1_form,
    rand_singular_with_trace: _singular_with_trace_form,
    rand_wide_rational: _wide_rational_form,
}


def _lane_form(sampler):
    """The lane form of `sampler` called on a stream alone: a public
    sampler of this module or a `partial` of one; None for any other
    callable."""
    args, kwargs = (), {}
    if isinstance(sampler, partial):
        sampler, args, kwargs = sampler.func, sampler.args, sampler.keywords
    factory = _FORMS.get(sampler)
    return None if factory is None else factory(*args, **kwargs)


def _first_attempts(seed: int, first: int, n: int, samplers, stride: int = 1):
    """Yield, for each of the `n` indices `first`, `first + stride`, ...,
    the tuple of the values of the first attempts of `samplers`, drawn in
    turn from the stream `rng_for(seed, index)` through `_lane_offsets`
    and built as the tuple is yielded; None for an index whose first
    attempt some builder rejects, and for every index when some sampler
    has no lane form (a lambda, a replaced or wrapped sampler).  With no
    samplers every first attempt is the empty tuple."""
    if not samplers:
        yield from repeat((), n)
        return
    forms = [_lane_form(s) for s in samplers]
    if None in forms:
        yield from repeat(None, n)
        return
    ends = list(accumulate(len(sizes) for sizes, _ in forms))
    cuts = list(zip(forms, [0, *ends], ends))
    for columns in _lane_offsets(seed, first, n, [sizes for sizes, _ in forms], stride):
        # lazy maps: the values of an index are built as it is yielded
        for case in zip(*(map(build, zip(*columns[a:b])) for (_, build), a, b in cuts)):
            for value in case:
                if value is None:
                    case = None
                    break
            yield case


def lane_draws(seed: int, first: int, n: int, samplers):
    """Yield, for each index in [first, first + n), the tuple of the values
    of `samplers` drawn in turn from one stream `rng_for(seed, index)`.

    Each block of `_LANES` indices draws the first attempt of every
    sampler through `_lane_offsets` (`_first_attempts`), and the values of
    one index are built as it is yielded.  An index whose first attempt
    some builder rejects, and every index when some sampler has no lane
    form, is drawn by the samplers themselves on its own stream, so every
    tuple is the scalar one."""
    for index, case in enumerate(_first_attempts(seed, first, n, samplers), first):
        if case is None:
            rng = rng_for(seed, index)
            case = tuple(s(rng) for s in samplers)
        yield case


def strata_draws(seed: int, trials: int, strata):
    """Yield one case per trial i in [0, trials): `build(*values)` of the
    stratum (samplers, build) = `strata[i % k]`, k = len(strata), where
    `values` are the values of its samplers drawn in turn from the stream
    `rng_for(seed, i)`, and `build` returns None to ask for a redraw.

    Stratum r draws its trials range(r, trials, k) as one strided run of
    `_first_attempts`, so every trial's first attempt comes from the lanes
    of `_lane_offsets`, and the k runs are interleaved back into trial
    order; each run holds one block of `_LANES` trials at a time.  A trial
    whose first attempt some sampler rejects, whose stratum has a sampler
    without a lane form, or whose `build` returns None is drawn whole on
    its own stream: the samplers in turn, then `build`, until `build`
    returns a case.  So every case is the one of the trial's stream."""
    k = len(strata)
    runs = [_first_attempts(seed, r, len(range(r, trials, k)), samplers, k) for r, (samplers, _) in enumerate(strata)]
    # zip_longest pads only after the last trial, which range(trials) stops before
    for i, values in zip(range(trials), chain.from_iterable(zip_longest(*runs))):
        samplers, build = strata[i % k]
        case = None if values is None else build(*values)
        if case is None:
            rng = rng_for(seed, i)
            while (case := build(*(s(rng) for s in samplers))) is None:
                pass
        yield case


# Values per variable of a certificate grid, by the degree of the identity in
# that variable: one more value than the degree, distinct denominators and
# both signs, so that the grid runs the clearing code and not only the formula.
CERTIFICATE_VALUES = {
    1: (Rational(-3, 2), Rational(5, 7)),
    2: (Rational(-2), Rational(1, 3), Rational(5, 7)),
    4: (Rational(-2), Rational(1, 3), Rational(5, 7), Rational(-3, 4), Rational(6, 5)),
}
