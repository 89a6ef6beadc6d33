"""Seeded test data drawn from a `sampling.Stream`."""

from fractions import Fraction


def randint(rng, a: int, b: int) -> int:
    """Uniform int in [a, b] from one output of `rng` (needs a <= b)."""
    return a + rng.offsets(b - a + 1)[0]


def wide(rng, bits: int = 256) -> Fraction:
    """A rational of random sign whose numerator and denominator both have
    `bits` bits, a multiple of 64."""
    num, den = _top_set(rng, bits), _top_set(rng, bits)
    return Fraction(num if rng.uniform(0.0, 1.0) < 0.5 else -num, den)


def _top_set(rng, bits: int) -> int:
    """bits/64 outputs, the first most significant, with the top bit set."""
    x = 0
    for word in rng.offsets(*[1 << 64] * (bits // 64)):
        x = x << 64 | word
    return x | 1 << (bits - 1)
