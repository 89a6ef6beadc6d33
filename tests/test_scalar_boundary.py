"""The scalar boundary: every rational scalar the package returns is exactly
a `fractions.Fraction`, never an int, a float or a subclass, on small and on
256-bit inputs.  Arithmetic a caller does on a returned scalar is Python's."""

import random
from fractions import Fraction

import pytest

from greenquadrics.exact import QuadExt
from greenquadrics.mat2 import IDENTITY, Mat2, det_polar, inner
from greenquadrics.sections import Hyperplane, bell_residual, restrict_quadric


def _small(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _wide(rng, bits=256):
    num = rng.getrandbits(bits) | (1 << (bits - 1))
    den = rng.getrandbits(bits) | (1 << (bits - 1))
    return Fraction(num if rng.random() < 0.5 else -num, den)


def _scalars(x, y, t, q):
    """(name, value) for each public scalar-returning call."""
    aq = restrict_quadric(Hyperplane(x, x.trace()))
    return [
        ("det", x.det()),
        ("trace", x.trace()),
        ("norm_sq", x.norm_sq()),
        ("inner", inner(x, y)),
        ("det_polar", det_polar(x, y)),
        ("bell_residual", bell_residual(x)),
        ("evaluate", aq.evaluate(t)),
        ("rat_part", q.rat_part),
        ("root2_part", q.root2_part),
    ]


@pytest.mark.parametrize("draw", [_small, _wide], ids=["small", "wide"])
def test_returned_scalars_are_exactly_fraction(draw):
    rng = random.Random(f"scalar-boundary:{draw.__name__}")
    seen = set()
    for _ in range(50):
        x = Mat2(*(draw(rng) for _ in range(4)))
        if x.is_zero():
            continue
        y = Mat2(*(draw(rng) for _ in range(4)))
        t = [draw(rng), rng.randint(-5, 5), draw(rng)]
        q = QuadExt(draw(rng), draw(rng)) * QuadExt(draw(rng), draw(rng))
        for name, value in _scalars(x, y, t, q):
            assert type(value) is Fraction, (name, type(value))
            seen.add(name)
    assert len(seen) == 9


def test_integral_values_stay_fraction():
    # results that happen to be integers, zero included
    for name, value in _scalars(IDENTITY, IDENTITY, [0, 0, 0], QuadExt(2)):
        assert type(value) is Fraction, name


def test_caller_arithmetic_is_pythons():
    assert Mat2(1, 2, 3, 4).det() + 0.5 == -1.5
    assert type(Mat2(1, 2, 3, 4).det() + 0.5) is float
